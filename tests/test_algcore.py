"""Structure-constant algebras: catalog integrity, axiom validators on the
documented tamperings, and element arithmetic."""

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from matderiv import (Algebra, Bimodule, CATALOG_NAMES, Violation, basis_vec,
                      catalog, catalog_algebra, commutes, direct_sum, from_matrices,
                      jordan_pair, matrix_pair, multiply, regular_bimodule, act,
                      validate_algebra, validate_bimodule, vadd, vscale,
                      zero_vec)
from conftest import (CATALOG, _rebased_pairs, column_module, dense_cube, dense_to_triples,
                      dense_violation, mixed_basis_full_matrix_2, row_dicts, swap_outer,
                      table_triples)


def rand_elt(rng, dim):
    return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                 for _ in range(dim))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
def test_catalog_validates(name, pairs):
    a, m = pairs(name)
    assert validate_algebra(a) == []
    assert validate_bimodule(a, m) == []
    assert m.dim == a.dim, "catalog modules are regular"


def test_catalog_dims_and_labels(pairs):
    dims = {name: pairs(name)[0].dim for name in CATALOG}
    assert dims == {"field": 1, "dual_numbers": 2, "group_algebra_C2": 2,
                    "full_matrix_2": 4, "upper_triangular_2": 3,
                    "direct_sum(field,field)": 2}
    assert pairs("dual_numbers")[0].labels == ("1", "eps")
    assert pairs("full_matrix_2")[0].labels == ("E11", "E12", "E21", "E22")


# the hand-written structure constants the catalog had before it became
# bases of matrices: name -> (labels, unit, {(i, j, k): coefficient of e_k
# in e_i e_j})
_REFERENCE_TABLES = {
    "field": (("1",), (1,), {(0, 0, 0): 1}),
    "dual_numbers": (("1", "eps"), (1, 0), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
    "group_algebra_C2": (("1", "g"), (1, 0),
                         {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}),
    "full_matrix_2": (("E11", "E12", "E21", "E22"), (1, 0, 0, 1),
                      {(a * 2 + b, b * 2 + d, a * 2 + d): 1
                       for a in range(2) for b in range(2) for d in range(2)}),
    "upper_triangular_2": (("E11", "E12", "E22"), (1, 0, 1),
                           {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_TABLES))
def test_catalog_bases_of_matrices_rebuild_the_reference_tables(name):
    labels, unit, triples = _REFERENCE_TABLES[name]
    assert catalog_algebra(name) == Algebra.from_sparse(len(labels), labels, unit, triples)


def test_mixed_basis_rebuilds_its_reference_table():
    half = F(1, 2)
    triples = {(0, k, k): F(1) for k in range(4)}
    triples.update({(k, 0, k): F(1) for k in range(1, 4)})
    triples.update({(1, 1, 0): F(1), (1, 2, 2): F(1), (2, 1, 2): F(-1),
                    (1, 3, 3): F(-1), (3, 1, 3): F(1),
                    (2, 3, 0): half, (2, 3, 1): half,
                    (3, 2, 0): half, (3, 2, 1): -half})
    assert mixed_basis_full_matrix_2() == Algebra.from_sparse(
        4, ("u", "h", "x", "y"), (1, 0, 0, 0), triples)


def test_from_matrices_takes_fractions_and_any_size():
    # Q x Q as the diagonal of M_3 with a scaled basis: e = diag(1/2, 1/2, 0)
    # and f = diag(0, 0, 3), so e e = e/2, f f = 3 f and 1 = 2e + f/3
    a = from_matrices(("e", "f"), [((F(1, 2), 0, 0), (0, F(1, 2), 0), (0, 0, 0)),
                                   ((0, 0, 0), (0, 0, 0), (0, 0, 3))])
    assert a == Algebra.from_sparse(2, ("e", "f"), (2, F(1, 3)),
                                    {(0, 0, 0): F(1, 2), (1, 1, 1): 3})
    assert validate_algebra(a) == []


@pytest.mark.parametrize("labels, mats, message", [
    (("1", "two"), [((1, 0), (0, 1)), ((2, 0), (0, 2))],
     "the basis matrices are linearly dependent"),
    (("1", "zero"), [((1, 0), (0, 1)), ((0, 0), (0, 0))],
     "the basis matrices are linearly dependent"),
    (("1", "x", "y"), [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))],
     "the product x*y is not in the span of the basis matrices"),
    (("e", "x"), [((1, 0), (0, 0)), ((0, 1), (0, 0))],
     "the identity is not in the span of the basis matrices"),
    (("1",), [((1, 0), (0, 1)), ((0, 1), (0, 0))],
     "need one label per basis matrix, all square of one size"),
    (("1", "x"), [((1, 0), (0, 1)), ((1,),)],
     "need one label per basis matrix, all square of one size"),
])
def test_from_matrices_rejects(labels, mats, message):
    with pytest.raises(ValueError) as err:
        from_matrices(labels, mats)
    assert str(err.value) == message


def test_frozen_products():
    a, _ = catalog("dual_numbers")
    eps = basis_vec(2, 1)
    assert multiply(a, eps, eps) == zero_vec(2), "eps^2 = 0"

    c2, _ = catalog("group_algebra_C2")
    g = basis_vec(2, 1)
    assert multiply(c2, g, g) == c2.unit, "g^2 = 1"

    m2, _ = catalog("full_matrix_2")
    e12, e21 = basis_vec(4, 1), basis_vec(4, 2)
    assert multiply(m2, e12, e21) == basis_vec(4, 0), "E12 E21 = E11"
    assert multiply(m2, e21, e12) == basis_vec(4, 3), "E21 E12 = E22"
    assert multiply(m2, e12, e12) == zero_vec(4)

    t2, _ = catalog("upper_triangular_2")
    e11, e12t, e22 = (basis_vec(3, i) for i in range(3))
    assert multiply(t2, e11, e12t) == e12t
    assert multiply(t2, e12t, e22) == e12t
    assert multiply(t2, e22, e12t) == zero_vec(3)
    assert multiply(t2, e12t, e11) == zero_vec(3)


def test_unit_laws_and_associativity_random(pairs):
    rng = random.Random(42)
    for name in CATALOG:
        a, m = pairs(name)
        for trial in range(25):
            x = rand_elt(rng, a.dim)
            y = rand_elt(rng, a.dim)
            z = rand_elt(rng, a.dim)
            assert multiply(a, a.unit, x) == x
            assert multiply(a, x, a.unit) == x
            assert multiply(a, multiply(a, x, y), z) == \
                multiply(a, x, multiply(a, y, z))
            f = rand_elt(rng, m.dim)
            assert act(m, "left", a.unit, f) == f
            assert act(m, "right", a.unit, f) == f
            assert act(m, "right", y, act(m, "left", x, f)) == \
                act(m, "left", x, act(m, "right", y, f))


def test_multiply_bilinear(pairs):
    rng = random.Random(5)
    a, _ = pairs("full_matrix_2")
    for trial in range(20):
        x, y, z = (rand_elt(rng, a.dim) for _ in range(3))
        c = F(rng.randint(-5, 5), rng.choice((1, 2)))
        lhs = multiply(a, vadd(x, vscale(c, y)), z)
        rhs = vadd(multiply(a, x, z), vscale(c, multiply(a, y, z)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the three documented tamperings (frozen outcomes)
# ---------------------------------------------------------------------------

def test_tamper_unit_row_of_mult():
    # 1*eps changed to 2*eps: the left unit law breaks at basis index 1
    a, _ = catalog("dual_numbers")
    mult = dense_to_triples(a.mult)
    mult[(0, 1, 1)] = F(2)
    bad = Algebra.from_sparse(a.dim, a.labels, a.unit, mult)
    violations = validate_algebra(bad)
    assert violations, "tampering must be rejected"
    assert violations[0].axiom == "left unit law"
    assert violations[0].indices == (1,)
    assert "left unit law violated at (eps)" in violations[0].describe(a.labels)


def test_tamper_module_unit_action():
    # left action of the unit scaled by 2: u.f = 2f breaks the unit action
    a, m = catalog("dual_numbers")
    left = {(i, p, q): 2 * c if i == 0 else c
            for (i, p, q), c in table_triples(m.left_table).items()}
    bad = Bimodule.from_sparse(m.dim, m.algebra_dim, left,
                               table_triples(m.right_table))
    violations = validate_bimodule(a, bad)
    assert violations
    assert violations[0].axiom == "left unit action"
    assert violations[0].indices == (0,)


def test_tamper_swapped_actions():
    # regular bimodule of full_matrix_2 with the two actions exchanged:
    # the first broken axiom is left associativity at (E12, E21, E11),
    # and no mixed-associativity violation occurs anywhere
    a, m = catalog("full_matrix_2")
    new_left = swap_outer(table_triples(m.right_table))
    new_right = swap_outer(table_triples(m.left_table))
    bad = Bimodule.from_sparse(m.dim, m.algebra_dim, new_left, new_right)
    violations = validate_bimodule(a, bad)
    assert violations
    # first in scan order: (E11 E12).E11 = E12 but E11.(E12.E11) = 0 swapped
    assert violations[0].axiom == "left associativity"
    assert violations[0].indices == (0, 1, 0)
    # the documented exhibit triple (E12, E21, E11) is a violation too,
    # of left associativity: under the swap no mixed violation exists at all
    assert ("left associativity", (1, 2, 0)) in \
        [(v.axiom, v.indices) for v in violations]
    assert all(v.axiom != "mixed associativity" for v in violations)


def test_retamper_eps_square_one_is_valid():
    # eps^2 = 1 with the unit untouched is still a legal algebra (it is the
    # C2 group algebra in disguise), so validation accepts it
    a, _ = catalog("dual_numbers")
    mult = dense_to_triples(a.mult)
    mult[(1, 1, 0)] = F(1)
    retampered = Algebra.from_sparse(a.dim, a.labels, a.unit, mult)
    assert validate_algebra(retampered) == []
    c2, _ = catalog("group_algebra_C2")
    assert retampered.mult == c2.mult


# ---------------------------------------------------------------------------
# direct sums, parsing, misc
# ---------------------------------------------------------------------------

def test_direct_sum_structure():
    f, _ = catalog("field")
    d, _ = catalog("dual_numbers")
    s = direct_sum(f, d)
    assert s.dim == 3
    assert validate_algebra(s) == []
    assert s.unit == (F(1), F(1), F(0))
    # components multiply independently: (1,0)*(0,1) = 0
    assert multiply(s, basis_vec(3, 0), basis_vec(3, 1)) == zero_vec(3)
    assert multiply(s, basis_vec(3, 1), basis_vec(3, 1)) == basis_vec(3, 1)


def test_catalog_name_parsing():
    nested = catalog_algebra("direct_sum(field,direct_sum(field,field))")
    assert nested.dim == 3
    assert validate_algebra(nested) == []
    assert catalog_algebra(" field ").dim == 1
    with pytest.raises(ValueError):
        catalog_algebra("no_such_algebra")
    with pytest.raises(ValueError):
        catalog_algebra("direct_sum(field)")
    assert "direct_sum(x,y)" in CATALOG_NAMES


def test_commutes():
    a, m = catalog("dual_numbers")
    assert commutes(a, m)
    b, mb = catalog("full_matrix_2")
    assert not commutes(b, mb)


def test_from_sparse_round_trip():
    a, _ = catalog("dual_numbers")
    triples = {(i, j, k): a.mult[i][j][k]
               for i in range(a.dim) for j in range(a.dim)
               for k in range(a.dim) if a.mult[i][j][k]}
    rebuilt = Algebra.from_sparse(a.dim, a.labels, a.unit, triples)
    assert rebuilt.mult == a.mult
    assert rebuilt.unit == a.unit


def test_algebra_shape_validation():
    empty = ((), ())                              # two rows, no cell stored
    with pytest.raises(ValueError):
        Algebra(2, ("1",), (F(1), F(0)), empty)  # label count mismatch
    with pytest.raises(ValueError):
        Algebra(2, ("1", "x"), (F(1),), empty)  # unit length mismatch


def test_table_canonical_form():
    # from_sparse drops zero coefficients and ignores insertion order
    a, m = catalog("full_matrix_2")
    items = list(dense_to_triples(a.mult).items())
    items += [((1, 1, 0), F(0)), ((3, 0, 2), F(0))]
    random.Random(3).shuffle(items)
    assert Algebra.from_sparse(a.dim, a.labels, a.unit, dict(items)) == a
    # hand-built tables must already be canonical
    for cell in (((1, F(1)), (0, F(1))),   # k not increasing
                 ((0, F(1)), (0, F(2))),   # k repeated
                 ((0, F(0)),),             # zero coefficient
                 ((4, F(1)),)):            # k out of range
        table = row_dicts(a.table)
        table[0][0] = cell
        table = tuple(tuple(sorted(row.items())) for row in table)
        with pytest.raises(ValueError):
            Algebra(a.dim, a.labels, a.unit, table)
        with pytest.raises(ValueError):
            Bimodule(m.dim, m.algebra_dim, table, m.right_table)
    with pytest.raises(ValueError):
        Algebra.from_sparse(a.dim, a.labels, a.unit, {(0, 0, 4): F(1)})


def test_tables_store_only_nonempty_cells_in_column_order():
    # a table has one row per basis element of its first factor, and a row
    # lists nonempty cells at strictly increasing columns below the column
    # count; any other form is refused, as algebra and as either action
    a, m = catalog("full_matrix_2")
    (j0, c0), (j1, c1) = a.table[0]              # E11 E11 = E11, E11 E12 = E12
    rows = {"empty cell": ((j0, c0), (2, ())),
            "repeated column": ((j0, c0), (j0, c0)),
            "unsorted columns": ((j1, c1), (j0, c0)),
            "column >= dim1": ((j0, c0), (a.dim, c1))}
    tables = [(row,) + a.table[1:] for row in rows.values()]
    tables += [a.table[:-1], a.table + ((),)]    # a row missing, a row too many
    for table in tables:
        with pytest.raises(ValueError):
            Algebra(a.dim, a.labels, a.unit, table)
        with pytest.raises(ValueError):
            Bimodule(m.dim, m.algebra_dim, table, m.right_table)
        with pytest.raises(ValueError):
            Bimodule(m.dim, m.algebra_dim, m.left_table, table)
    # T_2 on Q^2: left has 3 rows of columns below 2, right 2 rows below 3
    t, cm = column_module()
    one = ((0, F(1)),)
    past_left, past_right = ((cm.dim, one),), ((t.dim, one),)   # a column too far
    for left, right in (((past_left,) + cm.left_table[1:], cm.right_table),
                        (cm.left_table, (past_right,) + cm.right_table[1:]),
                        (cm.left_table[:-1], cm.right_table),
                        (cm.left_table, cm.right_table + ((),))):
        with pytest.raises(ValueError):
            Bimodule(cm.dim, t.dim, left, right)
    assert Bimodule(cm.dim, t.dim, cm.left_table, cm.right_table) == cm


@pytest.mark.parametrize("name", CATALOG)
def test_regular_pair_converts_its_one_table_once(name):
    # the regular bimodule is one object per algebra, whose integer view is
    # the algebra's, whichever of the two is read first
    a, m = catalog(name)
    assert m is regular_bimodule(a) is a.regular
    assert m.int_tables[1] is m.int_tables[2] is a.int_table[1]
    ma, mm = matrix_pair(a, m, 2)
    assert mm.bimodule is ma.algebra.regular
    assert ma.algebra.int_table[1] is mm.bimodule.int_tables[1]


_COEFFS = st.sampled_from((F(0), F(1), F(-2), F(3, 2)))


@st.composite
def _built_pairs(draw):
    """A pair from each builder of tables: from_sparse of drawn triples, the
    catalog, matrix_pair at n = 2 to 4, jordan_pair, direct_sum and rebase."""
    kind = draw(st.sampled_from(("triples", "catalog", "matrix_pair", "jordan_pair",
                                 "direct_sum", "rebase")))
    if kind == "triples":
        d, md = draw(st.integers(1, 4)), draw(st.integers(1, 4))

        def triples(*dims):
            keys = st.tuples(*(st.integers(0, x - 1) for x in dims))
            return draw(st.dictionaries(keys, _COEFFS, max_size=12))
        return (Algebra.from_sparse(d, [str(i) for i in range(d)], [1] * d, triples(d, d, d)),
                Bimodule.from_sparse(md, d, triples(d, md, md), triples(md, d, md)))
    a, m = draw(st.one_of(st.sampled_from(CATALOG).map(catalog), st.builds(column_module)))
    if kind == "matrix_pair":
        ma, mm = matrix_pair(a, m, draw(st.integers(2, 4)))
        return ma.algebra, mm.bimodule
    if kind == "jordan_pair":
        return jordan_pair(a, m)
    if kind == "direct_sum":
        b = direct_sum(a, catalog_algebra(draw(st.sampled_from(CATALOG))))
        return b, regular_bimodule(b)
    return draw(_rebased_pairs(a, m)) if kind == "rebase" else (a, m)


@settings(max_examples=60)
@given(pair=_built_pairs())
def test_every_built_table_is_canonical_and_rebuilds_from_its_triples(pair):
    a, m = pair
    for table, columns in ((a.table, a.dim), (m.left_table, m.dim), (m.right_table, a.dim)):
        for row in table:
            cols = [j for j, _ in row]
            assert cols == sorted(set(cols)) and all(0 <= j < columns for j in cols)
            assert all(cell for _, cell in row), "no empty cell is stored"
    assert Algebra.from_sparse(a.dim, a.labels, a.unit, table_triples(a.table)).table == a.table
    rebuilt = Bimodule.from_sparse(m.dim, m.algebra_dim, table_triples(m.left_table),
                                   table_triples(m.right_table))
    assert (rebuilt.left_table, rebuilt.right_table) == (m.left_table, m.right_table)


# ---------------------------------------------------------------------------
# table-based bimodule validation against the element-action version
# ---------------------------------------------------------------------------

def _reference_act(m, left, right, side, x, f):
    """x.f or f.x by scanning both coordinate vectors for nonzeros, with the
    tables of m as row_dicts left and right."""
    acc = [F(0)] * m.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for p, fp in enumerate(f):
            if not fp:
                continue
            cell = left[i].get(p, ()) if side == "left" else right[p].get(i, ())
            for q, c in cell:
                acc[q] += xi * fp * c
    return tuple(acc)


def _reference_validate_bimodule(a, m):
    """validate_bimodule written with seven element actions per basis tuple,
    kept here as the reference for the table expansion."""
    left, right = row_dicts(m.left_table), row_dicts(m.right_table)

    def act_(side, x, f):
        return _reference_act(m, left, right, side, x, f)

    out = []
    for p in range(m.dim):
        fp = basis_vec(m.dim, p)
        lhs = act_("left", a.unit, fp)
        if lhs != fp:
            out.append(dense_violation("left unit action", (p,), lhs, fp))
        rhs = act_("right", a.unit, fp)
        if rhs != fp:
            out.append(dense_violation("right unit action", (p,), rhs, fp))
    for i in range(a.dim):
        ei = basis_vec(a.dim, i)
        for j in range(a.dim):
            ej = basis_vec(a.dim, j)
            prod = a.mult[i][j]
            for p in range(m.dim):
                fp = basis_vec(m.dim, p)
                lhs = act_("left", prod, fp)
                rhs = act_("left", ei, act_("left", ej, fp))
                if lhs != rhs:
                    out.append(dense_violation("left associativity", (i, j, p), lhs, rhs))
                lhs = act_("right", prod, fp)
                rhs = act_("right", ej, act_("right", ei, fp))
                if lhs != rhs:
                    out.append(dense_violation("right associativity", (p, i, j), lhs, rhs))
                lhs = act_("right", ej, act_("left", ei, fp))
                rhs = act_("left", ei, act_("right", ej, fp))
                if lhs != rhs:
                    out.append(dense_violation("mixed associativity", (i, p, j), lhs, rhs))
    return out


def _tampered_modules():
    """The documented tamperings plus one seeded single-entry tamper of the
    regular bimodule of M_2(A) for every catalog A."""
    a, m = catalog("dual_numbers")
    left = {(i, p, q): 2 * c if i == 0 else c
            for (i, p, q), c in table_triples(m.left_table).items()}
    yield "unit action", a, Bimodule.from_sparse(m.dim, m.algebra_dim, left,
                                                 table_triples(m.right_table))
    b, mb = catalog("full_matrix_2")
    yield "swapped", b, Bimodule.from_sparse(
        mb.dim, mb.algebra_dim, swap_outer(table_triples(mb.right_table)),
        swap_outer(table_triples(mb.left_table)))
    bases = []
    for name in CATALOG:
        ma, mm = matrix_pair(*catalog(name), 2)
        bases.append((f"M_2({name})", ma.algebra, mm.bimodule))
    mixed = mixed_basis_full_matrix_2()
    bases.append(("mixed basis M_2(Q)", mixed, regular_bimodule(mixed)))
    for label, a, m in bases:
        rng = random.Random(f"tamper:{label}")
        sides = {"left": table_triples(m.left_table),
                 "right": table_triples(m.right_table)}
        side = rng.choice(("left", "right"))
        key = tuple(rng.randrange(m.dim if s else a.dim)
                    for s in ((0, 1, 1) if side == "left" else (1, 0, 1)))
        sides[side][key] = sides[side].get(key, F(0)) + F(rng.choice((-3, -1, 1, 2)),
                                                         rng.choice((1, 2, 5)))
        yield (f"{label} {side} {key}", a,
               Bimodule.from_sparse(m.dim, a.dim, sides["left"], sides["right"]))


@pytest.mark.parametrize("case", list(_tampered_modules()), ids=lambda c: c[0])
def test_validate_bimodule_matches_action_reference(case):
    _, a, m = case
    got = validate_bimodule(a, m)
    assert got, "every tamper breaks an axiom"
    assert got == _reference_validate_bimodule(a, m)


def test_validate_with_cancelling_products():
    # in this basis xy = (u+h)/2, so (xy).y = (u.y + h.y)/2 = 0 cancels
    a = mixed_basis_full_matrix_2()
    assert validate_algebra(a) == []
    assert validate_bimodule(a, regular_bimodule(a)) == []


def _unskipped_validate_bimodule(a, m):
    """validate_bimodule expanding every basis tuple, including those whose
    two input cells are both empty, kept here as the reference for the
    version that skips them."""
    out = []
    for p in range(m.dim):
        fp = basis_vec(m.dim, p)
        lhs = act(m, "left", a.unit, fp)
        if lhs != fp:
            out.append(dense_violation("left unit action", (p,), lhs, fp))
        rhs = act(m, "right", a.unit, fp)
        if rhs != fp:
            out.append(dense_violation("right unit action", (p,), rhs, fp))
    table, left, right = row_dicts(a.table), row_dicts(m.left_table), row_dicts(m.right_table)
    # left_by_p[p][t] = e_t.f_p and right_by_j[j][s] = f_s.e_j
    left_by_p = [{t: left[t][p] for t in range(a.dim) if p in left[t]} for p in range(m.dim)]
    right_by_j = [{s: right[s][j] for s in range(m.dim) if j in right[s]} for j in range(a.dim)]

    def expand(cell, rows):
        acc = [F(0)] * m.dim
        for t, c in cell:
            for s, c2 in rows.get(t, ()):
                acc[s] += c * c2
        return tuple(acc)

    for i in range(a.dim):
        for j in range(a.dim):
            ij = table[i].get(j, ())
            for p in range(m.dim):
                for axiom, idx, lhs, rhs in (
                        ("left associativity", (i, j, p), expand(ij, left_by_p[p]),
                         expand(left[j].get(p, ()), left[i])),
                        ("right associativity", (p, i, j), expand(ij, right[p]),
                         expand(right[p].get(i, ()), right_by_j[j])),
                        ("mixed associativity", (i, p, j),
                         expand(left[i].get(p, ()), right_by_j[j]),
                         expand(right[p].get(j, ()), left[i]))):
                    if lhs != rhs:
                        out.append(dense_violation(axiom, idx, lhs, rhs))
    return out


# a diagonal base: almost every cell of its tables and of M_2's is empty, so
# the validators visit few of the basis tuples
_SPARSE_BASE = "direct_sum(field,direct_sum(field,field))"


def _corrupted_bimodules():
    """M_2(A) for three catalog A and a diagonal one, each corrupted once:
    an existing left or right coefficient changed or removed, a coefficient
    put into an empty left or right cell (an empty cell then meets a
    nonempty one), or a coordinate of the algebra's unit changed."""
    for name in ("dual_numbers", "upper_triangular_2", "full_matrix_2", _SPARSE_BASE):
        ma, mm = matrix_pair(*catalog(name), 2)
        a, m = ma.algebra, mm.bimodule
        rng = random.Random(f"corrupt:{name}")
        clean = {"left": table_triples(m.left_table), "right": table_triples(m.right_table)}
        for side in ("left", "right"):
            triples = clean[side]
            shape = (a.dim, m.dim) if side == "left" else (m.dim, a.dim)
            key = rng.choice(sorted(triples))
            empty = rng.choice([(x, y, rng.randrange(m.dim))
                                for x in range(shape[0]) for y in range(shape[1])
                                if not any(k[:2] == (x, y) for k in triples)])
            for change, edit in (("changed", lambda t: t.update({key: 2 * t[key]})),
                                 ("removed", lambda t: t.pop(key)),
                                 ("filled", lambda t: t.update({empty: F(-3, 2)}))):
                tables = {s: dict(t) for s, t in clean.items()}
                edit(tables[side])
                yield (f"M_2({name}) {side} {change}", a,
                       Bimodule.from_sparse(m.dim, a.dim, tables["left"], tables["right"]))
        k = rng.randrange(a.dim)
        unit = list(a.unit)
        unit[k] += F(1, 2)
        yield (f"M_2({name}) unit {k}", Algebra(a.dim, a.labels, tuple(unit), a.table), m)


@pytest.mark.parametrize("case", list(_corrupted_bimodules()), ids=lambda c: c[0])
def test_validate_bimodule_skips_only_empty_tuples(case):
    _, a, m = case
    got = validate_bimodule(a, m)
    assert got, "every corruption breaks an axiom"
    assert got == _unskipped_validate_bimodule(a, m)


def _dense_validate_algebra(a):
    """validate_algebra summing both sides of associativity densely on every
    basis triple, kept here as the reference for the table expansion."""
    out = []
    dim = a.dim
    for j in range(dim):
        ej = basis_vec(dim, j)
        lhs = multiply(a, a.unit, ej)
        if lhs != ej:
            out.append(dense_violation("left unit law", (j,), lhs, ej))
        rhs = multiply(a, ej, a.unit)
        if rhs != ej:
            out.append(dense_violation("right unit law", (j,), rhs, ej))
    table = row_dicts(a.table)
    for i in range(dim):
        for j in range(dim):
            ij = table[i].get(j, ())
            for k in range(dim):
                lhs = [F(0)] * dim
                for t, c in ij:
                    for s, c2 in table[t].get(k, ()):
                        lhs[s] += c * c2
                rhs = [F(0)] * dim
                for t, c in table[j].get(k, ()):
                    for s, c2 in table[i].get(t, ()):
                        rhs[s] += c * c2
                if lhs != rhs:
                    out.append(dense_violation("associativity", (i, j, k), lhs, rhs))
    return out


def _corrupted_algebras():
    """M_2(A) for three catalog A and a diagonal one with one structure
    constant changed, removed, or put into an empty cell, or a coordinate of
    the unit changed; and the mixed basis of M_2(Q) with one constant
    changed."""
    for name in ("dual_numbers", "upper_triangular_2", "full_matrix_2", _SPARSE_BASE):
        a = matrix_pair(*catalog(name), 2)[0].algebra
        rng = random.Random(f"corrupt algebra:{name}")
        clean = table_triples(a.table)
        key = rng.choice(sorted(clean))
        empty = rng.choice([(i, j, rng.randrange(a.dim)) for i in range(a.dim)
                            for j in range(a.dim) if j not in dict(a.table[i])])
        for change, edit in (("changed", lambda t: t.update({key: 2 * t[key]})),
                             ("removed", lambda t: t.pop(key)),
                             ("filled", lambda t: t.update({empty: F(-3, 2)}))):
            triples = dict(clean)
            edit(triples)
            yield f"M_2({name}) {change}", Algebra.from_sparse(a.dim, a.labels, a.unit, triples)
        k = rng.randrange(a.dim)
        unit = list(a.unit)
        unit[k] += F(1, 2)
        yield f"M_2({name}) unit {k}", Algebra(a.dim, a.labels, tuple(unit), a.table)
    mixed = mixed_basis_full_matrix_2()
    triples = table_triples(mixed.table)
    triples[(2, 3, 0)] = F(1, 3)                  # xy = u/3 + h/2
    yield "mixed basis M_2(Q) changed", Algebra.from_sparse(4, mixed.labels, mixed.unit, triples)


@pytest.mark.parametrize("case", list(_corrupted_algebras()), ids=lambda c: c[0])
def test_validate_algebra_matches_dense_reference(case):
    _, a = case
    got = validate_algebra(a)
    assert got, "every corruption breaks an axiom"
    assert got == _dense_validate_algebra(a)


def _regular_shortcut_cases():
    """The corrupted algebras, the clean catalog bases and their M_2."""
    yield from _corrupted_algebras()
    for name in CATALOG:
        a, m = catalog(name)
        yield name, a
        yield f"M_2({name})", matrix_pair(a, m, 2)[0].algebra


@pytest.mark.parametrize("case", list(_regular_shortcut_cases()), ids=lambda c: c[0])
def test_regular_bimodule_is_valid_exactly_when_its_algebra_is(case):
    # the regular bimodule's four axioms are the algebra's associativity on
    # permuted index triples and its unit laws, so the CLI never checks them
    _, a = case
    assert (validate_bimodule(a, regular_bimodule(a)) == []) == (validate_algebra(a) == [])


def _dense_text(v, labels=None):
    """v rendered from its sides written out densely, one coordinate each,
    in the form Violation.describe prints."""
    where = ",".join(labels[i] if labels else str(i) for i in v.indices)
    lhs, rhs = ([dict(side).get(q, 0) for q in range(v.dim)] for side in (v.lhs, v.rhs))
    return (f"{v.axiom} violated at ({where}): lhs=[{' '.join(map(str, lhs))}] "
            f"rhs=[{' '.join(map(str, rhs))}]")


def _regular(a):
    return a, regular_bimodule(a)


# the catalog pairs, the mixed basis of M_2(Q), and catalog pairs rebased by
# scales with denominators, whose tables have non-integer constants and
# whose unit is not integral
_DRAWN_PAIRS = st.one_of(st.sampled_from(CATALOG).map(catalog),
                         st.builds(mixed_basis_full_matrix_2).map(_regular),
                         st.sampled_from(CATALOG).flatmap(
                             lambda name: _rebased_pairs(*catalog(name))))


@settings(max_examples=60)
@given(data=st.data())
def test_validators_match_dense_references_on_drawn_tampers(data):
    # one entry of the table, of left or of right, or one coordinate of the
    # unit is changed or removed, at the base or at n = 2; a unit tamper at
    # n = 2 gives a unit with several nonzeros to expand
    a, m = data.draw(_DRAWN_PAIRS)
    if data.draw(st.booleans()):
        ma, mm = matrix_pair(a, m, 2)
        a, m = ma.algebra, mm.bimodule
    kind = data.draw(st.sampled_from(("table", "left", "right", "unit")))
    change = data.draw(st.sampled_from((F(-2), F(1), F(3, 2), F(-1, 3), None)))
    if kind == "unit":
        unit = list(a.unit)
        k = data.draw(st.integers(0, a.dim - 1))
        unit[k] = F(0) if change is None else unit[k] + change
        a = Algebra(a.dim, a.labels, tuple(unit), a.table)
    else:
        tables = {"table": table_triples(a.table), "left": table_triples(m.left_table),
                  "right": table_triples(m.right_table)}
        triples = tables[kind]
        key = data.draw(st.sampled_from(sorted(triples)))
        if change is None:
            del triples[key]
        else:
            triples[key] += change
        a = Algebra.from_sparse(a.dim, a.labels, a.unit, tables["table"])
        m = Bimodule.from_sparse(m.dim, a.dim, tables["left"], tables["right"])
    for got, want, labels in ((validate_algebra(a), _dense_validate_algebra(a), a.labels),
                              (validate_bimodule(a, m), _reference_validate_bimodule(a, m),
                               None)):
        assert got == want
        if got:
            assert got[0].describe(labels) == _dense_text(want[0], labels)


def test_validate_bimodule_memory_grows_with_the_nonzeros():
    # a module of dimension 1,500 on which both actions are zero: every f_p
    # breaks both unit actions, and each side is stored by its at most one
    # nonzero, not as 1,500 coordinates
    dim = 1500
    a, m = catalog_algebra("field"), Bimodule.from_sparse(dim, 1, {}, {})
    tracemalloc.start()
    try:
        got = validate_bimodule(a, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 3000
    assert peak < 4 * 2**20, f"{peak} bytes traced"
    assert got == [Violation(f"{side} unit action", (p,), dim, (), ((p, F(1)),))
                   for p in range(dim) for side in ("left", "right")]


# ---------------------------------------------------------------------------
# products and actions against the dense tensors
# ---------------------------------------------------------------------------

def _product_cases():
    """(label, algebra, bimodule): the catalog pairs, two matrix pairs, the
    mixed basis of M_2(Q), and seeded tables of a 3-dimensional algebra
    acting on a 2-dimensional module, with different left and right sides."""
    cases = [(name, *catalog(name)) for name in CATALOG]
    for name in ("dual_numbers", "upper_triangular_2"):
        ma, mm = matrix_pair(*catalog(name), 2)
        cases.append((f"M_2({name})", ma.algebra, mm.bimodule))
    mixed = mixed_basis_full_matrix_2()
    cases.append(("mixed basis", mixed, regular_bimodule(mixed)))
    rng = random.Random("products")

    def triples(*dims):
        return {tuple(rng.randrange(d) for d in dims): F(rng.choice((-2, 1, 3)),
                                                         rng.choice((1, 2)))
                for _ in range(6)}

    a = catalog("upper_triangular_2")[0]
    cases.append(("seeded 3 x 2", a,
                  Bimodule.from_sparse(2, 3, triples(3, 2, 2), triples(2, 3, 2))))
    return tuple((label, a, m, dense_cube(a.table, a.dim, a.dim),
                  dense_cube(m.left_table, m.dim, m.dim), dense_cube(m.right_table, a.dim, m.dim))
                 for label, a, m in cases)


_PRODUCT_CASES = _product_cases()


def _dense_product(cube, u, v, dim):
    """sum u_i v_j cube[i][j] over every pair (i, j), in dim coordinates."""
    return tuple(sum((u[i] * v[j] * cube[i][j][k] for i in range(len(u))
                      for j in range(len(v))), F(0)) for k in range(dim))


def _element(dim):
    """The zero vector, a vector with one entry, or any vector."""
    values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.one_of(
        st.just((F(0),) * dim),
        st.tuples(st.integers(0, dim - 1), values).map(
            lambda iv: tuple(iv[1] if t == iv[0] else F(0) for t in range(dim))),
        st.lists(values, min_size=dim, max_size=dim).map(tuple))


@settings(max_examples=80)
@given(data=st.data())
def test_products_match_dense_reference(data):
    _, a, m, mult, left, right = data.draw(st.sampled_from(_PRODUCT_CASES))
    x, y = data.draw(_element(a.dim)), data.draw(_element(a.dim))
    f = data.draw(_element(m.dim))
    assert multiply(a, x, y) == _dense_product(mult, x, y, a.dim)
    assert act(m, "left", x, f) == _dense_product(left, x, f, m.dim)
    assert act(m, "right", x, f) == _dense_product(right, f, x, m.dim)
