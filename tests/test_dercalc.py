"""Derivation and Jordan-derivation spaces, inner derivations, and H1.

Dimensions are cross-checked along two routes: the package's constraint
assembly and the element-level spanning-set oracle from oracles.py.
"""

import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import Phase, given, settings, strategies as st

from matderiv import (Algebra, Derivation, LinearMap, Matrix, act,
                      basis_vec, catalog, certify,
                      derivation_space, h1_dim, inner_derivation,
                      inner_space, is_inner,
                      jordan_derivation_space, jordan_pair,
                      leibniz_failures, lift, member, multiply, nullspace,
                      regular_bimodule, seeded_elements,
                      same_space, solve, Subspace, vadd, validate_algebra,
                      validate_bimodule, vscale, vsub, zero_vec)
from matderiv import cli, dercalc, exactlin, matrix_pair
from matderiv.dercalc import _constraint_rows, _unflatten_nonzeros
from matderiv.exactlin import (_echelonize, _nonzeros, _nullspace_core,
                               _primitive_pairs)
from conftest import (CATALOG, _rebased_pairs, _scales, column_module, row_dicts,
                      mixed_basis_full_matrix_2, write_map_file)
from oracles import derivation_dim_oracle, h1_dim_oracle, inner_dim_oracle

# (Der, Inner, H1) for every catalog pair, derived by hand and re-derived by
# the spanning-set oracle below
EXPECTED_DIMS = {
    "field": (0, 0, 0),
    "dual_numbers": (1, 0, 1),
    "group_algebra_C2": (0, 0, 0),
    "full_matrix_2": (3, 3, 0),
    "upper_triangular_2": (2, 2, 0),
    "direct_sum(field,field)": (0, 0, 0),
}


def rand_elt(rng, dim):
    return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                 for _ in range(dim))


@pytest.mark.parametrize("name", CATALOG)
def test_dimensions_both_routes(name, pairs, derspaces, innerspaces):
    a, m = pairs(name)
    ds = derspaces(name)
    inn = innerspaces(name)
    h1 = h1_dim(a, m)
    expected = EXPECTED_DIMS[name]
    assert (ds.dim, inn.image.dim, h1) == expected
    # independent element-level route over the spanning set
    assert derivation_dim_oracle(a, m) == expected[0]
    assert inner_dim_oracle(a, m) == expected[1]
    assert h1_dim_oracle(a, m) == expected[2]


@pytest.mark.parametrize("name", CATALOG)
def test_basis_certified_and_leibniz(name, pairs, derspaces):
    a, m = pairs(name)
    ds = derspaces(name)
    for d in ds.basis:
        assert (d.algebra, d.bimodule) == (a, m)
        assert not leibniz_failures(a, m, d.linmap)
        assert not any(d.apply(a.unit)), "derivations kill the unit"


@pytest.mark.parametrize("name", CATALOG)
def test_rank_nullity_of_inner_map(name, pairs, innerspaces):
    a, m = pairs(name)
    inn = innerspaces(name)
    assert inn.image.dim + inn.kernel.dim == m.dim


@pytest.mark.parametrize("name", CATALOG)
def test_containments(name, pairs, derspaces, innerspaces):
    a, m = pairs(name)
    ds = derspaces(name)
    inn = innerspaces(name)
    js = jordan_derivation_space(a, m)
    for v in inn.image.basis:
        assert member(ds.subspace, v), "inner inside derivation space"
    for d in ds.basis:
        assert member(js.subspace, d.linmap.flatten()), \
            "derivation space inside jordan space"


def test_jordan_equals_der_for_commutative(pairs):
    for name in ("field", "dual_numbers", "group_algebra_C2",
                 "direct_sum(field,field)"):
        a, m = pairs(name)
        ds = derivation_space(a, m)
        js = jordan_derivation_space(a, m)
        assert same_space(ds.subspace, js.subspace)
        assert derivation_dim_oracle(a, m, jordan=True) == js.dim


def test_dual_numbers_basis_map():
    # Der(Q[eps]) is spanned by eps -> eps (coordinates: column of eps image)
    a, m = catalog("dual_numbers")
    ds = derivation_space(a, m)
    assert ds.dim == 1
    d = ds.basis[0]
    assert d.apply(a.unit) == zero_vec(2)
    assert d.apply(basis_vec(2, 1)) == basis_vec(2, 1)


def test_inner_derivation_frozen_full_matrix():
    # delta_{E11}: E12 -> E12, E21 -> -E21, diagonal units -> 0
    a, m = catalog("full_matrix_2")
    d = inner_derivation(a, m, basis_vec(4, 0))
    assert (d.algebra, d.bimodule) == (a, m)
    assert d.apply(basis_vec(4, 0)) == zero_vec(4)
    assert d.apply(basis_vec(4, 1)) == basis_vec(4, 1)
    assert d.apply(basis_vec(4, 2)) == vscale(F(-1), basis_vec(4, 2))
    assert d.apply(basis_vec(4, 3)) == zero_vec(4)


def test_is_inner_round_trip():
    a, m = catalog("full_matrix_2")
    d = inner_derivation(a, m, basis_vec(4, 0))
    w = is_inner(d)
    assert w is not None
    # the witness regenerates the same operator (it may differ from E11 by
    # a central element)
    assert inner_derivation(a, m, w).matrix == d.matrix

    zero_d = inner_derivation(a, m, zero_vec(4))
    assert zero_d.matrix.is_zero()
    assert is_inner(zero_d) == zero_vec(4)


def test_is_inner_absent_for_dual_numbers():
    a, m = catalog("dual_numbers")
    ds = derivation_space(a, m)
    assert is_inner(ds.basis[0]) is None, "commutative: no inner ones"


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", CATALOG)
def test_h1_is_morita_invariant(name, n, pairs, mpairs):
    # Der(M_n(A), M_n(M)) = Inner + lift(Der(A, M)), and a lift is inner
    # exactly when the base derivation is, so H1 does not change with n
    a, m = pairs(name)
    ma, mm = mpairs(name, n)
    assert h1_dim(ma.algebra, mm.bimodule) == h1_dim(a, m) == h1_dim_oracle(a, m)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", CATALOG)
def test_is_inner_round_trip_at_matrix_level(name, n, mpairs):
    ma, mm = mpairs(name, n)
    a, m = ma.algebra, mm.bimodule
    d = inner_derivation(a, m, rand_elt(random.Random(n), m.dim))
    w = is_inner(d)
    assert w is not None
    assert inner_derivation(a, m, w).matrix == d.matrix
    # the witness with free coordinates zero of the dense system
    assert w == solve(_ref_inner_matrix(a, m), d.linmap.flatten())


@pytest.mark.parametrize("n", (2, 3))
def test_is_inner_rejects_the_lift_of_a_non_inner_derivation(n, mpairs, derspaces):
    ma, mm = mpairs("dual_numbers", n)
    a, m = ma.algebra, mm.bimodule
    lifted = lift(derspaces("dual_numbers").basis[0], ma, mm)
    assert is_inner(lifted) is None
    w = rand_elt(random.Random(n), m.dim)
    mixed = Derivation(lifted.linmap + inner_derivation(a, m, w).linmap, a, m)
    assert is_inner(mixed) is None


def test_inner_kernel_is_commutant():
    # kernel of w -> delta_w is the set of w commuting with everything;
    # for full_matrix_2 that is the scalar line
    a, m = catalog("full_matrix_2")
    inn = inner_space(a, m)
    assert inn.kernel.dim == 1
    assert member(inn.kernel, a.unit)


def test_random_inner_derivations_live_in_space(pairs, derspaces):
    rng = random.Random(42)
    for name in ("full_matrix_2", "upper_triangular_2"):
        a, m = pairs(name)
        ds = derspaces(name)
        for trial in range(10):
            w = rand_elt(rng, m.dim)
            d = inner_derivation(a, m, w)
            assert (d.algebra, d.bimodule) == (a, m)
            assert member(ds.subspace, d.linmap.flatten())


def test_derivation_carries_the_pair_it_was_certified_on(pairs):
    # the zero map is a derivation of both 2-dimensional pairs: the same map,
    # two derivations, told apart by == but hashed alike (the hash reads the
    # map only)
    dual, c2 = pairs("dual_numbers"), pairs("group_algebra_C2")
    zero = LinearMap(Matrix.from_triples(2, 2, ()))
    on_dual, on_c2 = certify(*dual, zero), certify(*c2, zero)
    assert (on_dual.algebra, on_dual.bimodule) == dual
    assert on_dual != on_c2 and hash(on_dual) == hash(on_c2)
    assert on_dual == certify(*dual, zero) == Derivation(zero, *dual)
    # no derivation, forged or certified, has a map shaped for another pair
    with pytest.raises(ValueError, match="shape does not match"):
        Derivation(LinearMap(Matrix.from_triples(2, 3, ())), *dual)


def test_certify_accepts_and_rejects():
    a, m = catalog("full_matrix_2")
    d = inner_derivation(a, m, basis_vec(4, 1))
    again = certify(a, m, d.linmap)
    assert (again.algebra, again.bimodule) == (a, m) and again.matrix == d.matrix

    # transpose is linear but not a derivation; E11^t E11^t = E11^t yet the
    # Leibniz expansion differs already at (E11, E11)... the first failing
    # pair in scan order is frozen below
    cols = [basis_vec(4, j) for j in (0, 2, 1, 3)]
    transpose = LinearMap(Matrix.from_rows(zip(*cols)))
    with pytest.raises(ValueError) as err:
        certify(a, m, transpose)
    assert "Leibniz rule at basis pair (0,0)" in str(err.value)
    failures = leibniz_failures(a, m, transpose, stop_early=False)
    assert failures[0] == (0, 0)
    assert (0, 1) in failures
    assert leibniz_failures(a, m, transpose)


def test_leibniz_failures_stop_early():
    a, m = catalog("full_matrix_2")
    cols = [basis_vec(4, j) for j in (0, 2, 1, 3)]
    transpose = LinearMap(Matrix.from_rows(zip(*cols)))
    first = leibniz_failures(a, m, transpose, stop_early=True)
    assert first == [(0, 0)]


def test_derivation_requires_linmap_shapes():
    a, m = catalog("dual_numbers")
    wrong = LinearMap(Matrix.from_triples(3, 2, ()))
    failures = leibniz_failures(a, m, LinearMap(Matrix.from_triples(2, 2, ())))
    assert failures == []
    with pytest.raises(ValueError):
        certify(a, m, wrong)


def test_linmap_flatten_round_trip():
    rng = random.Random(9)
    for trial in range(20):
        md, ad = rng.randint(1, 4), rng.randint(1, 4)
        rows = tuple(tuple(F(rng.randint(-5, 5)) for _ in range(ad))
                     for _ in range(md))
        lin = LinearMap(Matrix(md, ad, rows))
        flat = lin.flatten()
        assert len(flat) == md * ad
        back = _unflatten_nonzeros(_nonzeros(flat), md, ad)
        assert back.matrix == lin.matrix


def test_derivation_space_subspace_consistency(derspaces):
    ds = derspaces("full_matrix_2")
    rows = tuple(d.linmap.flatten() for d in ds.basis)
    assert rows == ds.subspace.basis


def test_linear_combinations_of_derivations(pairs, derspaces):
    # span closure: random combinations of basis derivations still satisfy
    # the Leibniz rule
    rng = random.Random(17)
    a, m = pairs("full_matrix_2")
    ds = derspaces("full_matrix_2")
    for trial in range(5):
        lin = LinearMap(Matrix.from_triples(m.dim, a.dim, ()))
        for d in ds.basis:
            lin = lin + d.linmap.scale(F(rng.randint(-4, 4)))
        assert not leibniz_failures(a, m, lin)


# ---------------------------------------------------------------------------
# sparse kernels against the dense Fraction loops they replace
# ---------------------------------------------------------------------------

def _dense_leibniz_failures(a, m, f, stop_early):
    """The Leibniz check as a dense Fraction loop over every module
    coordinate, kept here as the reference for leibniz_failures."""
    d, md = a.dim, m.dim
    cols = list(zip(*f.matrix.entries))
    table, left, right = row_dicts(a.table), row_dicts(m.left_table), row_dicts(m.right_table)
    bad = []
    for i in range(d):
        ci = cols[i]
        ci_nz = [(p, v) for p, v in enumerate(ci) if v]
        for j in range(d):
            cj = cols[j]
            acc = [F(0)] * md
            for k, c in table[i].get(j, ()):
                ck = cols[k]
                for q in range(md):
                    if ck[q]:
                        acc[q] += c * ck[q]
            for p, v in ci_nz:
                for q, c in right[p].get(j, ()):
                    acc[q] -= v * c
            plane = left[i]
            for p, v in enumerate(cj):
                if v:
                    for q, c in plane.get(p, ()):
                        acc[q] -= v * c
            if any(acc):
                bad.append((i, j))
                if stop_early:
                    return bad
    return bad


def _scaled_c2():
    """C2 in the basis 1, g/2: (g/2)^2 = 1/4, a non-integer table."""
    a = Algebra.from_sparse(2, ("1", "h"), (1, 0),
                            {(0, 0, 0): F(1), (0, 1, 1): F(1),
                             (1, 0, 1): F(1), (1, 1, 0): F(1, 4)})
    return a, regular_bimodule(a)


def _mixed_basis_m2():
    a = mixed_basis_full_matrix_2()
    return a, regular_bimodule(a)


_CATALOG_AND_M2 = tuple((name, None) for name in CATALOG) + (
    ("dual_numbers", 2), ("full_matrix_2", 2), ("upper_triangular_2", 2))
_KERNEL_PAIRS = _CATALOG_AND_M2 + (
    ("dual_numbers", 3), ("upper_triangular_2", 3),
    ("column_module", None), ("scaled_C2", None), ("mixed_basis_M2", None))

_SPECIAL_PAIRS = {
    "column_module": column_module,
    "scaled_C2": _scaled_c2,
    "mixed_basis_M2": _mixed_basis_m2,
}


def _kernel_pair(name, n, pairs, mpairs):
    if name in _SPECIAL_PAIRS:
        return _SPECIAL_PAIRS[name]()
    if n is None:
        return pairs(name)
    ma, mm = mpairs(name, n)
    return ma.algebra, mm.bimodule


_BIG = 2 ** 70     # numerators and denominators well past 64 bits

_nonzero = st.one_of(
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 12)),
    st.builds(F, st.integers(-_BIG, _BIG).filter(bool), st.integers(1, _BIG)))


@st.composite
def _linear_maps(draw, a, m):
    """The zero map, one-entry maps, inner derivations of sparse witnesses
    plus up to two one-entry changes, and sparse random maps."""
    kind = draw(st.sampled_from(("zero", "one entry", "inner", "random")))
    rows = [[F(0)] * a.dim for _ in range(m.dim)]
    if kind == "inner":
        w = [draw(st.one_of(st.just(F(0)), _nonzero)) for _ in range(m.dim)]
        rows = [list(r) for r in inner_derivation(a, m, w).matrix.entries]
    changes = {"zero": 0, "one entry": 1, "inner": draw(st.integers(0, 2)),
               "random": draw(st.integers(1, 8))}[kind]
    for _ in range(changes):
        r = draw(st.integers(0, m.dim - 1))
        c = draw(st.integers(0, a.dim - 1))
        rows[r][c] += draw(_nonzero)
    return LinearMap(Matrix(m.dim, a.dim, tuple(tuple(r) for r in rows)))


@pytest.mark.parametrize("name,n", _KERNEL_PAIRS)
@settings(max_examples=40)
@given(data=st.data())
def test_leibniz_failures_match_dense_reference(name, n, data, pairs, mpairs):
    a, m = _kernel_pair(name, n, pairs, mpairs)
    f = data.draw(_linear_maps(a, m))
    full = leibniz_failures(a, m, f, stop_early=False)
    assert full == _dense_leibniz_failures(a, m, f, stop_early=False)
    first = leibniz_failures(a, m, f)
    assert first == _dense_leibniz_failures(a, m, f, stop_early=True)
    assert first == full[:1]
    if full:
        i, j = full[0]
        with pytest.raises(ValueError) as err:
            certify(a, m, f)
        assert str(err.value) == \
            f"map violates the Leibniz rule at basis pair ({i},{j})"
    else:
        assert certify(a, m, f) == Derivation(f, a, m)


def test_derivation_space_rejects_a_corrupted_basis(monkeypatch):
    a, m = catalog("full_matrix_2")
    true = derivation_space(a, m).subspace
    width = true.ambient_dim
    free = [t for t in range(width) if t not in true.pivot_cols]
    basis = [list(v) for v in true.basis]
    basis[1][free[-1]] += 1            # the first bad map in basis order
    basis[2][free[0]] += 1             # fails at an earlier pair
    maps = [_unflatten_nonzeros(_nonzeros(v), m.dim, a.dim) for v in basis]
    first, later = (leibniz_failures(a, m, f) for f in maps[1:])
    assert first and later and later < first
    with pytest.raises(ValueError) as want:
        certify(a, m, maps[1])
    corrupted = Subspace(width, _nonzeros_of(basis), true.pivot_cols)
    monkeypatch.setattr(dercalc, "nullspace_sparse", lambda rows, w: corrupted)
    with pytest.raises(ValueError) as got:
        derivation_space(a, m)
    assert str(got.value) == str(want.value)


def test_kernel_test_modules_are_bimodules():
    for build in _SPECIAL_PAIRS.values():
        a, m = build()
        assert validate_algebra(a) == []
        assert validate_bimodule(a, m) == []


@pytest.mark.parametrize("name,n", _CATALOG_AND_M2)
def test_inner_derivation_matches_actions(name, n, pairs, mpairs):
    a, m = _kernel_pair(name, n, pairs, mpairs)
    rng = random.Random(f"inner:{name}:{n}")
    for trial in range(5):
        w = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))
             if rng.random() < 0.5 else F(0) for _ in range(m.dim)]
        d = inner_derivation(a, m, w)
        assert (d.algebra, d.bimodule) == (a, m)
        for j in range(a.dim):
            ej = basis_vec(a.dim, j)
            col = tuple(r[j] for r in d.matrix.entries)
            assert col == vsub(act(m, "right", ej, w), act(m, "left", ej, w))
            assert all(type(c) is F for c in col)


# ---------------------------------------------------------------------------
# the integer form against the Fraction assembly and dense inner matrix it
# replaced
# ---------------------------------------------------------------------------

def _unscaled(view, scale):
    return tuple(tuple((j, tuple((k, F(v, scale)) for k, v in cell)) for j, cell in row)
                 for row in view)


def _denominators(*tables):
    return [c.denominator for t in tables for row in t for _, cell in row
            for _, c in cell]


@pytest.mark.parametrize("name,n", _KERNEL_PAIRS)
def test_integer_views_scale_the_tables(name, n, pairs, mpairs):
    a, m = _kernel_pair(name, n, pairs, mpairs)
    la, table = a.int_table
    lm, left, right = m.int_tables
    assert la == lcm(*_denominators(a.table)) > 0
    assert lm == lcm(*_denominators(m.left_table, m.right_table)) > 0
    for view in (table, left, right):
        assert all(type(v) is int for row in view for _, cell in row
                   for _, v in cell)
    assert _unscaled(table, la) == a.table
    assert _unscaled(left, lm) == m.left_table
    assert _unscaled(right, lm) == m.right_table
    # the table indexed by output lists every product e_i e_j naming e_k
    assert sorted((i, j, k, c) for k, prods in enumerate(a.int_producers)
                  for i, j, c in prods) == [(i, j, k, c) for i, row in enumerate(table)
                                            for j, cell in row for k, c in cell]


@pytest.mark.parametrize("name,n", _KERNEL_PAIRS)
def test_integer_views_store_only_the_nonempty_cells(name, n, pairs, mpairs):
    # each view holds the cells of its Fraction table, at the same columns:
    # none is empty, and the regular pair's one table is converted once
    a, m = _kernel_pair(name, n, pairs, mpairs)
    for view, table in ((a.int_table[1], a.table), (m.int_tables[1], m.left_table),
                        (m.int_tables[2], m.right_table)):
        assert all(cell for row in view for _, cell in row)
        assert [[j for j, _ in row] for row in view] == [[j for j, _ in row] for row in table]
    if m is a.regular:
        assert m.int_tables[1] is m.int_tables[2] is a.int_table[1]


def test_integer_views_cover_distinct_scales():
    a, m = column_module()
    assert (a.int_table[0], m.int_tables[0]) == (1, 3)
    a, m = _scaled_c2()
    assert (a.int_table[0], m.int_tables[0]) == (4, 4)


def test_cached_views_leave_equality_and_hash_alone():
    a, m = column_module()
    a2, m2 = column_module()
    a.int_table, a.mult, m.int_tables
    assert "int_table" in vars(a) and "int_tables" in vars(m)
    assert "regular" in vars(a) and "int_tables" in vars(a.regular)
    assert "int_table" not in vars(a2) and "int_tables" not in vars(m2)
    assert "int_tables" not in vars(a2.regular)
    assert a == a2 and hash(a) == hash(a2)
    assert m == m2 and hash(m) == hash(m2)


def _ref_primitive_pairs(items):
    """The positive-scale dedupe key the canonical key replaced: Fraction
    pairs sorted by column, times the lcm of their denominators, over the
    gcd of the results."""
    pairs = sorted((c, x) for c, x in items if x)
    den = lcm(*(x.denominator for _, x in pairs))
    vals = [int(x * den) for _, x in pairs]
    g = gcd(*vals) or 1
    return tuple((c, v // g) for (c, _), v in zip(pairs, vals))


def _ref_constraint_rows(a, m, jordan):
    """The Fraction assembly: one dict per module coordinate q of each basis
    pair (i, j), built from the Fraction tables, in (i, j, q) order."""
    d, md = a.dim, m.dim
    table, left, right = row_dicts(a.table), row_dicts(m.left_table), row_dicts(m.right_table)
    for i in range(d):
        for j in range(d):
            rows = [{} for _ in range(md)]
            for ii, jj in ((i, j), (j, i)) if jordan else ((i, j),):
                for k, c in table[ii].get(jj, ()):      # + delta(e_ii e_jj)
                    for q in range(md):
                        rows[q][k * md + q] = rows[q].get(k * md + q, F(0)) + c
                for p in range(md):                     # - delta(e_ii).e_jj
                    for q, v in right[p].get(jj, ()):
                        col = ii * md + p
                        rows[q][col] = rows[q].get(col, F(0)) - v
                for p in range(md):                     # - e_ii.delta(e_jj)
                    for q, v in left[ii].get(p, ()):
                        col = jj * md + p
                        rows[q][col] = rows[q].get(col, F(0)) - v
            yield from (r.items() for r in rows if r)


def _ref_inner_matrix(a, m):
    """(d*m) x m Fraction matrix whose column p is the flattened delta_{f_p},
    built from act (_dense_inner_columns), not from the kernel under test."""
    return Matrix(a.dim * m.dim, m.dim, tuple(zip(*_dense_inner_columns(a, m))))


def _signed(r):
    """A reference key with its first value made positive, as in the
    canonical key: rows equal up to sign then have the same key."""
    return tuple((c, -v) for c, v in r) if r and r[0][1] < 0 else r


@pytest.mark.parametrize("name,n", _KERNEL_PAIRS)
# no shrink phase: each shrink step rebuilds derivation spaces, so a
# failing example is reported as drawn, in seconds
@settings(max_examples=4, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_integer_assembly_matches_fraction_reference(name, n, data, pairs, mpairs):
    a, m = data.draw(_rebased_pairs(*_kernel_pair(name, n, pairs, mpairs)))
    width = a.dim * m.dim
    for jordan, space in ((False, derivation_space), (True, jordan_derivation_space)):
        pair = jordan_pair(a, m) if jordan else (a, m)
        got = list(_constraint_rows(*pair))
        ref = [_ref_primitive_pairs(r) for r in _ref_constraint_rows(a, m, jordan)]
        for g in got:
            assert g and g[0][1] > 0 and gcd(*(v for _, v in g)) == 1
        assert set(got) == {_signed(r) for r in ref} - {()}
        ref_space = _nullspace_core(_echelonize(list(dict.fromkeys(ref)), width), width)
        sub = space(a, m).subspace
        assert (sub.basis, sub.pivot_cols) == (ref_space.basis, ref_space.pivot_cols)
    assert all((d.algebra, d.bimodule) == (a, m) for d in derivation_space(a, m).basis)
    phi = _ref_inner_matrix(a, m)
    inn = inner_space(a, m)
    assert inn.image == Subspace.from_span(list(zip(*phi.entries)), width)
    assert inn.kernel == nullspace(phi)
    w = tuple(data.draw(_scales) for _ in range(m.dim))
    # delta_w is sum_p w_p delta_{f_p}
    assert inner_derivation(a, m, w).linmap.flatten() == tuple(
        sum(x * wp for x, wp in zip(row, w)) for row in phi.entries)
    # is_inner solves the same system as the dense one, scaled by L_m
    for d in (inner_derivation(a, m, w), *derivation_space(a, m).basis):
        assert is_inner(d) == solve(phi, d.linmap.flatten())


def test_assembly_emits_repeated_rows_once(mpairs):
    # single-term rows of M_3(full_matrix_2) are shifted copies of few
    # patterns, and the Jordan pair is commutative and commutes with its
    # module, so its rows of (i, j) and (j, i) are equal and only i <= j is
    # visited: 7,326 rows of the reference's 31,026, and 12,036 without that
    # symmetric visit
    ma, mm = mpairs("full_matrix_2", 3)
    a, m = ma.algebra, mm.bimodule
    for jordan, most in ((False, F(1, 3)), (True, F(1, 4))):
        ref = sum(1 for _ in _ref_constraint_rows(a, m, jordan))
        assert ref == (31026 if jordan else 19656)
        pair = jordan_pair(a, m) if jordan else (a, m)
        assert len(list(_constraint_rows(*pair))) <= most * ref


def test_commuting_pair_visits_each_unordered_basis_pair_once(pairs):
    # group_algebra_C2 is commutative and so commutes with its regular
    # module: the rows of (i, j) and (j, i) are equal, and only i <= j is
    # visited, d(d+1)/2 basis pairs of md rows each, 6 rows (not 8)
    a, m = pairs("group_algebra_C2")
    rows = list(_constraint_rows(a, m))
    assert len(rows) <= a.dim * (a.dim + 1) // 2 * m.dim == 6
    assert set(rows) == {_signed(_ref_primitive_pairs(r))
                         for r in _ref_constraint_rows(a, m, False)} - {()}


# ---------------------------------------------------------------------------
# the Jordan pair: Jordan derivations as the derivations of x o y = xy + yx
# ---------------------------------------------------------------------------

_JORDAN_PAIRS = CATALOG + ("column_module",)


def _base_pair(name, pairs):
    return column_module() if name == "column_module" else pairs(name)


@pytest.mark.parametrize("name", _JORDAN_PAIRS)
def test_jordan_pair_multiplies_by_the_symmetrized_product(name, pairs):
    a, m = _base_pair(name, pairs)
    ja, jm = jordan_pair(a, m)
    assert ja.unit == tuple(u / 2 for u in a.unit)
    for x, y, f in zip(seeded_elements(a.dim, 8, 1), seeded_elements(a.dim, 8, 2),
                       seeded_elements(m.dim, 8, 3)):
        xy = vadd(multiply(a, x, y), multiply(a, y, x))
        assert multiply(ja, x, y) == multiply(ja, y, x) == xy
        xf = vadd(act(m, "left", x, f), act(m, "right", x, f))
        assert act(jm, "left", x, f) == act(jm, "right", x, f) == xf
        assert multiply(ja, ja.unit, x) == x and act(jm, "left", ja.unit, f) == f


def test_a_bimodule_over_another_algebra_is_refused(pairs):
    # derivation_space meets the check in the commutes test of its assembly
    a, m = pairs("dual_numbers")[0], pairs("full_matrix_2")[1]
    for build in (derivation_space, jordan_derivation_space, jordan_pair):
        with pytest.raises(ValueError, match="bimodule is not over this algebra"):
            build(a, m)


@pytest.mark.parametrize("name", _JORDAN_PAIRS)
def test_jordan_basis_is_certified_on_the_jordan_pair(name, pairs):
    a, m = _base_pair(name, pairs)
    js = jordan_derivation_space(a, m)
    ja, jm = jordan_pair(a, m)
    assert (js.algebra, js.bimodule) == (ja, jm) != (a, m)
    for d in js.basis:
        assert (d.algebra, d.bimodule) == (ja, jm)
        assert leibniz_failures(ja, jm, d.linmap, stop_early=False) == []


# ---------------------------------------------------------------------------
# the row-at-a-time Leibniz kernel against the per-pair loop it replaced
# ---------------------------------------------------------------------------

def _per_pair_leibniz_failures(a, m, f, stop_early):
    """The integer Leibniz check with one residual dict per basis pair,
    visiting all d^2 pairs, kept here as the reference for leibniz_failures."""
    d = a.dim
    la, table = a.int_table
    lm, left, right = m.int_tables
    table, left, right = row_dicts(table), row_dicts(left), row_dicts(right)
    nz = [(p, k, x) for p, row in enumerate(f.matrix.entries)
          for k, x in enumerate(row) if x]
    den = lcm(*[x.denominator for _, _, x in nz])
    cols = [[] for _ in range(d)]
    for p, k, x in nz:
        cols[k].append((p, x.numerator * (den // x.denominator)))
    g = gcd(la, lm)
    cols_t = [[(p, v * (lm // g)) for p, v in col] for col in cols]
    cols_m = [[(p, v * (la // g)) for p, v in col] for col in cols]
    bad = []
    for i in range(d):
        ci, row, plane = cols_m[i], table[i], left[i]
        for j in range(d):
            acc = {}
            for k, c in row.get(j, ()):
                for q, v in cols_t[k]:
                    acc[q] = acc.get(q, 0) + c * v
            for p, v in ci:
                for q, c in right[p].get(j, ()):
                    acc[q] = acc.get(q, 0) - v * c
            for p, v in cols_m[j]:
                for q, c in plane.get(p, ()):
                    acc[q] = acc.get(q, 0) - v * c
            if any(acc.values()):
                bad.append((i, j))
                if stop_early:
                    return bad
    return bad


@st.composite
def _sparse_dense_or_perturbed(draw, a, m):
    """A sparse random map, a dense random map, or an inner derivation of a
    random witness changed at one entry (or at none)."""
    kind = draw(st.sampled_from(("sparse", "dense", "inner plus one entry")))
    entry = st.one_of(st.just(F(0)), _nonzero) if kind == "sparse" else _nonzero
    if kind == "inner plus one entry":
        w = [draw(st.one_of(st.just(F(0)), _nonzero)) for _ in range(m.dim)]
        rows = [list(r) for r in inner_derivation(a, m, w).matrix.entries]
        if draw(st.booleans()):
            r = draw(st.integers(0, m.dim - 1))
            c = draw(st.integers(0, a.dim - 1))
            rows[r][c] += draw(_nonzero)
    else:
        rows = [[draw(entry) for _ in range(a.dim)] for _ in range(m.dim)]
    return LinearMap(Matrix(m.dim, a.dim, tuple(tuple(r) for r in rows)))


@pytest.mark.parametrize("name,n", _KERNEL_PAIRS)
@settings(max_examples=12)
@given(data=st.data())
def test_row_kernel_matches_per_pair_loop(name, n, data, pairs, mpairs):
    # rebased pairs have L_a != L_m and negative basis scales
    a, m = data.draw(_rebased_pairs(*_kernel_pair(name, n, pairs, mpairs)))
    f = data.draw(_sparse_dense_or_perturbed(a, m))
    for stop_early in (True, False):
        assert leibniz_failures(a, m, f, stop_early) == \
            _per_pair_leibniz_failures(a, m, f, stop_early)
    first = _per_pair_leibniz_failures(a, m, f, True)
    if first:
        with pytest.raises(ValueError) as err:
            certify(a, m, f)
        assert str(err.value) == \
            "map violates the Leibniz rule at basis pair ({},{})".format(*first[0])
    else:
        assert certify(a, m, f) == Derivation(f, a, m)


# ---------------------------------------------------------------------------
# the sparse basis against the dense code it replaced
# ---------------------------------------------------------------------------

def _dense_nullspace_sparse(rows, width):
    """(basis, pivots) of nullspace_sparse with a dense basis: every distinct
    row renormalised, each free-column vector filled in a dense list."""
    distinct = dict.fromkeys(map(_primitive_pairs, dict.fromkeys(map(tuple, rows))))
    pivot_rows = _echelonize(distinct, width)
    pivots = {p for p, _ in pivot_rows}
    vecs = {f: [F(0)] * width for f in range(width) if f not in pivots}
    for f, v in vecs.items():
        v[f] = F(1)
    for p, r in pivot_rows:
        for c, x in r:
            if c != p:
                vecs[c][p] = -x
    return tuple(map(tuple, vecs.values())), tuple(vecs)


def _dense_from_span(vectors, width):
    """(basis, pivots) of Subspace.from_span over dense vectors, dense."""
    rows = [_primitive_pairs((c, F(x)) for c, x in enumerate(v) if x) for v in vectors]
    basis = []
    for _, r in _echelonize(rows, width):
        v = [F(0)] * width
        for c, x in r:
            v[c] = x
        basis.append(tuple(v))
    return tuple(basis), tuple(c for c, _ in _echelonize(rows, width))


def _dense_inner_columns(a, m):
    """Column p is the flattened delta_{f_p}: e_j -> f_p.e_j - e_j.f_p."""
    cols = []
    for p in range(m.dim):
        f = basis_vec(m.dim, p)
        col = []
        for j in range(a.dim):
            e = basis_vec(a.dim, j)
            col.extend(vsub(act(m, "right", e, f), act(m, "left", e, f)))
        cols.append(col)
    return cols


def _nonzeros_of(dense):
    return tuple(tuple((c, x) for c, x in enumerate(v) if x) for v in dense)


_SPARSE_PAIRS = tuple(dict.fromkeys(_KERNEL_PAIRS + tuple(
    (name, n) for n in (2, 3) for name in CATALOG)))


@pytest.mark.parametrize("name,n", _SPARSE_PAIRS)
@settings(max_examples=3)
@given(data=st.data())
def test_sparse_basis_matches_dense_reference(name, n, data, pairs, mpairs):
    # rebased pairs have fraction tables, so the maps have fraction entries
    a, m = data.draw(_rebased_pairs(*_kernel_pair(name, n, pairs, mpairs)))
    width = a.dim * m.dim
    for jordan, space in ((False, derivation_space), (True, jordan_derivation_space)):
        got = space(a, m)
        pair = jordan_pair(a, m) if jordan else (a, m)
        basis, pivots = _dense_nullspace_sparse(_constraint_rows(*pair), width)
        assert (got.subspace.basis, got.subspace.pivot_cols) == (basis, pivots)
        assert got.subspace.nonzeros == _nonzeros_of(basis)
        maps = [tuple(tuple(v[k * m.dim + p] for k in range(a.dim)) for p in range(m.dim))
                for v in basis]
        assert [b.matrix.entries for b in got.basis] == maps
        assert [b.matrix.nonzeros for b in got.basis] == [_nonzeros_of(r) for r in maps]
    assert all((d.algebra, d.bimodule) == (a, m) for d in derivation_space(a, m).basis)
    cols = _dense_inner_columns(a, m)
    inn = inner_space(a, m)
    image = _dense_from_span(cols, width)
    assert (inn.image.basis, inn.image.pivot_cols) == image
    assert inn.image.nonzeros == _nonzeros_of(image[0])
    rows = [[(p, col[t]) for p, col in enumerate(cols) if col[t]] for t in range(width)]
    assert (inn.kernel.basis, inn.kernel.pivot_cols) == _dense_nullspace_sparse(rows, m.dim)


# ---------------------------------------------------------------------------
# the layer boundaries bench/layers.py wraps by name
# ---------------------------------------------------------------------------

def test_layers_are_called_through_the_names_the_bench_wraps(monkeypatch, capsys, tmp_path):
    # the bench times and counts these calls by replacing the module-level
    # names, so a refactor that bypasses them would zero its metrics
    calls, args_of = {}, {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            args_of.setdefault(name, []).append(args)
            return fn(*args, **kwargs)
        return wrapper

    assert isinstance(exactlin.Subspace.__dict__["from_span"], classmethod)
    monkeypatch.setattr(dercalc, "nullspace_sparse",
                        counted("nullspace_sparse", dercalc.nullspace_sparse))
    monkeypatch.setattr(dercalc, "certify", counted("certify", dercalc.certify))
    monkeypatch.setattr(exactlin.Subspace, "from_span",
                        staticmethod(counted("from_span", exactlin.Subspace.from_span)))
    ma, mm = matrix_pair(*catalog("full_matrix_2"), 2)
    ds = derivation_space(ma.algebra, mm.bimodule)
    assert ds.dim == 15 and calls == {"nullspace_sparse": 1, "certify": ds.dim}
    calls.clear()
    inner_space(ma.algebra, mm.bimodule)
    assert calls == {"from_span": 1, "nullspace_sparse": 1}
    # the Jordan space is derivation_space on the Jordan pair, with its
    # elimination and the certification of its basis counted
    calls.clear()
    monkeypatch.setattr(dercalc, "derivation_space",
                        counted("derivation_space", dercalc.derivation_space))
    js = jordan_derivation_space(ma.algebra, mm.bimodule)
    assert js.dim == 15 and calls == {"derivation_space": 1, "nullspace_sparse": 1,
                                      "certify": js.dim}
    # derspace -n and twolocal pass the cycle generators to derivation_space:
    # one elimination of width dim A * dim M and a certify per basis map;
    # derspace's inner_space adds its span and its kernel, of width dim M
    monkeypatch.setattr(cli, "derivation_space",
                        counted("cli.derivation_space", cli.derivation_space))
    zero = write_map_file(tmp_path / "zero.json", LinearMap(Matrix.from_triples(16, 16, ())))
    for argv, line, spans, widths in (
            (["derspace", "full_matrix_2", "-n", "2"], "Der=15 Inner=15 H1=0", 1, [256, 16]),
            (["twolocal", "full_matrix_2", "-n", "2", "--oracle", zero], "verdict: verified",
             0, [256])):
        calls.clear()
        args_of.clear()
        assert cli.main(argv) == 0 and line in capsys.readouterr().out
        assert calls == {"cli.derivation_space": 1, "nullspace_sparse": len(widths),
                         "certify": 15, **({"from_span": spans} if spans else {})}
        assert [w for _, w in args_of["nullspace_sparse"]] == widths
        assert args_of["cli.derivation_space"] == [(ma.algebra, mm.bimodule, ma.generators)]


# ---------------------------------------------------------------------------
# the Leibniz rule on the cycle generators e_k x E_{i,i+1 mod n} of M_n(A)
# ---------------------------------------------------------------------------

_GENERATED_PAIRS = (tuple((name, n) for n in (2, 3) for name in CATALOG)
                    + (("column_module", 2), ("column_module", 3), ("mixed_basis_M2", 2)))


def _assert_generator_visit_is_exact(ma, mm, full=None):
    a, m = ma.algebra, mm.bimodule
    full = derivation_space(a, m) if full is None else full
    got = derivation_space(a, m, ma.generators)
    assert got.subspace == full.subspace
    assert got.basis == full.basis          # the maps, each on the pair (a, m)


@pytest.mark.parametrize("name,n", _GENERATED_PAIRS)
def test_generator_visit_gives_the_full_space(name, n, mpairs, derspaces):
    if name in _SPECIAL_PAIRS:
        _assert_generator_visit_is_exact(*matrix_pair(*_SPECIAL_PAIRS[name](), n))
    else:
        _assert_generator_visit_is_exact(*mpairs(name, n), derspaces(name, n))


@pytest.mark.parametrize("name", CATALOG + ("column_module", "mixed_basis_M2"))
# no shrink phase, as in test_integer_assembly_matches_fraction_reference
@settings(max_examples=3, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_generator_visit_on_rebased_pairs(name, data, pairs):
    # rebased tables have non-integer constants, so the integer views scale
    base = _SPECIAL_PAIRS[name]() if name in _SPECIAL_PAIRS else pairs(name)
    _assert_generator_visit_is_exact(*matrix_pair(*data.draw(_rebased_pairs(*base)), 2))


def test_generators_are_the_cycle_of_matrix_units(mpairs):
    ma, _ = mpairs("upper_triangular_2", 3)
    assert [ma.unflat(t) for t in ma.generators] == [
        (i, j, k) for i, j in ((0, 1), (1, 2), (2, 0)) for k in range(3)]


@pytest.mark.parametrize("name,n", (("full_matrix_2", 3), ("dual_numbers", 4)))
def test_a_set_that_does_not_generate_is_refused(name, n, mpairs):
    # without the wrap-around edge E_{n-1,0} the set generates only strictly
    # upper triangular matrices: the nullspace is too large, and certify
    # refuses a basis map instead of the space being returned
    ma, mm = mpairs(name, n)
    path = tuple(t for t in ma.generators if ma.unflat(t)[:2] != (n - 1, 0))
    assert len(path) == (n - 1) * ma.base.dim
    with pytest.raises(ValueError, match="map violates the Leibniz rule at basis pair"):
        derivation_space(ma.algebra, mm.bimodule, path)


def test_a_generator_index_out_of_range_is_refused(mpairs):
    ma, mm = mpairs("dual_numbers", 2)
    dim = ma.algebra.dim
    for bad in ((*ma.generators, dim), (-1, *ma.generators)):
        with pytest.raises(ValueError, match="generator index out of range"):
            derivation_space(ma.algebra, mm.bimodule, bad)


def test_generator_visit_emits_fewer_rows(mpairs):
    # M_3(full_matrix_2): 2,892 rows against the full visit's 4,896; a visit
    # that ignored generators would emit all of them
    ma, mm = mpairs("full_matrix_2", 3)
    a, m = ma.algebra, mm.bimodule
    full = list(_constraint_rows(a, m))
    rows = list(_constraint_rows(a, m, ma.generators))
    assert len(rows) <= F(3, 5) * len(full)
    assert set(rows) < set(full)

