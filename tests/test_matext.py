"""Matrix extensions M_n(A): block layout, entrywise lifts, component maps,
the inner-plus-lift decomposition, the five component identities, and
relabelings of pairs: the reblocking isomorphism and the S_n conjugations."""

import random
from fractions import Fraction as F

import pytest

from matderiv import (Bimodule, Decomposition, DecompositionError, Derivation,
                      IdentityResult, LinearMap, Matrix, act, agreement_failures, basis_vec,
                      catalog, certify, decompose,
                      derivation_space, inner_derivation, jordan_derivation_space, lift,
                      component, matrix_algebra, matrix_bimodule, matrix_pair,
                      multiply, PairIso, perturbed_oracle, reblock_iso,
                      regular_bimodule, Subspace,
                      validate_algebra, validate_bimodule, vadd, verify_lemma22,
                      vscale, vsub, wrap_derivation, zero_vec)
from matderiv.exactlin import lincomb
from matderiv import dercalc, matext
from conftest import (CATALOG, SCALES, column_module, rebase, row_dicts, swap_outer,
                      table_triples)


def rand_elt(rng, dim):
    return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                 for _ in range(dim))


# ---------------------------------------------------------------------------
# construction and layout
# ---------------------------------------------------------------------------

def test_matrix_algebra_of_field_is_full_matrix_2():
    f, _ = catalog("field")
    ma = matrix_algebra(f, 2)
    reference, _ = catalog("full_matrix_2")
    assert ma.algebra.dim == 4
    assert ma.algebra.mult == reference.mult
    assert ma.algebra.unit == reference.unit
    assert ma.algebra.labels == ("1*E11", "1*E12", "1*E21", "1*E22")


def test_matrix_pair_validates(mpairs):
    for name in CATALOG:
        ma, mm = mpairs(name, 2)
        assert validate_algebra(ma.algebra) == []
        assert validate_bimodule(ma.algebra, mm.bimodule) == []


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", CATALOG)
def test_matrix_bimodule_is_regular_of_matrix_algebra(name, n):
    a, m = catalog(name)
    ma = matrix_algebra(a, n)
    mm = matrix_bimodule(m, n)
    reg = regular_bimodule(ma.algebra)
    assert mm.bimodule.left_table == reg.left_table
    assert mm.bimodule.right_table == reg.right_table
    # matrix_pair builds the same bimodule on the algebra's own table
    pair_a, pair_m = matrix_pair(a, m, n)
    assert pair_a == ma and pair_m.bimodule == mm.bimodule
    assert pair_m.bimodule.left_table is pair_a.algebra.table
    assert pair_m.bimodule.right_table is pair_a.algebra.table
    # the product itself, from the base product: (x E_ij)(y E_kl) = [j=k] xy E_il
    dim = ma.algebra.dim
    for s in range(dim):
        i, j, x = ma.unflat(s)
        for t in range(dim):
            k, l, y = ma.unflat(t)
            want = (ma.embed(multiply(a, basis_vec(a.dim, x), basis_vec(a.dim, y)), i, l)
                    if j == k else zero_vec(dim))
            assert multiply(ma.algebra, basis_vec(dim, s), basis_vec(dim, t)) == want


def test_matrix_table_stores_only_its_nonempty_cells():
    # (x E_ij)(y E_kl) is zero unless j = k, so of the 1,024^2 cells of
    # M_16(full_matrix_2) a 1/16 share of the base's 8 of 16 is nonempty
    ma, mm = matrix_pair(*catalog("full_matrix_2"), 16)
    assert ma.algebra.dim == 1024
    assert sum(map(len, ma.algebra.table)) == 32768
    assert mm.bimodule.left_table is ma.algebra.table is mm.bimodule.right_table


def test_matrix_pair_takes_the_regular_path_only_for_equal_tables():
    a, m = catalog("full_matrix_2")
    copy = Bimodule.from_sparse(a.dim, a.dim, table_triples(a.table), table_triples(a.table))
    assert copy.left_table is not a.table
    ma, mm = matrix_pair(a, copy, 2)
    assert mm.bimodule.left_table is ma.algebra.table
    # not regular: the actions exchanged, the field acting on Q^2, and the
    # dual numbers with the right action twisted by eps -> 2 eps
    swapped = Bimodule.from_sparse(a.dim, a.dim, swap_outer(table_triples(m.right_table)),
                                   swap_outer(table_triples(m.left_table)))
    f = catalog("field")[0]
    plane = Bimodule.from_sparse(2, 1, {(0, 0, 0): F(1), (0, 1, 1): F(1)},
                                 {(0, 0, 0): F(1), (1, 0, 1): F(1)})
    dual = catalog("dual_numbers")[0]
    twisted = Bimodule.from_sparse(2, 2, table_triples(dual.table),
                                   {(0, 0, 0): F(1), (1, 0, 1): F(1), (0, 1, 1): F(2)})
    assert validate_bimodule(dual, twisted) == [] and twisted.left_table == dual.table
    for base, mod in ((a, swapped), (f, plane), (dual, twisted)):
        ma, mm = matrix_pair(base, mod, 2)
        assert mm.bimodule == matrix_bimodule(mod, 2).bimodule
        assert mm.bimodule.right_table != ma.algebra.table


def test_flat_unflat_bijection():
    a, _ = catalog("dual_numbers")
    ma = matrix_algebra(a, 3)
    seen = set()
    for i in range(3):
        for j in range(3):
            for k in range(a.dim):
                pos = ma.flat(i, j, k)
                assert ma.unflat(pos) == (i, j, k)
                seen.add(pos)
    assert seen == set(range(ma.algebra.dim))


def test_embed_entry_round_trip():
    rng = random.Random(42)
    a, _ = catalog("dual_numbers")
    ma = matrix_algebra(a, 2)
    for trial in range(10):
        x = rand_elt(rng, a.dim)
        for i in range(2):
            for j in range(2):
                big = ma.embed(x, i, j)
                for r in range(2):
                    for s in range(2):
                        want = x if (r, s) == (i, j) else zero_vec(a.dim)
                        assert ma.entry(big, r, s) == want


def test_unit_is_diagonal_sum():
    a, _ = catalog("dual_numbers")
    ma = matrix_algebra(a, 2)
    expect = vadd(ma.embed(a.unit, 0, 0), ma.embed(a.unit, 1, 1))
    assert ma.algebra.unit == expect


def test_matrix_algebra_requires_n_at_least_2():
    a, _ = catalog("field")
    with pytest.raises(ValueError):
        matrix_algebra(a, 1)


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_acts_entrywise(mpairs, derspaces):
    rng = random.Random(7)
    a, m = catalog("dual_numbers")
    ma, mm = mpairs("dual_numbers", 2)
    base = derspaces("dual_numbers")
    dl = lift(base.basis[0], ma, mm)
    assert (dl.algebra, dl.bimodule) == (ma.algebra, mm.bimodule)
    for trial in range(10):
        x = rand_elt(rng, a.dim)
        for i in range(2):
            for j in range(2):
                got = dl.apply(ma.embed(x, i, j))
                assert got == mm.embed(base.basis[0].apply(x), i, j)


def test_diagonal_restriction_recovers_delta(mpairs, derspaces):
    # reading any diagonal block of the lifted map gives back delta
    ma, mm = mpairs("dual_numbers", 2)
    base = derspaces("dual_numbers")
    delta = base.basis[0]
    dl = lift(delta, ma, mm)
    for i in range(2):
        comp = component(dl, ma, mm, i, i, i, i)
        assert comp.matrix == delta.matrix


# ---------------------------------------------------------------------------
# component maps
# ---------------------------------------------------------------------------

def test_component_frozen_example():
    # D = inner by 1xE12 on M_2(Q): D(E21) = E11 - E22, so the (1,1)
    # component of the image of the (2,1) block at the unit is 1
    f, fm = catalog("field")
    ma, mm = matrix_pair(f, fm, 2)
    d = inner_derivation(ma.algebra, mm.bimodule, ma.embed(f.unit, 0, 1))
    comp = component(d, ma, mm, 0, 0, 1, 0)
    assert comp.apply(f.unit) == (F(1),)
    comp22 = component(d, ma, mm, 1, 1, 1, 0)
    assert comp22.apply(f.unit) == (F(-1),)


def test_component_matches_direct_computation(mpairs):
    rng = random.Random(13)
    a, m = catalog("dual_numbers")
    ma, mm = mpairs("dual_numbers", 2)
    sp = derivation_space(ma.algebra, mm.bimodule)
    d = sp.basis[3]
    for trial in range(8):
        x = rand_elt(rng, a.dim)
        for i in range(2):
            for j in range(2):
                for r in range(2):
                    for s in range(2):
                        comp = component(d, ma, mm, i, j, r, s)
                        direct = mm.entry(d.apply(ma.embed(x, r, s)), i, j)
                        assert comp.apply(x) == direct


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_frozen_inner_e11():
    # inner by the E11 block on M_2(Q): B = diag(0, -1), delta = 0
    f, fm = catalog("field")
    ma, mm = matrix_pair(f, fm, 2)
    d = inner_derivation(ma.algebra, mm.bimodule, ma.embed(f.unit, 0, 0))
    dec = decompose(d, ma, mm)
    assert ma.entry(dec.witness, 0, 0) == (F(0),)
    assert ma.entry(dec.witness, 0, 1) == (F(0),)
    assert ma.entry(dec.witness, 1, 0) == (F(0),)
    assert ma.entry(dec.witness, 1, 1) == (F(-1),)
    assert dec.delta.matrix.is_zero()
    assert (dec.inner_part.linmap + dec.lifted_part.linmap).matrix == d.matrix


def test_decompose_pure_lift(mpairs, derspaces):
    ma, mm = mpairs("dual_numbers", 2)
    base = derspaces("dual_numbers")
    dl = lift(base.basis[0], ma, mm)
    dec = decompose(dl, ma, mm)
    assert not any(dec.witness)
    assert dec.delta.matrix == base.basis[0].matrix
    assert dec.inner_part.matrix.is_zero()
    assert dec.lifted_part.matrix == dl.matrix


def test_decompose_round_trip_all_catalog_n2(mpairs):
    # existence holds on every catalog base; uniqueness needs commutativity
    for name in CATALOG:
        ma, mm = mpairs(name, 2)
        sp = derivation_space(ma.algebra, mm.bimodule)
        for d in sp.basis:
            dec = decompose(d, ma, mm)
            total = dec.inner_part.linmap + dec.lifted_part.linmap
            assert total.matrix == d.matrix, name


def test_decompose_uniqueness_commuting(mpairs, derspaces):
    # for a commutative base, decompose recovers exactly the parts it was
    # built from
    rng = random.Random(42)
    ma, mm = mpairs("dual_numbers", 2)
    base = derspaces("dual_numbers")
    for trial in range(10):
        b_prime = rand_elt(rng, ma.algebra.dim)
        c = F(rng.randint(-5, 5), rng.choice((1, 2)))
        delta_prime = Derivation(base.basis[0].linmap.scale(c), base.algebra, base.bimodule)
        inner_p = inner_derivation(ma.algebra, mm.bimodule, b_prime)
        lift_p = lift(delta_prime, ma, mm)
        d = certify(ma.algebra, mm.bimodule, inner_p.linmap + lift_p.linmap)
        dec = decompose(d, ma, mm)
        assert dec.inner_part.matrix == inner_p.matrix
        assert dec.lifted_part.matrix == lift_p.matrix


def test_decompose_non_uniqueness_noncommuting():
    # base A = full_matrix_2 with its regular bimodule: pick m, a with
    # ma != am; then diag(m, m) is non-central yet its inner derivation
    # coincides with the lift of x -> mx - xm, a nonzero operator
    a, m = catalog("full_matrix_2")
    ma, mm = matrix_pair(a, m, 2)
    x = basis_vec(4, 0)   # E11
    w = basis_vec(4, 1)   # E12
    from matderiv import act, multiply
    assert act(m, "right", x, w) != act(m, "left", x, w), "mw != wm"
    big = vadd(mm.embed(w, 0, 0), mm.embed(w, 1, 1))
    inner_big = inner_derivation(ma.algebra, mm.bimodule, big)
    zeta_cols = []
    for k in range(a.dim):
        e_k = basis_vec(a.dim, k)
        zeta_cols.append(tuple(wi - xi for wi, xi in
                               zip(act(m, "right", e_k, w),
                                   act(m, "left", e_k, w))))
    zeta = certify(a, m, LinearMap(Matrix.from_rows(zip(*zeta_cols))))
    lifted = lift(zeta, ma, mm)
    assert inner_big.matrix == lifted.matrix
    assert not inner_big.matrix.is_zero()


@pytest.mark.parametrize("name", ("full_matrix_2", "dual_numbers"))
def test_derivation_space_is_inner_plus_lift_at_n4(name, pairs, mpairs, derspaces):
    # the first theorem, Der(M_4(A)) = Inner + lift(Der(A)), computed as a
    # span with no constraint assembly: the RREF of that span with its
    # columns reversed, reversed back, is the nullspace's free-variable basis
    a, m = pairs(name)
    ma, mm = mpairs(name, 4)
    big_a, big_m = ma.algebra, mm.bimodule
    gens = [inner_derivation(big_a, big_m, basis_vec(big_m.dim, p)).linmap.flatten()
            for p in range(big_m.dim)]
    gens += [lift(d, ma, mm).linmap.flatten() for d in derivation_space(a, m).basis]
    width = big_a.dim * big_m.dim
    span = Subspace.from_span([v[::-1] for v in gens], width)
    der = derspaces(name, 4).subspace
    assert tuple(v[::-1] for v in reversed(span.basis)) == der.basis
    assert tuple(width - 1 - p for p in reversed(span.pivot_cols)) == der.pivot_cols


def test_decompose_raises_when_recomposition_fails():
    # a forged "derivation" of M_2(Q) whose only nonzero entry, E22 -> E12,
    # is invisible to the witness and to the corner component: both parts
    # are zero, so the recomposition check must catch it
    f, fm = catalog("field")
    ma, mm = matrix_pair(f, fm, 2)
    cols = [zero_vec(4)] * 3 + [basis_vec(4, mm.flat(0, 1, 0))]
    forged = Derivation(LinearMap(Matrix.from_rows(zip(*cols))), ma.algebra, mm.bimodule)
    with pytest.raises(DecompositionError, match="recomposition failed"):
        decompose(forged, ma, mm)


def test_decompose_recomposition_with_cancelling_parts(mpairs):
    # on a noncommutative base, inner and lifted parts overlap and cancel
    rng = random.Random(5)
    ma, mm = mpairs("full_matrix_2", 3)
    cancelled = 0
    for trial in range(3):
        w = rand_elt(rng, mm.bimodule.dim)
        d = inner_derivation(ma.algebra, mm.bimodule, w)
        dec = decompose(d, ma, mm)
        for row_d, row_i, row_l in zip(d.matrix.entries, dec.inner_part.matrix.entries,
                                       dec.lifted_part.matrix.entries):
            assert vadd(row_i, row_l) == row_d
            cancelled += sum(1 for x, y, z in zip(row_d, row_i, row_l) if y and z and not x)
    assert cancelled, "want entries where the two parts cancel"


def _fraction_lincomb(terms, rows, cols):
    """The entries of sum c*m, summed entry by entry in Fractions."""
    return tuple(tuple(sum((F(c) * m.entries[i][j] for c, m in terms), F(0))
                       for j in range(cols)) for i in range(rows))


@pytest.mark.parametrize("name,n", (("dual_numbers", 3), ("full_matrix_2", 2),
                                    ("upper_triangular_2", 2)))
def test_integer_recomposition_matches_fraction_sum(name, n, pairs, mpairs, derspaces):
    # decompose's check, lincomb(D, -inner, -lift) == 0, against inner part +
    # lifted part summed in Fractions, on D equal to that sum or changed at
    # one entry, with mixed denominators
    ma, mm = mpairs(name, n)
    a, m = pairs(name)
    dim = ma.algebra.dim
    outcomes = set()
    for seed in range(8):
        rng = random.Random(f"recompose:{name}:{n}:{seed}")
        delta = LinearMap(Matrix.from_triples(m.dim, a.dim, ()))
        for b in derspaces(name).basis:
            delta = delta + b.linmap.scale(F(rng.randint(-3, 3), rng.choice((1, 5))))
        delta = certify(a, m, delta)
        w = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 7))) for _ in range(mm.bimodule.dim))
        inner = inner_derivation(ma.algebra, mm.bimodule, w).matrix
        lifted = lift(delta, ma, mm).matrix
        total = _fraction_lincomb(((1, inner), (1, lifted)), dim, dim)
        rows = [list(r) for r in total]
        if seed % 2:
            rows[rng.randrange(dim)][rng.randrange(dim)] += F(rng.choice((-1, 2)), 3)
        D = Matrix(dim, dim, tuple(map(tuple, rows)))
        terms = ((1, D), (-1, inner), (-1, lifted))
        residual = lincomb(terms, dim, dim)
        assert residual.is_zero() == (D.entries == total)
        outcomes.add(residual.is_zero())
        # zero coefficients, and two terms that cancel exactly
        other = ((0, D), (F(-2, 3), inner), (F(5, 7), lifted), (F(2, 3), inner), (0, lifted))
        for t, got in ((terms, residual), (other, lincomb(other, dim, dim))):
            assert got.entries == _fraction_lincomb(t, dim, dim)
            assert all(x for row in got.nonzeros for _, x in row)
    assert outcomes == {True, False}
    for wrong in (Matrix.from_triples(dim, dim - 1, ()),
                  Matrix.from_triples(dim + 1, dim, ())):
        for c in (1, 0):
            with pytest.raises(ValueError, match="shape mismatch"):
                lincomb(((1, D), (c, wrong)), dim, dim)


# every function that takes a derivation of a given pair: (call on a matrix
# pair, the (algebra_dim, module_dim) of the pair it checks the derivation
# against, the n of the dual_numbers derivation space of those dimensions)
GUARDED = {
    "lift": (lift, lambda ma, mm: (ma.base.dim, mm.base.dim), None),
    "component": (lambda D, ma, mm: component(D, ma, mm, 0, 1, 1, 0),
                  lambda ma, mm: (ma.algebra.dim, mm.bimodule.dim), 2),
    "decompose": (decompose, lambda ma, mm: (ma.algebra.dim, mm.bimodule.dim), 2),
    "verify_lemma22": (verify_lemma22, lambda ma, mm: (ma.algebra.dim, mm.bimodule.dim), 2),
    "transport": (
        lambda D, ma, mm: reblock_iso(ma.base, 2, 2).transport(D),
        lambda ma, mm: (16 * ma.base.dim,) * 2, 4),
    "perturbed_oracle": (lambda D, ma, mm: perturbed_oracle(D, "quadratic_block", ma, mm),
                         lambda ma, mm: (ma.algebra.dim, mm.bimodule.dim), 2),
    # the candidate against the pair of the oracle's own derivation
    "agreement_failures": (
        lambda D, ma, mm: agreement_failures(wrap_derivation(certify(
            ma.algebra, mm.bimodule,
            LinearMap(Matrix.from_triples(mm.bimodule.dim, ma.algebra.dim, ())))), D, ()),
        lambda ma, mm: (ma.algebra.dim, mm.bimodule.dim), 2),
}


@pytest.mark.parametrize("name", GUARDED)
def test_every_derivation_argument_is_guarded(name, mpairs, derspaces):
    call, dims, n = GUARDED[name]
    message = f"{name} requires a derivation certified on its pair"
    # a certified derivation of M_2(dual_numbers) against the M_3 pair
    ma3, mm3 = mpairs("dual_numbers", 3)
    with pytest.raises(ValueError, match=message):
        call(derspaces("dual_numbers", 2).basis[0], ma3, mm3)
    # certified derivations of the dual_numbers pair against the
    # group_algebra_C2 pair of the same dimensions.  pytest.raises(ValueError)
    # also rules out DecompositionError, which is no ValueError: it reports a
    # failed recomposition identity, not a derivation of the wrong pair
    assert not issubclass(DecompositionError, ValueError)
    ma, mm = mpairs("group_algebra_C2", 2)
    for D in derspaces("dual_numbers", n).basis:
        assert (D.algebra.dim, D.bimodule.dim) == dims(ma, mm)
        with pytest.raises(ValueError, match=message):
            call(D, ma, mm)


# ---------------------------------------------------------------------------
# the five component identities
# ---------------------------------------------------------------------------

def test_lemma22_passes_for_derivations(mpairs):
    ma, mm = mpairs("dual_numbers", 2)
    sp = derivation_space(ma.algebra, mm.bimodule)
    for d in sp.basis:
        report = verify_lemma22(d, ma, mm)
        assert report.passed
        assert [r.name for r in report.results] == ["i", "ii", "iii", "iv", "v"]
    # a map shaped for another pair cannot even be forged on this one
    for rows, cols in ((9, 9), (6, 6), (8, 7)):
        wrong = LinearMap(Matrix.from_triples(rows, cols, ()))
        with pytest.raises(ValueError, match="shape does not match"):
            Derivation(wrong, ma.algebra, mm.bimodule)


def test_lemma22_forged_transpose_fails(mpairs):
    # entrywise transpose on M_2(Q), wrapped with a forged certificate:
    # identities (i), (iv), (v) fail at the frozen counterexamples while
    # (ii) and (iii) happen to hold
    ma, mm = mpairs("field", 2)
    cols = []
    for i in range(2):
        for j in range(2):
            cols.append(basis_vec(4, ma.flat(j, i, 0)))
    forged = Derivation(LinearMap(Matrix.from_rows(zip(*cols))), ma.algebra, mm.bimodule)
    report = verify_lemma22(forged, ma, mm)
    assert not report.passed
    by_name = {r.name: r for r in report.results}
    assert not by_name["i"].passed and by_name["i"].counterexample == (0, 1, 1, 0)
    assert by_name["ii"].passed
    assert by_name["iii"].passed
    assert not by_name["iv"].passed and by_name["iv"].counterexample == (0, 0, 0)
    assert not by_name["v"].passed and by_name["v"].counterexample == (0, 1, 0, 0)


def test_lemma22_counterexample_layout(mpairs):
    # two one-entry maps on M_3(dual_numbers), forged as derivations: (ii)
    # reports (i, j, r, m, k) found in loop order i, r, j, m, k, and (iii)
    # reports (i, j, s, m, k) found in loop order j, s, i, m, k
    ma, mm = mpairs("dual_numbers", 3)
    dim = ma.algebra.dim
    rows = [[F(0)] * dim for _ in range(dim)]
    rows[mm.flat(0, 0, 1)][ma.flat(2, 0, 0)] = F(1)
    rows[mm.flat(0, 2, 0)][ma.flat(0, 1, 0)] = F(1)
    forged = Derivation(LinearMap(Matrix(dim, dim, tuple(map(tuple, rows)))),
                        ma.algebra, mm.bimodule)
    report = verify_lemma22(forged, ma, mm)
    assert {r.name: r.counterexample for r in report.results} == {
        "i": None, "ii": (0, 0, 2, 1, 0), "iii": (0, 2, 1, 0, 1),
        "iv": (0, 2, 0), "v": None}


def _unmemoized_lemma22(D, ma, mm):
    """verify_lemma22's five searches with every base action recomputed at
    each step, kept here as the reference for the memoized version."""
    d = ma.base.dim
    N, K = range(ma.n), range(d)
    comp = {(i, j, r, s): component(D, ma, mm, i, j, r, s)
            for i in N for j in N for r in N for s in N}
    of_unit = {key: c.apply(ma.base.unit) for key, c in comp.items()}
    cols = {key: list(zip(*c.matrix.entries)) for key, c in comp.items()}

    def act_basis(side, k, g):
        return act(mm.base, side, basis_vec(d, k), g)

    searches = (
        ("i", ((i, j, r, s) for i in N for j in N for r in N for s in N
               if i != r and j != s and not comp[(i, j, r, s)].is_zero())),
        ("ii", ((i, j, r, m_, k) for i in N for r in N if i != r
                for j in N for m_ in N for k in K
                if cols[(i, j, r, j)][k] != cols[(i, m_, r, m_)][k]
                or cols[(i, j, r, j)][k] != act_basis("right", k, of_unit[(i, m_, r, m_)]))),
        ("iii", ((i, j, s, m_, k) for j in N for s in N if j != s
                 for i in N for m_ in N for k in K
                 if cols[(i, j, i, s)][k] != cols[(m_, j, m_, s)][k]
                 or cols[(i, j, i, s)][k] != act_basis("left", k, of_unit[(m_, j, m_, s)]))),
        ("iv", ((i, j, m_) for i in N for j in N for m_ in N
                if of_unit[(i, m_, j, m_)] != tuple(-x for x in of_unit[(m_, j, m_, i)]))),
        ("v", ((i, j, m_, k) for i in N for j in N for m_ in N for k in K
               if cols[(i, j, i, j)][k] != vadd(
                   vsub(act_basis("right", k, of_unit[(i, m_, i, m_)]),
                        act_basis("left", k, of_unit[(j, m_, j, m_)])),
                   cols[(m_, m_, m_, m_)][k]))),
    )
    results = []
    for name, failures in searches:
        bad = next(failures, None)
        results.append(IdentityResult(name, bad is None, bad))
    return tuple(results)


def _component_targeting(rng, identity, n, unit):
    """A component (i, j | r, s) and base column k whose change breaks the
    given identity: both indices moved for (i), the row for (ii), the column
    for (iii), a unit value for (iv), a diagonal component for (v)."""
    i, r = rng.sample(range(n), 2)
    j, s = rng.sample(range(n), 2)
    k = rng.randrange(len(unit))
    if identity == "ii":
        s = j
    elif identity == "iii":
        r = i
    elif identity == "iv":
        s = j
        k = rng.choice([t for t, u in enumerate(unit) if u])
    elif identity == "v":
        r, s = i, j
    return i, j, r, s, k


@pytest.mark.parametrize("name", ("dual_numbers", "upper_triangular_2", "full_matrix_2",
                                  "rebased:dual_numbers", "rebased:upper_triangular_2",
                                  "rebased:full_matrix_2"))
@pytest.mark.parametrize("n", (2, 3))
def test_lemma22_matches_unmemoized_search(name, n, pairs, mpairs, derspaces):
    # seeded ad_W + lift(delta), unchanged or changed at one entry chosen to
    # break each identity in turn, forged as derivations.  A rebased pair
    # has a module table with denominators (L_m != 1) and a unit with
    # non-integral coordinates, so verify_lemma22's integer scales matter.
    base_name = name.removeprefix("rebased:")
    if name == base_name:
        ma, mm = mpairs(name, n)
        a, m = pairs(name)
        base = derspaces(name)
    else:
        a, m = pairs(base_name)
        a, m = rebase(a, m, [SCALES[(i + 4) % 6] for i in range(a.dim)],
                      [SCALES[(p + 3) % 6] for p in range(m.dim)])
        assert m.int_tables[0] != 1 and any(u.denominator != 1 for u in a.unit)
        ma, mm = matrix_pair(a, m, n)
        base = derivation_space(a, m)
    dim = ma.algebra.dim
    for seed, identity in enumerate((None, "i", "ii", "iii", "iv", "v") * 2):
        rng = random.Random(f"lemma22:{name}:{n}:{seed}")
        delta = LinearMap(Matrix.from_triples(m.dim, a.dim, ()))
        for b in base.basis:
            delta = delta + b.linmap.scale(F(rng.randint(-3, 3)))
        w = rand_elt(rng, mm.bimodule.dim)
        D = inner_derivation(ma.algebra, mm.bimodule, w).linmap + \
            lift(certify(a, m, delta), ma, mm).linmap
        rows = [list(r) for r in D.matrix.entries]
        if identity:
            i, j, r, s, k = _component_targeting(rng, identity, n, a.unit)
            rows[mm.flat(i, j, rng.randrange(m.dim))][ma.flat(r, s, k)] += \
                F(rng.choice((-2, 1, 3)), rng.choice((1, 2)))
        forged = Derivation(LinearMap(Matrix(dim, dim, tuple(map(tuple, rows)))),
                            ma.algebra, mm.bimodule)
        got = verify_lemma22(forged, ma, mm).results
        assert got == _unmemoized_lemma22(forged, ma, mm)
        failed = {r.name for r in got if not r.passed}
        assert (identity in failed) if identity else not failed


# ---------------------------------------------------------------------------
# relabeling: reblocking and the S_n conjugations
# ---------------------------------------------------------------------------

def test_reblock_iso_unital_and_multiplicative_sampled():
    rng = random.Random(3)
    f, _ = catalog("field")
    iso = reblock_iso(f, 3, 2)
    whole = matrix_algebra(f, 6)
    src = iso.source[0]
    tgt = iso.target[0]
    assert src == whole.algebra
    assert src.dim == 36 and tgt.dim == 36
    assert iso.apply(src.unit) == tgt.unit
    # frozen generator pair: E_{14} E_{45} = E_{15} in 0-based flat indices
    x = basis_vec(36, whole.flat(0, 3, 0))
    y = basis_vec(36, whole.flat(3, 4, 0))
    z = basis_vec(36, whole.flat(0, 4, 0))
    assert multiply(src, x, y) == z
    assert multiply(tgt, iso.apply(x), iso.apply(y)) == iso.apply(z)
    for trial in range(30):
        x = rand_elt(rng, 36)
        y = rand_elt(rng, 36)
        assert iso.apply(multiply(src, x, y)) == \
            multiply(tgt, iso.apply(x), iso.apply(y))
        assert iso.inverse(iso.apply(x)) == x


def test_reblock_needs_proper_factors():
    f, _ = catalog("field")
    with pytest.raises(ValueError):
        reblock_iso(f, 1, 2)
    with pytest.raises(ValueError):
        reblock_iso(f, 2, 1)


def test_reblock_iso_moves_basis_vectors_and_checks_lengths():
    f, _ = catalog("field")
    iso = reblock_iso(f, 2, 2)
    assert iso.mod == iso.alg
    for t in range(16):
        assert iso.apply(basis_vec(16, t)) == basis_vec(16, iso.alg[t])
        assert iso.inverse(basis_vec(16, iso.alg[t])) == basis_vec(16, t)
    with pytest.raises(ValueError, match="does not match source algebra"):
        iso.apply(zero_vec(15))
    with pytest.raises(ValueError, match="does not match target algebra"):
        iso.inverse(zero_vec(17))


def test_transport_derivation_conjugates():
    rng = random.Random(21)
    f, fm = catalog("field")
    iso = reblock_iso(f, 2, 2)
    src_a, src_m = iso.source
    d = inner_derivation(src_a, src_m, basis_vec(16, matrix_algebra(f, 4).flat(0, 1, 0)))
    moved = iso.transport(d)
    tgt = iso.target[0]
    assert (moved.algebra, moved.bimodule) == (tgt, regular_bimodule(tgt))
    for trial in range(10):
        x = rand_elt(rng, 16)
        assert moved.apply(iso.apply(x)) == iso.apply(d.apply(x))


def _conjugation(ma, mm, sigma):
    """x (x) E_ij -> x (x) E_sigma(i)sigma(j) on both spaces of a matrix
    pair, as a relabeling of the pair onto itself."""
    def perm(d):
        return tuple((sigma[i] * ma.n + sigma[j]) * d + k
                     for i in range(ma.n) for j in range(ma.n) for k in range(d))
    pair = (ma.algebra, mm.bimodule)
    return PairIso(pair, pair, perm(ma.base.dim), perm(mm.base.dim))


# the transposition (0 1) and the n-cycle i -> i+1 mod n, at n = 3
SIGMAS = {"(0 1)": (1, 0, 2), "3-cycle": (1, 2, 0)}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("name", CATALOG + ("column_module",))
def test_conjugation_moves_lifts_and_inner_derivations(name, sigma, mpairs, derspaces,
                                                       monkeypatch):
    if name == "column_module":               # dim M = 2, dim A = 3
        a, m = column_module()
        (ma, mm), base = matrix_pair(a, m, 3), derivation_space(a, m)
    else:
        (ma, mm), base = mpairs(name, 3), derspaces(name)
    iso = _conjugation(ma, mm, SIGMAS[sigma])
    assert (iso.mod == iso.alg) == (name != "column_module")
    rng = random.Random(7)
    ws = [rand_elt(rng, mm.bimodule.dim) for _ in range(2)]
    ws.append(mm.embed(basis_vec(mm.base.dim, 0), 0, 1))
    inner = [inner_derivation(ma.algebra, mm.bimodule, w) for w in ws]
    lifts = [lift(delta, ma, mm) for delta in base.basis]
    calls = []
    counted = dercalc.leibniz_failures

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)
    monkeypatch.setattr(dercalc, "leibniz_failures", counting)
    moved_lifts = [iso.transport(D) for D in lifts]
    moved_inner = [iso.transport(D) for D in inner]
    assert calls == []                           # the constructor is the certificate
    monkeypatch.undo()
    assert moved_lifts == lifts
    for w, moved in zip(ws, moved_inner):
        relabeled = [F(0)] * len(w)
        for p, x in zip(iso.mod, w):
            relabeled[p] = x
        assert moved == inner_derivation(ma.algebra, mm.bimodule, relabeled)
    for moved in moved_lifts + moved_inner:
        assert certify(*iso.target, moved.linmap) == moved


def test_relabeling_that_is_no_isomorphism_is_rejected(mpairs):
    message = "not an isomorphism of the pairs"
    # swapping the two base vectors 1, eps of the dual numbers
    pair = catalog("dual_numbers")
    with pytest.raises(ValueError, match=message):
        PairIso(pair, pair, (1, 0), (1, 0))
    # index lists that are no permutations of the bases
    for alg, mod in (((0, 0), (0, 1)), ((0, 1), (1,)), ((0, 1, 2), (0, 1))):
        with pytest.raises(ValueError, match=message):
            PairIso(pair, pair, alg, mod)
    # one cell of M_3(dual_numbers)'s module table changed: the transposition
    # (0 1), an automorphism of the true pair, no longer maps it onto the
    # changed one
    ma, mm = mpairs("dual_numbers", 3)
    iso = _conjugation(ma, mm, SIGMAS["(0 1)"])
    left = row_dicts(mm.bimodule.left_table)
    (q, c), = left[0][0]
    left[0][0] = ((q, 2 * c),)
    bad = Bimodule(mm.bimodule.dim, ma.algebra.dim,
                   tuple(tuple(sorted(row.items())) for row in left), mm.bimodule.right_table)
    with pytest.raises(ValueError, match=message):
        PairIso(iso.source, (ma.algebra, bad), iso.alg, iso.mod)


def test_relabeling_renames_each_distinct_table_once(monkeypatch):
    # a regular pair's algebra, left and right tables are one object, and a
    # reblocking moves algebra and module alike: one rename serves all three;
    # a relabeling of M_3 of the column module renames three distinct tables
    calls = []
    counted = matext._renamed

    def counting(*args):
        calls.append(args)
        return counted(*args)
    monkeypatch.setattr(matext, "_renamed", counting)
    reblock_iso(catalog("full_matrix_2")[0], 2, 2)
    assert len(calls) == 1
    calls.clear()
    ma, mm = matrix_pair(*column_module(), 3)
    _conjugation(ma, mm, SIGMAS["3-cycle"])
    assert len(calls) == 3


def test_jordan_basis_is_refused_as_a_derivation_of_the_pair():
    # each Jordan basis map is certified on the Jordan pair, so the pair
    # guard refuses it where a derivation of the pair itself is required,
    # even where the two bases hold the same matrix
    a, m = catalog("dual_numbers")
    (j,), (d,) = jordan_derivation_space(a, m).basis, derivation_space(a, m).basis
    assert j.matrix == d.matrix
    ma, mm = matrix_pair(a, m, 2)
    with pytest.raises(ValueError, match="lift requires a derivation certified on its pair"):
        lift(j, ma, mm)
    lifted = lift(d, ma, mm)
    assert (lifted.algebra, lifted.bimodule) == (ma.algebra, mm.bimodule)
