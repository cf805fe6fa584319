"""2-local derivation oracles: pair interpolation, the two-query
reconstruction and its documented blind spot, negative controls, and the
central-idempotent compatibility check."""

import random
from fractions import Fraction as F

import pytest

from matderiv import (Bimodule, Derivation, LinearMap, Matrix, NotTwoLocalError,
                      Subspace, TwoLocalOracle, agreement_failures, basis_vec,
                      canonical_S_T, catalog, central_idempotent_compat,
                      certify, derivation_space, inner_derivation, lift, matrix_pair,
                      member, nullspace, pair_witness, perturbed_oracle,
                      reconstruct, seeded_elements, vadd,
                      verify_2local_property, vscale, wrap_derivation,
                      zero_vec)

from conftest import CATALOG


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_seeded_elements_deterministic():
    a = seeded_elements(4, 10, 42)
    b = seeded_elements(4, 10, 42)
    assert a == b
    assert len(a) == 10 and all(len(v) == 4 for v in a)
    other = seeded_elements(4, 10, 43)
    assert a != other
    for v in a:
        for c in v:
            assert -9 <= c.numerator <= 9 * 3
            assert c.denominator in (1, 2, 3)


def test_seeded_elements_defaults():
    assert len(seeded_elements(2)) == 100


def test_seeded_elements_pinned():
    # frozen draws: the value table must not change which samples come out
    assert seeded_elements(4, 10, 42)[:3] == [
        (F(-6), F(-1), F(-2), F(-2)),
        (F(8), F(9, 2), F(-8), F(-7)),
        (F(-2, 3), F(-3), F(-1), F(4))]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_wrap_derivation_logs_queries():
    a, m = catalog("full_matrix_2")
    d = inner_derivation(a, m, basis_vec(4, 0))
    orc = wrap_derivation(d)
    x = basis_vec(4, 1)
    y = orc.evaluate(x)
    assert y == d.apply(x)
    assert orc.query_log == [(x, y)]
    assert orc.query_count == 1


def test_perturbed_oracle_kinds(mpairs):
    ma, mm = mpairs("field", 2)
    d = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    with pytest.raises(ValueError):
        perturbed_oracle(d, "no_such_kind", ma, mm)

    quad = perturbed_oracle(d, "quadratic_block", ma, mm)
    x = vscale(F(3), basis_vec(4, ma.flat(0, 1, 0)))
    got = quad.evaluate(x)
    want = list(d.apply(x))
    want[mm.flat(0, 1, 0)] += F(9)
    assert got == tuple(want), "t=3 adds t^2=9 into the (1,2) block"
    assert quad.evaluate(zero_vec(4)) == zero_vec(4)

    flip = perturbed_oracle(d, "sign_flip_offdiag", ma, mm)
    neg = vscale(F(-1), x)
    assert flip.evaluate(neg) == vscale(F(-1), d.apply(neg))
    assert flip.evaluate(x) == d.apply(x)


# ---------------------------------------------------------------------------
# canonical separating pair
# ---------------------------------------------------------------------------

def test_canonical_S_T_frozen(mpairs):
    ma, _ = mpairs("field", 2)
    s, t = canonical_S_T(ma)
    assert s == (F(1), F(0), F(0), F(2))
    assert t == (F(0), F(1), F(0), F(0))

    ma3, _ = mpairs("field", 3)
    s3, t3 = canonical_S_T(ma3)
    want_s = zero_vec(9)
    for i in range(3):
        want_s = vadd(want_s, vscale(F(i + 1), ma3.embed((F(1),), i, i)))
    want_t = vadd(ma3.embed((F(1),), 0, 1), ma3.embed((F(1),), 1, 2))
    assert s3 == want_s and t3 == want_t


# ---------------------------------------------------------------------------
# pair interpolation
# ---------------------------------------------------------------------------

def test_pair_witness_frozen_example(mpairs, derspaces):
    # dx = 0 at S and dy = E12 at T pin the derivation to delta_{E11}
    ma, mm = mpairs("field", 2)
    sp = derspaces("field", 2)
    s, t = canonical_S_T(ma)
    e12 = basis_vec(4, ma.flat(0, 1, 0))
    rep = pair_witness(sp, s, t, zero_vec(4), e12)
    assert rep.feasible
    want = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    assert (rep.witness.algebra, rep.witness.bimodule) == (sp.algebra, sp.bimodule)
    assert rep.witness.matrix == want.matrix


def test_pair_witness_infeasible(mpairs, derspaces):
    # no derivation of M_2(Q) maps the idempotent E11 to E11
    ma, _ = mpairs("field", 2)
    sp = derspaces("field", 2)
    e11 = basis_vec(4, 0)
    rep = pair_witness(sp, e11, zero_vec(4), e11, zero_vec(4))
    assert not rep.feasible and rep.witness is None


def test_pair_witness_interpolates_random(mpairs, derspaces):
    rng = random.Random(31)
    ma, mm = mpairs("dual_numbers", 2)
    sp = derspaces("dual_numbers", 2)
    for trial in range(10):
        coeffs = [F(rng.randint(-4, 4)) for _ in sp.basis]
        lin = LinearMap(Matrix.from_triples(mm.bimodule.dim, ma.algebra.dim, ()))
        for c, b in zip(coeffs, sp.basis):
            lin = lin + b.linmap.scale(c)
        d = Derivation(lin, ma.algebra, mm.bimodule)
        x, y = seeded_elements(ma.algebra.dim, 2, 100 + trial)
        rep = pair_witness(sp, x, y, d.apply(x), d.apply(y))
        assert rep.feasible
        assert rep.witness.apply(x) == d.apply(x)
        assert rep.witness.apply(y) == d.apply(y)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_exact_when_base_has_no_derivations(mpairs, derspaces):
    for name, n in (("field", 2), ("field", 3)):
        ma, _ = mpairs(name, n)
        sp = derspaces(name, n)
        for d in sp.basis:
            orc = wrap_derivation(d)
            got = reconstruct(orc, sp, ma)
            assert orc.query_count == 2
            assert got.matrix == d.matrix
            s, t = canonical_S_T(ma)
            assert orc.query_log[0][0] == s and orc.query_log[1][0] == t


def test_reconstruct_dual_numbers_known_gap(mpairs, derspaces):
    # Der(M_2(dual)) is 7-dimensional and contains the lifted base
    # derivation, which vanishes at both S and T; the evaluation-at-(S,T)
    # map therefore has a 1-dimensional kernel and the canonical solve
    # recovers six of the seven basis elements exactly
    ma, mm = mpairs("dual_numbers", 2)
    sp = derspaces("dual_numbers", 2)
    base = derivation_space(*catalog("dual_numbers"))
    dlift = lift(base.basis[0], ma, mm)
    assert sp.dim == 7

    s, t = canonical_S_T(ma)
    assert dlift.apply(s) == zero_vec(mm.bimodule.dim)
    assert dlift.apply(t) == zero_vec(mm.bimodule.dim)

    outcomes = []
    for d in sp.basis:
        got = reconstruct(wrap_derivation(d), sp, ma)
        outcomes.append(got.matrix == d.matrix)
    assert outcomes == [True] * 6 + [False]

    # the failed element reconstructs to -basis[1]: its mismatch is exactly
    # the lifted derivation, invisible at (S, T)
    got6 = reconstruct(wrap_derivation(sp.basis[6]), sp, ma)
    assert got6.matrix == sp.basis[1].linmap.scale(F(-1)).matrix
    diff = sp.basis[6].linmap - got6.linmap
    assert diff.matrix == dlift.matrix
    # agreement holds at S, T and at every unit block, and breaks at an
    # eps-supported input
    for probe in (s, t):
        assert got6.apply(probe) == sp.basis[6].apply(probe)
    a = catalog("dual_numbers")[0]
    for i in range(2):
        for j in range(2):
            u = ma.embed(a.unit, i, j)
            assert got6.apply(u) == sp.basis[6].apply(u)
    eps_block = ma.embed(basis_vec(2, 1), 0, 0)
    assert got6.apply(eps_block) != sp.basis[6].apply(eps_block)


def test_reconstruct_pure_lift_yields_zero(mpairs, derspaces):
    # the lift itself evaluates to zero at both queries, so the homogeneous
    # solve returns the zero derivation; sampling is what exposes the loss
    ma, mm = mpairs("dual_numbers", 2)
    sp = derspaces("dual_numbers", 2)
    base = derivation_space(*catalog("dual_numbers"))
    dlift = lift(base.basis[0], ma, mm)
    orc = wrap_derivation(dlift)
    got = reconstruct(orc, sp, ma)
    assert got.matrix.is_zero()
    bad = agreement_failures(orc, got, seeded_elements(ma.algebra.dim, 20, 5))
    assert bad, "sampling must catch the lost lift"


def test_evaluation_kernel_is_lift_line(mpairs, derspaces):
    ma, mm = mpairs("dual_numbers", 2)
    sp = derspaces("dual_numbers", 2)
    base = derivation_space(*catalog("dual_numbers"))
    dlift = lift(base.basis[0], ma, mm)
    s, t = canonical_S_T(ma)
    md = mm.bimodule.dim
    rows = [tuple(b.apply(s)[r] for b in sp.basis) for r in range(md)]
    rows += [tuple(b.apply(t)[r] for b in sp.basis) for r in range(md)]
    ker = nullspace(Matrix(2 * md, sp.dim, tuple(rows)))
    assert ker.dim == 1
    # the kernel direction is the coordinate vector of the lift: basis[1]
    # and basis[6] sum to it
    assert ker.basis[0] == (F(0), F(1), F(0), F(0), F(0), F(0), F(1))
    combined = sp.basis[1].linmap + sp.basis[6].linmap
    assert combined.matrix == dlift.matrix


# the five fixed catalog algebras, and a direct sum whose Der is nonzero
_BLIND_SPOT_NAMES = ("field", "dual_numbers", "group_algebra_C2", "full_matrix_2",
                     "upper_triangular_2", "direct_sum(dual_numbers,field)")


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", _BLIND_SPOT_NAMES)
def test_evaluation_kernel_is_the_lifted_base_space(name, n, mpairs, derspaces):
    """The two-query blind spot in closed form: the derivations of the
    matrix pair that vanish at both S and T are exactly lift(Der(A, M)),
    compared as canonical flattened subspaces."""
    ma, mm = mpairs(name, n)
    sp = derspaces(name, n)
    s, t = canonical_S_T(ma)
    rows = tuple(zip(*(b.apply(s) + b.apply(t) for b in sp.basis)))
    ker = nullspace(Matrix(2 * mm.bimodule.dim, sp.dim, rows))
    flat = [b.linmap.flatten() for b in sp.basis]
    width = mm.bimodule.dim * ma.algebra.dim
    blind = Subspace.from_span([tuple(sum((c * f[i] for c, f in zip(v, flat)), F(0))
                                      for i in range(width)) for v in ker.basis], width)
    base = derspaces(name)
    lifted = Subspace.from_span([lift(delta, ma, mm).linmap.flatten()
                                 for delta in base.basis], width)
    assert blind == lifted
    assert blind.dim == base.dim


def test_reconstruct_raises_not_two_local(mpairs, derspaces):
    ma, _ = mpairs("field", 2)
    sp = derspaces("field", 2)
    constant = TwoLocalOracle(lambda x: basis_vec(4, 0))
    with pytest.raises(NotTwoLocalError) as err:
        reconstruct(constant, sp, ma)
    s, t = canonical_S_T(ma)
    assert err.value.s_pair == (s, basis_vec(4, 0))
    assert err.value.t_pair == (t, basis_vec(4, 0))


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def test_quadratic_block_control(mpairs, derspaces):
    ma, mm = mpairs("field", 2)
    sp = derspaces("field", 2)
    d0 = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    orc = perturbed_oracle(d0, "quadratic_block", ma, mm)
    cand = reconstruct(orc, sp, ma)
    # feasible at (S, T) because the distortion vanishes at S; but the
    # candidate is pulled off the honest derivation
    assert cand.matrix != d0.matrix
    bad = agreement_failures(orc, cand, seeded_elements(4, 100, 42))
    assert len(bad) == 99
    assert bad[:3] == [0, 1, 2]


def test_quadratic_block_fails_pairs(mpairs, derspaces):
    ma, mm = mpairs("field", 2)
    sp = derspaces("field", 2)
    d0 = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    pairs_list = list(zip(seeded_elements(4, 6, 7), seeded_elements(4, 6, 8)))
    bad = verify_2local_property(
        perturbed_oracle(d0, "quadratic_block", ma, mm), sp, pairs_list)
    assert len(bad) == 6
    assert all(not rep.feasible for rep in bad)
    good = verify_2local_property(wrap_derivation(d0), sp, pairs_list)
    assert good == []


def test_sign_flip_control(mpairs, derspaces):
    # S and T both have nonnegative trigger coordinate, so reconstruction
    # returns the honest derivation; sampling catches the flipped outputs
    ma, mm = mpairs("field", 2)
    sp = derspaces("field", 2)
    d0 = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    orc = perturbed_oracle(d0, "sign_flip_offdiag", ma, mm)
    cand = reconstruct(orc, sp, ma)
    assert cand.matrix == d0.matrix
    bad = agreement_failures(orc, cand, seeded_elements(4, 100, 42))
    assert len(bad) == 54
    assert bad[:3] == [0, 2, 4]


def _fraction_apply(matrix, x):
    """Independent evaluation: one Fraction product and sum per nonzero
    entry of the dense rows."""
    return tuple(sum((a * c for a, c in zip(row, x) if a), F(0))
                 for row in matrix.entries)


@pytest.mark.parametrize("name,n", [("full_matrix_2", 2), ("dual_numbers", 3)])
def test_agreement_indices_match_fraction_evaluation(mpairs, derspaces, name, n):
    # every disagreement index of three failing oracles equals the one an
    # evaluation in plain Fraction arithmetic gives, sample by sample
    ma, mm = mpairs(name, n)
    sp = derspaces(name, n)
    dim = ma.algebra.dim
    # an inner derivation as (S, T) sees it, so the flip alone is caught
    w = seeded_elements(mm.bimodule.dim, 1, 3)[0]
    d0 = reconstruct(wrap_derivation(inner_derivation(ma.algebra, mm.bimodule, w)),
                     sp, ma)
    # the lift of a base derivation vanishes at S and T: a blind spot of the
    # two queries (non-inner for dual_numbers, inner for full_matrix_2)
    dlift = lift(derivation_space(*catalog(name)).basis[0], ma, mm)
    blind = Derivation(d0.linmap + dlift.linmap, ma.algebra, mm.bimodule)
    t_col, out_pos = ma.flat(0, 1, 0), mm.flat(0, 1, 0)

    def flipped(x):
        y = _fraction_apply(d0.matrix, x)
        return tuple(-c for c in y) if x[t_col] < 0 else y

    def quadratic(x):
        y = list(_fraction_apply(d0.matrix, x))
        y[out_pos] += x[t_col] * x[t_col]
        return tuple(y)

    cases = (
        (perturbed_oracle(d0, "sign_flip_offdiag", ma, mm), flipped),
        (perturbed_oracle(d0, "quadratic_block", ma, mm), quadratic),
        (wrap_derivation(blind), lambda x: _fraction_apply(blind.matrix, x)))
    samples = seeded_elements(dim, 150, 17) + [basis_vec(dim, t) for t in range(dim)]
    for oracle, reference in cases:
        cand = reconstruct(oracle, sp, ma)
        bad = agreement_failures(oracle, cand, samples)
        want = [idx for idx, x in enumerate(samples)
                if reference(x) != _fraction_apply(cand.matrix, x)]
        assert bad == want, oracle.label
        assert 0 < len(bad) < len(samples), oracle.label


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", CATALOG)
def test_difference_map_verdict_matches_fraction_evaluation(mpairs, derspaces, name, n):
    # a wrapped oracle is decided on L - cand without queries; its indices
    # must be those of a per-sample Fraction evaluation, for every basis
    # derivation (mostly L = cand; dual_numbers has lifted, blind ones) and
    # one with an added lift, on seeded, Fraction basis and int basis samples
    ma, mm = mpairs(name, n)
    sp = derspaces(name, n)
    dim = ma.algebra.dim
    samples = (seeded_elements(dim, 12, 5) + [basis_vec(dim, t) for t in range(dim)]
               + [tuple(int(s == t) for s in range(dim)) for t in range(dim)])
    dlift = [lift(b, ma, mm) for b in derivation_space(*catalog(name)).basis]
    oracles = [wrap_derivation(d) for d in sp.basis]
    if dlift:
        # basis 0 plus the lift of a base derivation, which S and T miss
        blind = Derivation(sp.basis[0].linmap + dlift[-1].linmap, ma.algebra, mm.bimodule)
        oracles.append(wrap_derivation(blind))
    differences, missed = set(), []
    for oracle in oracles:
        cand = reconstruct(oracle, sp, ma)
        ref = oracle.derivation.matrix
        missed.append(ref != cand.matrix)
        # the reconstruction, and the first basis derivation as a candidate
        # whose difference has nonzero rows of every kind
        for d in (cand, sp.basis[0]):
            bad = agreement_failures(oracle, d, samples)
            want = [idx for idx, x in enumerate(samples)
                    if _fraction_apply(ref, x) != _fraction_apply(d.matrix, x)]
            assert bad == want
            differences.add(len(want))
        assert oracle.query_count == 2
    # zero and nonzero differences are both met; the reconstruction misses a
    # lifted component (at least the added one) wherever the base has
    # derivations
    assert 0 in differences and len(differences) > 1
    assert any(missed) == bool(dlift)


def test_difference_map_reads_every_entry(mpairs, derspaces):
    # a candidate that differs from a wrapped oracle in the one entry (r, c)
    # disagrees exactly on the samples whose coordinate c is nonzero
    ma, mm = mpairs("dual_numbers", 2)
    d = derspaces("dual_numbers", 2).basis[0]
    dim, md = ma.algebra.dim, mm.bimodule.dim
    samples = [basis_vec(dim, t) for t in range(dim)] + seeded_elements(dim, 20, 2)
    for r in range(md):
        for c in range(dim):
            unit = LinearMap(Matrix.from_triples(md, dim, ((r, c, F(-1, 2)),)))
            cand = Derivation(d.linmap + unit, ma.algebra, mm.bimodule)
            want = [idx for idx, x in enumerate(samples) if x[c]]
            assert agreement_failures(wrap_derivation(d), cand, samples) == want


def test_query_accounting(mpairs, derspaces):
    # a wrapped oracle is queried at S and T only; a perturbed one once more
    # per sample; with a zero difference the samples are never read
    ma, mm = mpairs("dual_numbers", 2)
    sp = derspaces("dual_numbers", 2)
    dim = ma.algebra.dim
    samples = seeded_elements(dim, 30, 9)
    d = sp.basis[6]
    wrapped = wrap_derivation(d)
    cand = reconstruct(wrapped, sp, ma)
    assert cand.matrix != d.matrix     # basis 6 carries a lifted component
    assert agreement_failures(wrapped, cand, samples)
    assert wrapped.query_count == 2
    for kind in ("quadratic_block", "sign_flip_offdiag"):
        orc = perturbed_oracle(sp.basis[0], kind, ma, mm)
        agreement_failures(orc, reconstruct(orc, sp, ma), samples)
        assert orc.query_count == 2 + len(samples), kind

    def unreadable():
        raise AssertionError("a sample was read")
        yield

    honest = wrap_derivation(sp.basis[0])
    cand = reconstruct(honest, sp, ma)
    assert cand.matrix == sp.basis[0].matrix
    assert agreement_failures(honest, cand, unreadable()) == []
    assert honest.query_count == 2


def test_agreement_rejects_a_candidate_of_another_pair(mpairs):
    # the zero map of M_2(dual_numbers) into the regular bimodule against the
    # certified zero derivation into M_2 of the character module (e0 -> 1,
    # eps -> 0): every sample used to be reported as a disagreement
    ma, mm = mpairs("dual_numbers", 2)
    base, _ = catalog("dual_numbers")
    character = Bimodule.from_sparse(1, 2, {(0, 0, 0): F(1)}, {(0, 0, 0): F(1)})
    cma, cmm = matrix_pair(base, character, 2)
    other = certify(cma.algebra, cmm.bimodule,
                    LinearMap(Matrix.from_triples(cmm.bimodule.dim, cma.algebra.dim, ())))
    zero = certify(ma.algebra, mm.bimodule,
                   LinearMap(Matrix.from_triples(mm.bimodule.dim, ma.algebra.dim, ())))
    samples = seeded_elements(ma.algebra.dim, 5, 1)
    guarded = "agreement_failures requires a derivation certified on its pair"
    cases = ((wrap_derivation(zero), guarded),
             (perturbed_oracle(zero, "quadratic_block", ma, mm), guarded),
             (TwoLocalOracle(lambda x: zero_vec(mm.bimodule.dim)), "wrong dimension"))
    for oracle, message in cases:
        with pytest.raises(ValueError, match=message):
            agreement_failures(oracle, other, samples)


# ---------------------------------------------------------------------------
# central idempotent compatibility
# ---------------------------------------------------------------------------

def _component_idempotents(mads, ads):
    e_first = zero_vec(mads.algebra.dim)
    e_second = zero_vec(mads.algebra.dim)
    for i in range(2):
        e_first = vadd(e_first, mads.embed(basis_vec(2, 0), i, i))
        e_second = vadd(e_second, mads.embed(basis_vec(2, 1), i, i))
    return e_first, e_second


def test_central_idempotent_compat_honest(mpairs):
    mads, mmds = mpairs("direct_sum(field,field)", 2)
    ads, _ = catalog("direct_sum(field,field)")
    sp = derivation_space(mads.algebra, mmds.bimodule)
    assert sp.dim == 6
    samples = seeded_elements(mads.algebra.dim, 25, 11)
    for e in _component_idempotents(mads, ads):
        for d in sp.basis:
            bad = central_idempotent_compat(
                wrap_derivation(d), mads.algebra, mmds.bimodule, e, samples)
            assert bad == []


def test_central_idempotent_compat_catches_flip(mpairs):
    # the flip trigger reads a first-component coordinate; the
    # second-component idempotent kills it on one side only
    mads, mmds = mpairs("direct_sum(field,field)", 2)
    ads, _ = catalog("direct_sum(field,field)")
    _, e_second = _component_idempotents(mads, ads)
    w = mads.embed(basis_vec(2, 1), 0, 0)
    d = inner_derivation(mads.algebra, mmds.bimodule, w)
    samples = seeded_elements(mads.algebra.dim, 40, 11)
    flip = perturbed_oracle(d, "sign_flip_offdiag", mads, mmds)
    bad = central_idempotent_compat(flip, mads.algebra, mmds.bimodule,
                                    e_second, samples)
    assert len(bad) == 23
    assert bad[:5] == [3, 4, 6, 8, 9]


def test_central_idempotent_compat_blind_spot(mpairs):
    # a first-component derivation is killed by the second-component
    # idempotent on both sides, so even the flipped oracle shows no
    # violation: the check is only as strong as the derivation it rides on
    mads, mmds = mpairs("direct_sum(field,field)", 2)
    ads, _ = catalog("direct_sum(field,field)")
    _, e_second = _component_idempotents(mads, ads)
    w = mads.embed(basis_vec(2, 0), 0, 0)
    d = inner_derivation(mads.algebra, mmds.bimodule, w)
    samples = seeded_elements(mads.algebra.dim, 40, 11)
    flip = perturbed_oracle(d, "sign_flip_offdiag", mads, mmds)
    bad = central_idempotent_compat(flip, mads.algebra, mmds.bimodule,
                                    e_second, samples)
    assert bad == []


def test_central_idempotent_hypotheses_enforced(mpairs):
    mads, mmds = mpairs("direct_sum(field,field)", 2)
    ads, _ = catalog("direct_sum(field,field)")
    e_first, _ = _component_idempotents(mads, ads)
    d = inner_derivation(mads.algebra, mmds.bimodule,
                         mads.embed(basis_vec(2, 0), 0, 0))
    samples = seeded_elements(mads.algebra.dim, 5, 1)
    with pytest.raises(ValueError, match="not idempotent"):
        central_idempotent_compat(wrap_derivation(d), mads.algebra,
                                  mmds.bimodule, vscale(F(2), e_first),
                                  samples)
    with pytest.raises(ValueError, match="not central"):
        central_idempotent_compat(wrap_derivation(d), mads.algebra,
                                  mmds.bimodule,
                                  mads.embed(ads.unit, 0, 0), samples)
