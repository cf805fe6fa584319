"""Acceptance suite: twelve exact-arithmetic criteria, one test per criterion,
each with a wall-clock budget.  Everything is checked at zero tolerance since
all arithmetic is rational.

Criterion 9 is expected to fail on exactly one subcase and is left failing on
purpose: reconstruction from the two canonical query points cannot see
entrywise-lifted components, because those vanish at both points (they are
rational matrices and lifted maps kill the rational part).  The test states
the full agreement requirement and reports the gap instead of masking it.
"""

import random
import time
from fractions import Fraction as F

import pytest

from matderiv import (Algebra, Bimodule, LinearMap, Matrix, act, agreement_failures,
                      basis_vec, canonical_S_T, catalog, central_idempotent_compat,
                      certify, commutes, decompose, derivation_space,
                      inner_derivation, lift, matrix_pair, multiply, nullspace,
                      perturbed_oracle, reblock_iso, reconstruct, same_space,
                      seeded_elements, vadd, verify_lemma22, wrap_derivation,
                      validate_algebra, validate_bimodule, Subspace)
from matderiv.dercalc import Derivation
from matderiv.twolocal import NotTwoLocalError

from conftest import CATALOG, dense_to_triples, swap_outer, table_triples
from oracles import (commutant_dim_oracle, derivation_dim_oracle,
                     h1_dim_oracle, inner_dim_oracle)


def _within(t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"budget exceeded: {elapsed:.2f}s >= {limit}s"


def test_criterion_01_validation(pairs):
    # all six catalog pairs validate; the three documented tamperings are
    # rejected with the right axiom and offending tuple
    t0 = time.perf_counter()
    for name in CATALOG:
        a, m = pairs(name)
        assert validate_algebra(a) == [], name
        assert validate_bimodule(a, m) == [], name

    # 1*eps tampered to 2*eps: left unit law breaks at basis index 1
    a, _ = pairs("dual_numbers")
    mult = dense_to_triples(a.mult)
    mult[(0, 1, 1)] = F(2)
    v = validate_algebra(Algebra.from_sparse(a.dim, a.labels, a.unit, mult))
    assert v and (v[0].axiom, v[0].indices) == ("left unit law", (1,))

    # unit row of the left action scaled by 2: unit action breaks
    a, m = pairs("dual_numbers")
    left = {(i, p, q): 2 * c if i == 0 else c
            for (i, p, q), c in table_triples(m.left_table).items()}
    v = validate_bimodule(a, Bimodule.from_sparse(m.dim, m.algebra_dim, left,
                                                  table_triples(m.right_table)))
    assert v and (v[0].axiom, v[0].indices) == ("left unit action", (0,))

    # swapped actions on the regular bimodule of full_matrix_2: the
    # documented exhibit triple (E12, E21, E11) violates left associativity
    a, m = pairs("full_matrix_2")
    new_left = swap_outer(table_triples(m.right_table))
    new_right = swap_outer(table_triples(m.left_table))
    v = validate_bimodule(a, Bimodule.from_sparse(m.dim, m.algebra_dim,
                                                  new_left, new_right))
    assert ("left associativity", (1, 2, 0)) in [(x.axiom, x.indices)
                                                 for x in v]
    _within(t0, 1)


def test_criterion_02_dimension_oracle(pairs, derspaces, innerspaces):
    # brute-force oracle dims (independent elimination over a spanning set)
    # match the frozen table, and the package agrees with the oracle
    t0 = time.perf_counter()
    expected = {"field": (0, 0, 0),
                "dual_numbers": (1, 0, 1),
                "group_algebra_C2": (0, 0, 0),
                "full_matrix_2": (3, 3, 0),
                "upper_triangular_2": (2, 2, 0)}
    for name, (der, inner, h1) in expected.items():
        a, m = pairs(name)
        assert derivation_dim_oracle(a, m) == der, name
        assert inner_dim_oracle(a, m) == inner, name
        assert h1_dim_oracle(a, m) == h1, name
        assert derspaces(name).dim == der, name
        assert innerspaces(name).image.dim == inner, name
    _within(t0, 2)


def test_criterion_03_decompose_round_trip(mpairs, derspaces):
    # decompose then recompose every derivation-space basis element of the
    # five listed matrix pairs; the residual is identically zero on all
    # basis inputs and the parts match their witnesses
    t0 = time.perf_counter()
    cases = (("field", 2), ("field", 3), ("dual_numbers", 2),
             ("dual_numbers", 3), ("group_algebra_C2", 2))
    for name, n in cases:
        ma, mm = mpairs(name, n)
        space = derspaces(name, n)
        for d in space.basis:
            dec = decompose(d, ma, mm)
            recomposed = dec.inner_part.linmap + dec.lifted_part.linmap
            for t in range(ma.algebra.dim):
                x = basis_vec(ma.algebra.dim, t)
                assert recomposed.apply(x) == d.apply(x), (name, n, t)
            witness_route = inner_derivation(ma.algebra, mm.bimodule,
                                             dec.witness)
            assert witness_route.matrix == dec.inner_part.matrix
            assert lift(dec.delta, ma, mm).matrix == dec.lifted_part.matrix
    _within(t0, 60)


def test_criterion_04_decompose_uniqueness(mpairs, derspaces):
    # 50 seeded (B', delta') pairs over the commutative base: the returned
    # parts are operator-equal to the parts that built the derivation
    t0 = time.perf_counter()
    ma, mm = mpairs("dual_numbers", 2)
    base = derspaces("dual_numbers")
    assert base.dim == 1
    rng = random.Random(42)
    for trial in range(50):
        b_prime = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                        for _ in range(mm.bimodule.dim))
        c = F(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        delta_prime = Derivation(base.basis[0].linmap.scale(c),
                                 base.algebra, base.bimodule)
        part_inner = inner_derivation(ma.algebra, mm.bimodule, b_prime)
        part_lift = lift(delta_prime, ma, mm)
        D = certify(ma.algebra, mm.bimodule,
                    part_inner.linmap + part_lift.linmap)
        dec = decompose(D, ma, mm)
        assert dec.inner_part.matrix == part_inner.matrix, trial
        assert dec.lifted_part.matrix == part_lift.matrix, trial
    _within(t0, 10)


def test_criterion_05_decompose_non_uniqueness(pairs):
    # noncommutative base: a non-central diagonal witness whose inner
    # derivation equals a nonzero lifted derivation, so the splitting is
    # not unique without commutativity
    t0 = time.perf_counter()
    a, m = pairs("full_matrix_2")
    ma, mm = matrix_pair(a, m, 2)
    w = basis_vec(4, 1)   # E12
    x = basis_vec(4, 0)   # E11
    assert act(m, "right", x, w) != act(m, "left", x, w)
    big = vadd(mm.embed(w, 0, 0), mm.embed(w, 1, 1))
    inner_big = inner_derivation(ma.algebra, mm.bimodule, big)
    zeta_cols = [tuple(l - r for l, r in zip(act(m, "right", basis_vec(4, k), w),
                                             act(m, "left", basis_vec(4, k), w)))
                 for k in range(4)]
    zeta = certify(a, m, LinearMap(Matrix.from_rows(zip(*zeta_cols))))
    lifted = lift(zeta, ma, mm)
    assert inner_big.matrix == lifted.matrix
    assert not inner_big.matrix.is_zero()
    _within(t0, 1)


def test_criterion_06_component_identities(mpairs, derspaces):
    # all five component identities hold for every derivation-space basis
    # element of the n=2 and n=3 dual-number pairs; a forged entrywise
    # transpose fails at least one identity
    t0 = time.perf_counter()
    for n in (2, 3):
        ma, mm = mpairs("dual_numbers", n)
        for idx, d in enumerate(derspaces("dual_numbers", n).basis):
            report = verify_lemma22(d, ma, mm)
            assert report.passed, (n, idx, [r for r in report.results
                                            if not r.passed])

    ma, mm = mpairs("dual_numbers", 2)
    dim = ma.algebra.dim
    cols = [basis_vec(dim, ma.flat(j, i, k))
            for i in range(2) for j in range(2) for k in range(ma.base.dim)]
    forged = Derivation(LinearMap(Matrix.from_rows(zip(*cols))), ma.algebra, mm.bimodule)
    report = verify_lemma22(forged, ma, mm)
    assert not report.passed
    outcomes = {r.name: r.counterexample for r in report.results
                if not r.passed}
    assert outcomes == {"i": (0, 1, 1, 0), "iv": (0, 0, 0),
                        "v": (0, 1, 0, 0)}
    _within(t0, 20)


def test_criterion_07_h1_dichotomy(pairs, mpairs, derspaces, innerspaces):
    # h1 vanishes at the base exactly when it vanishes at the matrix level,
    # for every catalog pair and n in {2, 3}; for commutative bases this is
    # the statement "every matrix-level derivation is inner iff every base
    # derivation is zero"
    t0 = time.perf_counter()
    for name in CATALOG:
        a, m = pairs(name)
        h1_base = derspaces(name).dim - innerspaces(name).image.dim
        for n in (2, 3):
            h1_mat = (derspaces(name, n).dim
                      - innerspaces(name, n).image.dim)
            assert (h1_base == 0) == (h1_mat == 0), (name, n)
            if commutes(a, m):
                assert (h1_mat == 0) == (derspaces(name).dim == 0), (name, n)
    _within(t0, 30)


def test_criterion_08_commutant_structure(mpairs):
    # the commutant of S inside rational n-by-n matrices is exactly the
    # diagonal family, and the commutant of T exactly the upper-triangular
    # Toeplitz family, each of dimension n
    t0 = time.perf_counter()
    for n in (2, 3):
        ma, mm = mpairs("field", n)
        dim = ma.algebra.dim
        S, T = canonical_S_T(ma)

        for flat, expected_basis in (
                (S, [basis_vec(dim, ma.flat(i, i, 0)) for i in range(n)]),
                (T, [tuple(sum(basis_vec(dim, ma.flat(i, i + k, 0))[t]
                               for i in range(n - k)) for t in range(dim))
                     for k in range(n)])):
            dense = [[flat[ma.flat(i, j, 0)] for j in range(n)]
                     for i in range(n)]
            assert commutant_dim_oracle(dense) == n
            com = nullspace(inner_derivation(ma.algebra, mm.bimodule,
                                             flat).matrix)
            assert com.dim == n
            expected = Subspace.from_span(expected_basis, dim)
            assert same_space(com, expected)
    _within(t0, 1)


def test_criterion_09_reconstruction(mpairs, derspaces):
    # reconstruct every derivation-space basis element from two oracle
    # queries at the canonical points, then demand agreement at 100 seeded
    # samples and at every algebra basis element.  The dual-numbers pair
    # carries a basis element with an entrywise-lifted component, which both
    # query points annihilate; that subcase fails and is reported as such.
    t0 = time.perf_counter()
    failures = []
    for name, n in (("field", 2), ("dual_numbers", 2), ("field", 3)):
        ma, mm = mpairs(name, n)
        space = derspaces(name, n)
        dim = ma.algebra.dim
        points = list(seeded_elements(dim, count=100, seed=42))
        points += [basis_vec(dim, t) for t in range(dim)]
        for idx, d in enumerate(space.basis):
            oracle = wrap_derivation(d, label=f"{name} n={n} basis {idx}")
            got = reconstruct(oracle, space, ma)
            assert oracle.query_count == 2, (name, n, idx)
            bad = agreement_failures(oracle, got, points)
            if bad:
                failures.append((name, n, idx, len(bad), len(points)))
    _within(t0, 15)
    assert not failures, (
        "two-point reconstruction missed lifted components on: "
        + "; ".join(f"{name} n={n} basis {idx} "
                    f"({k} of {total} points disagree)"
                    for name, n, idx, k, total in failures))


def test_criterion_10_perturbed_negative_control(mpairs, derspaces):
    # the quadratic perturbation of a genuine oracle is caught: either the
    # two canonical points already fail to interpolate, or verification
    # finds a disagreeing sample (this run: sample 0 disagrees)
    t0 = time.perf_counter()
    ma, mm = mpairs("field", 2)
    space = derspaces("field", 2)
    d0 = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    oracle = perturbed_oracle(d0, "quadratic_block", ma, mm)
    try:
        got = reconstruct(oracle, space, ma)
    except NotTwoLocalError:
        caught = True
    else:
        bad = agreement_failures(oracle, got,
                                 seeded_elements(4, count=100, seed=42))
        caught = bool(bad)
        assert bad[:3] == [0, 1, 2]
        assert len(bad) == 99
    assert caught
    _within(t0, 2)


def test_criterion_11_reblock_and_jordan(pairs, mpairs, derspaces):
    # the 6 = 2*3 reblocking bijection is unital and multiplicative on all
    # 36*36 rational basis pairs; Jordan derivations coincide with
    # derivations on both stated pairs
    t0 = time.perf_counter()
    a, _ = pairs("field")
    iso = reblock_iso(a, 2, 3)
    src, tgt = iso.source[0], iso.target[0]
    assert iso.apply(src.unit) == tgt.unit
    for i in range(src.dim):
        ei = basis_vec(src.dim, i)
        for j in range(src.dim):
            ej = basis_vec(src.dim, j)
            assert iso.apply(multiply(src, ei, ej)) == \
                multiply(tgt, iso.apply(ei), iso.apply(ej)), (i, j)

    from matderiv import jordan_derivation_space
    fa, fm = pairs("full_matrix_2")
    assert same_space(jordan_derivation_space(fa, fm).subspace,
                      derspaces("full_matrix_2").subspace)
    ma, mm = mpairs("dual_numbers", 2)
    assert same_space(jordan_derivation_space(ma.algebra,
                                              mm.bimodule).subspace,
                      derspaces("dual_numbers", 2).subspace)
    _within(t0, 30)


def test_criterion_12_central_idempotents(mpairs, derspaces):
    # on the two-block commutative base at n = 2, every wrapped derivation
    # commutes with multiplication by each central idempotent at all 100
    # seeded samples
    t0 = time.perf_counter()
    ma, mm = mpairs("direct_sum(field,field)", 2)
    space = derspaces("direct_sum(field,field)", 2)
    assert space.dim == 6
    samples = list(seeded_elements(ma.algebra.dim, count=100, seed=42))
    for comp in range(2):
        e = vadd(ma.embed(basis_vec(2, comp), 0, 0),
                 ma.embed(basis_vec(2, comp), 1, 1))
        for idx, d in enumerate(space.basis):
            oracle = wrap_derivation(d, label=f"basis {idx}")
            bad = central_idempotent_compat(oracle, ma.algebra, mm.bimodule,
                                            e, samples)
            assert bad == [], (comp, idx)
    _within(t0, 2)
