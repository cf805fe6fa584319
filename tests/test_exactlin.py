"""Exact rational linear algebra: frozen small examples plus seeded
randomized properties (RREF canonicity, rank-nullity, membership, solve,
the integer matrix-vector kernel)."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from matderiv import (Matrix, Subspace, basis_vec, is_zero_vec, member,
                      nullspace, nullspace_sparse, quotient_dim, rref,
                      same_space, solve, vadd, vscale, vsub, zero_vec)
from oracles import gauss_rank


def mat(rows):
    return Matrix.from_rows([[F(x) for x in row] for row in rows])


def rand_matrix(rng, rows, cols, span=9):
    return mat([[rng.randint(-span, span) for _ in range(cols)]
                for _ in range(rows)])


# ---------------------------------------------------------------------------
# frozen examples (derived by hand before freezing)
# ---------------------------------------------------------------------------

def test_nullspace_rank_one():
    # x + 2y = 0 twice over: kernel is the line through (-2, 1)
    ns = nullspace(mat([[1, 2], [2, 4]]))
    assert ns.basis == ((F(-2), F(1)),)
    assert ns.dim == 1


def test_solve_underdetermined_free_vars_zero():
    # x + y = 2 has the canonical solution (2, 0): free variable pinned to 0
    assert solve(mat([[1, 1]]), (F(2),)) == (F(2), F(0))


def test_solve_inconsistent():
    assert solve(mat([[1, 1], [1, 1]]), (F(1), F(2))) is None


def test_member_plane():
    # (3,5) = 4*(1,1) - 1*(1,-1), so it lies in the plane
    plane = Subspace.from_span(((F(1), F(1)), (F(1), F(-1))), 2)
    assert member(plane, (F(3), F(5)))
    combo = vadd(vscale(F(4), (F(1), F(1))), vscale(F(-1), (F(1), F(-1))))
    assert combo == (F(3), F(5))


def test_member_outside():
    line = Subspace.from_span(((F(1), F(2)),), 2)
    assert not member(line, (F(1), F(3)))


def test_rref_known():
    # [[2,4],[1,2]] reduces to [[1,2],[0,0]] with pivot column 0
    r = rref(mat([[2, 4], [1, 2]]))
    assert r.pivots == (0,)
    assert r.rank == 1
    assert r.reduced.row(0) == (F(1), F(2))
    assert is_zero_vec(r.reduced.row(1))


# ---------------------------------------------------------------------------
# seeded properties
# ---------------------------------------------------------------------------

def test_rref_properties_random():
    rng = random.Random(42)
    for trial in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = rref(m)
        # pivots strictly increase and land on unit columns
        assert list(r.pivots) == sorted(set(r.pivots))
        for row_idx, col in enumerate(r.pivots):
            assert r.reduced.col(col) == basis_vec(m.rows, row_idx)
        # idempotence: reducing the reduction changes nothing
        again = rref(r.reduced)
        assert again.reduced.entries == r.reduced.entries
        assert again.pivots == r.pivots
        # rank agrees with the independent elimination
        assert r.rank == gauss_rank([list(m.row(i)) for i in range(m.rows)])


def test_rank_nullity_random():
    rng = random.Random(7)
    for trial in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ns = nullspace(m)
        assert rref(m).rank + ns.dim == m.cols
        for v in ns.basis:
            assert is_zero_vec(m.mul_vec(v)), f"trial {trial}: Av != 0"


def test_solve_random():
    rng = random.Random(11)
    consistent = inconsistent = 0
    for trial in range(80):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = tuple(F(rng.randint(-9, 9)) for _ in range(m.rows))
        x = solve(m, b)
        rank_a = gauss_rank([list(m.row(i)) for i in range(m.rows)])
        rank_ab = gauss_rank([list(m.row(i)) + [b[i]] for i in range(m.rows)])
        if x is None:
            assert rank_ab > rank_a, f"trial {trial}: solvable but got None"
            inconsistent += 1
        else:
            assert m.mul_vec(x) == b
            assert rank_ab == rank_a
            consistent += 1
    assert consistent and inconsistent, "want both branches exercised"


def test_same_space_under_row_mixing():
    rng = random.Random(3)
    for trial in range(40):
        dim = rng.randint(2, 5)
        vecs = [tuple(F(rng.randint(-5, 5)) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        s1 = Subspace.from_span(vecs, dim)
        mixed = []
        for v in vecs:
            c = F(rng.choice([1, 2, -1, 3]))
            other = rng.choice(vecs)
            mixed.append(vadd(vscale(c, v), other))
        mixed.extend(vecs)
        rng.shuffle(mixed)
        s2 = Subspace.from_span(mixed, dim)
        assert same_space(s1, s2)


def test_quotient_dim_and_containment():
    rng = random.Random(19)
    for trial in range(30):
        dim = rng.randint(2, 6)
        big_vecs = [tuple(F(rng.randint(-4, 4)) for _ in range(dim))
                    for _ in range(dim)]
        big = Subspace.from_span(big_vecs, dim)
        take = rng.randint(0, len(big.basis))
        small = Subspace.from_span(big.basis[:take], dim)
        assert quotient_dim(small, big) == big.dim - small.dim
    line = Subspace.from_span(((F(1), F(0)),), 2)
    other = Subspace.from_span(((F(0), F(1)),), 2)
    with pytest.raises(ValueError):
        quotient_dim(other, line)


def test_nullspace_sparse_matches_dense():
    rng = random.Random(23)
    for trial in range(30):
        rows_n = rng.randint(1, 6)
        width = rng.randint(1, 6)
        dense = [[F(rng.choice([0, 0, 0, 1, -1, 2, 3]))
                  for _ in range(width)] for _ in range(rows_n)]
        sparse_rows = [[(j, x) for j, x in enumerate(row) if x]
                       for row in dense]
        a = nullspace(mat(dense))
        b = nullspace_sparse(sparse_rows, width)
        assert a.basis == b.basis and a.pivot_cols == b.pivot_cols


def test_subspace_canonical_shape_enforced():
    # a span in non-reduced position must go through from_span
    with pytest.raises(ValueError):
        Subspace(2, ((F(2), F(0)),), (0,))
    ok = Subspace.from_span(((F(2), F(0)),), 2)
    assert ok.basis == ((F(1), F(0)),)


def test_degenerate_shapes():
    z = Matrix.zeros(3, 3)
    assert nullspace(z).dim == 3
    assert rref(Matrix.identity(4)).rank == 4
    # zero-width system: empty solution vector, any nonzero rhs infeasible
    empty = Matrix(2, 0, ((), ()))
    assert solve(empty, (F(0), F(0))) == ()
    assert solve(empty, (F(1), F(0))) is None
    assert zero_vec(0) == ()
    assert vsub((F(3),), (F(1),)) == (F(2),)


# ---------------------------------------------------------------------------
# matrix-vector kernel against a plain Fraction dot product
# ---------------------------------------------------------------------------

_BIG = 2 ** 70     # numerators and denominators well past 64 bits

_rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))


@st.composite
def _matrix_and_vector(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    entries = tuple(tuple(F(0) if r in zero_rows else draw(_rationals)
                          for _ in range(cols)) for r in range(rows))
    v = tuple(draw(st.one_of(_rationals, st.integers(-_BIG, _BIG)))
              for _ in range(cols))
    return Matrix(rows, cols, entries), v


def _reference_mul_vec(m, v):
    return tuple(sum((a * F(x) for a, x in zip(row, v)), F(0))
                 for row in m.entries)


@settings(max_examples=300)
@given(_matrix_and_vector())
@example((Matrix.zeros(3, 2), (F(1, 2), 5)))
@example((mat([[F(1, 2), F(-1, 3)], [0, 0], [F(2, 3), F(1, 6)]]),
          (F(3, 4), 2)))
def test_mul_vec_matches_fraction_reference(case):
    m, v = case
    got = m.mul_vec(v)
    assert got == _reference_mul_vec(m, v)
    assert len(got) == m.rows
    assert all(type(c) is F for c in got)
    with pytest.raises(ValueError, match="dimension mismatch"):
        m.mul_vec(v + (F(1),))
    # the integer rows cached by mul_vec are not part of the value
    twin = Matrix(m.rows, m.cols, m.entries)
    assert m == twin and hash(m) == hash(twin)
    assert [f.name for f in dataclasses.fields(Matrix)] == ["rows", "cols", "entries"]
    assert twin.mul_vec(v) == got
