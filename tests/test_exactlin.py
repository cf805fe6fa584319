"""Exact rational linear algebra: frozen small examples plus seeded
randomized properties (RREF canonicity, rank-nullity, membership, solve,
the integer matrix-vector kernel, the component split of the elimination
against the unsplit elimination it replaced)."""

import dataclasses
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from matderiv import (Matrix, RrefResult, Subspace, basis_vec,
                      member, nullspace, nullspace_sparse, quotient_dim, rref,
                      same_space, solve, vadd, vscale, vsub, zero_vec)
from matderiv.exactlin import _nonzeros, _primitive_pairs
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
    assert r.reduced.entries[0] == (F(1), F(2))
    assert not any(r.reduced.entries[1])


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
            assert tuple(zip(*r.reduced.entries))[col] == basis_vec(m.rows, row_idx)
        # idempotence: reducing the reduction changes nothing
        again = rref(r.reduced)
        assert again.reduced.entries == r.reduced.entries
        assert again.pivots == r.pivots
        # rank agrees with the independent elimination
        assert r.rank == gauss_rank([list(row) for row in m.entries])


def test_rank_nullity_random():
    rng = random.Random(7)
    for trial in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ns = nullspace(m)
        assert rref(m).rank + ns.dim == m.cols
        for v in ns.basis:
            assert not any(m.mul_vec(v)), f"trial {trial}: Av != 0"


def test_solve_random():
    rng = random.Random(11)
    consistent = inconsistent = 0
    for trial in range(80):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = tuple(F(rng.randint(-9, 9)) for _ in range(m.rows))
        x = solve(m, b)
        rank_a = gauss_rank([list(row) for row in m.entries])
        rank_ab = gauss_rank([list(row) + [bi] for row, bi in zip(m.entries, b)])
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
        b = nullspace_sparse(map(_primitive_pairs, sparse_rows), width)
        assert a.basis == b.basis and a.pivot_cols == b.pivot_cols


def test_subspace_canonical_shape_enforced():
    # a span in non-reduced position must go through from_span
    with pytest.raises(ValueError):
        Subspace(2, (((0, F(2)),),), (0,))
    # every index lies below the ambient dimension
    with pytest.raises(ValueError, match="below ambient_dim"):
        Subspace(2, (((0, F(1)), (2, F(3))),), (0,))
    ok = Subspace.from_span(((F(2), F(0)),), 2)
    assert ok.basis == ((F(1), F(0)),)


def test_degenerate_shapes():
    z = Matrix.from_triples(3, 3, ())
    assert nullspace(z).dim == 3
    assert rref(Matrix.from_triples(4, 4, ((i, i, F(1)) for i in range(4)))).rank == 4
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
@example((Matrix.from_triples(3, 2, ()), (F(1, 2), 5)))
@example((mat([[F(1, 2), F(-1, 3)], [0, 0], [F(2, 3), F(1, 6)]]),
          (F(3, 4), 2)))
@example((Matrix(2, 3, ((1, 0, -4), (0, 0, 0))), (2, F(1, 3), -1)))
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
    assert [f.name for f in dataclasses.fields(Matrix)] == ["rows", "cols", "nonzeros"]
    assert twin.mul_vec(v) == got
    # the nonzeros are the one stored form: a twin built from them is the
    # same value with the same dense view, and that view holds Fractions
    # even where the matrix was built from ints
    sparse = Matrix.from_triples(m.rows, m.cols, ((i, j, x) for i, row in enumerate(m.nonzeros)
                                                  for j, x in row))
    assert sparse == m and hash(sparse) == hash(m)
    assert sparse.entries == m.entries
    assert all(sparse.at(i, j) == m.at(i, j) == m.entries[i][j]
               for i in range(m.rows) for j in range(m.cols))
    assert all(type(x) is F for row in m.entries for x in row)


# ---------------------------------------------------------------------------
# the component split against the unsplit elimination it replaced
# ---------------------------------------------------------------------------
# A local copy of the elimination that reduced every system as one block of
# full-width integer rows, and of the five callers built on it.

def _ref_primitive(row):
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        for t, v in enumerate(row):
            row[t] = v // g


def _ref_int_row(frac_row):
    den = 1
    for x in frac_row:
        den = lcm(den, F(x).denominator)
    row = [int(F(x) * den) for x in frac_row]
    _ref_primitive(row)
    return row


class _RefEchelon:
    def __init__(self, width):
        self.width = width
        self.by_col = {}

    def insert(self, row):
        w = self.width
        j = next((t for t in range(w) if row[t]), -1)
        while j >= 0:
            p = self.by_col.get(j)
            if p is None:
                if row[j] < 0:
                    row = [-v for v in row]
                self.by_col[j] = row
                return
            a, b = p[j], row[j]
            row = [rt * a - b * pt for rt, pt in zip(row, p)]
            j = next((t for t in range(j + 1, w) if row[t]), -1)
            if j >= 0 and abs(row[j]) > 1 << 64:
                _ref_primitive(row)

    def finish(self):
        cols = sorted(self.by_col)
        for c in reversed(cols):
            p = self.by_col[c]
            for c2 in cols:
                if c2 >= c:
                    break
                r = self.by_col[c2]
                if r[c]:
                    b = r[c]
                    r[:] = [rt * p[c] - b * pt for rt, pt in zip(r, p)]
                    _ref_primitive(r)
        return ([tuple(F(v, self.by_col[c][c]) for v in self.by_col[c])
                 for c in cols], cols)


def _ref_echelonize(int_rows, width):
    ech = _RefEchelon(width)
    for row in int_rows:
        if any(row):
            ech.insert(row)
    return ech.finish()


def _ref_nullspace_core(frac_rows, pivots, width):
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [F(0)] * width
        v[f] = F(1)
        for row, p in zip(frac_rows, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return Subspace(width, tuple(map(_nonzeros, basis)), tuple(free))


def _ref_nullspace(m):
    return _ref_nullspace_core(
        *_ref_echelonize([_ref_int_row(r) for r in m.entries], m.cols), m.cols)


def _ref_nullspace_sparse(rows, width):
    dense = []
    for r in rows:
        row = [F(0)] * width
        for c, x in r:
            row[c] = F(x)
        dense.append(row)
    return _ref_nullspace_core(
        *_ref_echelonize([_ref_int_row(r) for r in dense], width), width)


def _ref_rref(m):
    frac_rows, cols = _ref_echelonize([_ref_int_row(r) for r in m.entries], m.cols)
    padded = frac_rows + [zero_vec(m.cols)] * (m.rows - len(frac_rows))
    return RrefResult(Matrix(m.rows, m.cols, tuple(padded)), tuple(cols), len(cols))


def _ref_solve(m, b):
    aug = [_ref_int_row(tuple(r) + (F(bv),)) for r, bv in zip(m.entries, b)]
    frac_rows, cols = _ref_echelonize(aug, m.cols + 1)
    if m.cols in cols:
        return None
    x = [F(0)] * m.cols
    for row, p in zip(frac_rows, cols):
        x[p] = row[-1]
    return tuple(x)


def _ref_from_span(vectors, dim):
    frac_rows, cols = _ref_echelonize([_ref_int_row(v) for v in vectors], dim)
    return Subspace(dim, tuple(map(_nonzeros, frac_rows)), tuple(cols))


_entries = st.one_of(
    st.sampled_from((F(0), F(0), F(1), F(-1), F(2))),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))


@st.composite
def _block_systems(draw):
    """Blocks of random rows on disjoint column sets under a random column
    permutation, with columns in no row, empty rows, zero-only rows,
    possibly one row joining two blocks and negated or rescaled copies of
    some rows, in random row order."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4)),
                           min_size=1, max_size=4))
    width = sum(w for w, _ in shapes) + draw(st.integers(0, 3))
    perm = draw(st.permutations(range(width)))
    blocks, rows, start = [], [], 0
    for w, nrows in shapes:
        cols = perm[start:start + w]
        start += w
        blocks.append(cols)
        rows += [[(c, draw(_entries)) for c in cols] for _ in range(nrows)]
    if len(blocks) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(blocks))))[:2]
        rows.append([(draw(st.sampled_from(blocks[i])), F(1)),
                     (draw(st.sampled_from(blocks[j])), F(-3, 2))])
    rows += [[]] * draw(st.integers(0, 2))
    rows += [[(c, F(0)) for c in draw(st.sampled_from(blocks))]] * draw(st.integers(0, 1))
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            row = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((F(-1), F(-2, 3), F(7, 5), -F(2 ** 66, 3))))
            rows.append([(c, scale * v) for c, v in row])
    rows = [rows[t] for t in draw(st.permutations(range(len(rows))))]
    x = tuple(draw(_entries) for _ in range(width))
    b = tuple(draw(_entries) for _ in rows)
    return width, rows, x, b


def _dense_matrix(width, rows):
    dense = []
    for r in rows:
        row = [F(0)] * width
        for c, v in r:
            row[c] = v
        dense.append(tuple(row))
    return Matrix(len(dense), width, tuple(dense))


def _int_keys(row):
    """The row scaled to integers by the lcm of its denominators, zeros
    dropped and sorted by column, but neither divided by its gcd nor signed:
    integer rows that are not canonical keys."""
    pairs = sorted((c, v) for c, v in row if v)
    den = lcm(*(v.denominator for _, v in pairs))
    return tuple((c, int(v * den)) for c, v in pairs)


@settings(max_examples=300)
@given(_block_systems())
@example((3, [[(0, F(1)), (1, F(1))], [(0, F(1)), (1, F(1))], [(2, F(2))]],
          (F(0), F(0), F(0)), (F(1), F(2), F(0))))            # inconsistent
@example((4, [[], [(3, F(0))], [(1, F(2 ** 65 + 1, 3))]],
          (F(1),) * 4, (F(0), F(0), F(5))))
@example((4, [[(0, F(1)), (2, F(2))], [(0, F(-2)), (2, F(-4))],   # a row, its negated double
              [(1, F(6)), (2, F(-4))], [(3, F(-3))]],            # common factors
          (F(1),) * 4, (F(1), F(-2), F(0), F(3))))
def test_split_kernel_matches_unsplit_reference(case):
    width, rows, x, b = case
    for row in rows:
        key = _primitive_pairs(row)
        assert key == () or (key[0][1] > 0 and gcd(*(v for _, v in key)) == 1)
    m = _dense_matrix(width, rows)
    got = nullspace_sparse(map(_primitive_pairs, rows), width)
    assert got == _ref_nullspace_sparse(rows, width) == nullspace(m)
    assert all(type(c) is F for v in got.basis for c in v)
    # rows taken as they are, not renormalised, give the same unique RREF
    assert nullspace_sparse(map(_int_keys, rows), width) == got
    assert nullspace(m) == _ref_nullspace(m)
    r = rref(m)
    assert r == _ref_rref(m)
    assert all(type(c) is F for row in r.reduced.entries for c in row)
    assert Subspace.from_span(m.entries, width) == _ref_from_span(m.entries, width)
    consistent = m.mul_vec(x)
    assert solve(m, consistent) == _ref_solve(m, consistent) is not None
    assert solve(m, b) == _ref_solve(m, b)


# ---------------------------------------------------------------------------
# sparse membership against the dense residual reduction it replaced
# ---------------------------------------------------------------------------

def _ref_member(s, v):
    work = [F(x) for x in v]
    for b, p in zip(s.nonzeros, s.pivot_cols):
        c = work[p]
        if c:
            for t, bt in b:
                work[t] -= c * bt
    return not any(work)


def _ref_quotient_dim(sub, sup):
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for v in sub.basis:
        if not _ref_member(sup, v):
            raise ValueError("claimed subspace is not contained in the larger space")
    return sup.dim - sub.dim


def _ref_same_space(a, b):
    return (a.ambient_dim == b.ambient_dim and a.dim == b.dim
            and all(_ref_member(b, v) for v in a.basis))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return ValueError, str(err)


def _combination(draw, vectors, width):
    out = [F(0)] * width
    for v in vectors:
        c = draw(_entries)
        out = [x + c * y for x, y in zip(out, v)]
    return tuple(out)


@st.composite
def _membership_cases(draw):
    """A subspace in span form or nullspace form, vectors known to lie inside
    and outside it, one random vector, and subspaces that are contained in
    it, equal to it, or not contained in it."""
    width, rows, x, _ = draw(_block_systems())
    m = _dense_matrix(width, rows)
    s = draw(st.sampled_from((Subspace.from_span(m.entries, width), nullspace(m))))
    inside = _combination(draw, s.basis, width)
    free = [t for t in range(width) if t not in s.pivot_cols]
    outside = ([vadd(inside, basis_vec(width, draw(st.sampled_from(free))))]
               if free else [])
    part = draw(st.lists(st.sampled_from(s.basis), max_size=3)) if s.dim else []
    sub = Subspace.from_span([_combination(draw, part, width) for _ in part], width)
    mixed = Subspace.from_span([_combination(draw, s.basis, width) for _ in s.basis]
                               + list(s.basis[:draw(st.integers(0, s.dim))]), width)
    wider = Subspace.from_span([*sub.basis, *outside], width)
    return s, [inside, *outside, x], [sub, mixed, wider], outside


# no shrink phase: each shrink step rebuilds subspaces, so a
# failing example is reported as drawn, in seconds
@settings(max_examples=300, phases=(Phase.explicit, Phase.generate))
@given(_membership_cases())
@example((nullspace(mat([[1, 1, 0], [0, 0, 0]])),
          [(F(1), F(-1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0))],
          [Subspace.from_span([(F(0), F(0), F(1))], 3),
           Subspace.from_span([(F(2), F(-2), F(0)), (F(0), F(0), F(3))], 3),
           Subspace.from_span([(F(0), F(0), F(1)), (F(1), F(0), F(0))], 3)],
          [(F(1), F(0), F(0))]))
def test_sparse_membership_matches_dense_reference(case):
    s, vectors, others, outside = case
    for v in vectors:
        assert member(s, v) == _ref_member(s, v)
    assert member(s, vectors[0])
    assert not any(member(s, v) for v in outside)
    elsewhere = Subspace.from_span([], s.ambient_dim + 1)
    for t in [*others, s, elsewhere]:
        assert _outcome(quotient_dim, t, s) == _outcome(_ref_quotient_dim, t, s)
        assert _outcome(quotient_dim, s, t) == _outcome(_ref_quotient_dim, s, t)
        assert same_space(t, s) == _ref_same_space(t, s)
        assert same_space(s, t) == _ref_same_space(s, t)
    assert quotient_dim(others[0], s) == s.dim - others[0].dim
    assert same_space(others[1], s) == (others[1].dim == s.dim)
    if outside:
        with pytest.raises(ValueError, match="not contained"):
            quotient_dim(others[2], s)
