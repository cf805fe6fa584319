"""Exact linear algebra over the rationals.

All coordinates are fractions.Fraction; there is no floating point anywhere.
Reduced row echelon forms are unique, pivots live in the leftmost nonzero
columns, and nullspace bases use the canonical free-variable parametrization
(entry 1 at the free column, other free columns 0), so every output is
deterministic for a given input.

Every elimination (rref, nullspace, nullspace_sparse, solve, from_span) goes
through _echelonize.  It takes sparse rows in the canonical key form of
_primitive_pairs (each row times the lcm of its denominators, divided by the
gcd of its entries and signed so that its first entry is positive; rows equal
up to a nonzero scale have the same key), splits them into components of
columns that share a row, reduces each component on its own and divides
back to fractions at the end.  Scaling a row never changes the row space,
and rows of different components have disjoint supports, so the result is
the unique RREF a textbook fraction-by-fraction elimination of the whole
system produces.  Matrix-vector products run on integer-scaled rows too:
each row is kept once as its denominator and sparse integer numerators, and
each output entry is one integer dot product turned into a single
reduced fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec(*entries) -> Vector:
    """Build a Vector, coercing ints/strings through Fraction."""
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise ValueError(f"basis index {i} out of range for dimension {n}")
    return (ZERO,) * i + (ONE,) + (ZERO,) * (n - i - 1)


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return not any(v)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of rationals."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "Matrix":
        ent = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not ent:
            raise ValueError("matrix needs at least one row")
        return cls(len(ent), len(ent[0]), ent)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(basis_vec(n, i) for i in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    @cached_property
    def _int_rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Each row as (lcm of its denominators, ((column, numerator over that
        lcm), ...) over its nonzero entries)."""
        out = []
        for r in self.entries:
            den, nums = _scaled(r)
            out.append((den, tuple((j, a) for j, a in enumerate(nums) if a)))
        return tuple(out)

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        """The exact product of this matrix with v (Fraction or int entries),
        as a tuple of Fractions.  v is scaled to integers by the lcm of its
        denominators, so each entry is one integer dot product over the row's
        nonzeros, reduced once."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        den, nums = _scaled(v)
        out = []
        for row_den, pairs in self._int_rows:
            acc = 0
            for j, a in pairs:
                acc += a * nums[j]
            out.append(Fraction(acc, row_den * den) if acc else ZERO)
        return tuple(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(vadd(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(vsub(a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Fraction) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, tuple(vscale(c, r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)


# ---------------------------------------------------------------------------
# integer echelon kernel
# ---------------------------------------------------------------------------

_GROWTH_LIMIT = 1 << 64

SparseRow = Sequence[tuple[int, int]]
PivotRow = tuple[int, list[tuple[int, Fraction]]]


def _primitive(row: list[int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row)
    if g > 1:
        row[:] = [v // g for v in row]


def _scaled(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d*x for x in xs]) for d the lcm of the denominators of xs
    (Fractions or ints), so that every d*x is an integer."""
    dens = [x.denominator for x in xs]
    den = lcm(*dens)
    return den, [x.numerator * (den // d) for x, d in zip(xs, dens)]


def _canonical(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The canonical key of nonzero integer (column, value) pairs sorted by
    column: divided by their gcd and signed so the first value is positive."""
    if not pairs:
        return ()
    g = gcd(*[v for _, v in pairs])
    if pairs[0][1] < 0:
        g = -g
    return tuple(pairs) if g == 1 else tuple([(c, v // g) for c, v in pairs])


def _primitive_pairs(items: Iterable[tuple[int, Fraction]]) -> tuple[tuple[int, int], ...]:
    """The canonical key of a sparse row: its (column, value) pairs sorted by
    column, zeros dropped, scaled to integers by the lcm of the denominators
    and passed through _canonical.  Two rows give the same key exactly when
    they are equal up to a nonzero scale."""
    pairs = sorted([cx for cx in items if cx[1]])
    return _canonical([(c, v) for (c, _), v in zip(pairs, _scaled([x for _, x in pairs])[1])])


def _rref_dense(rows: Iterable[list[int]], w: int) -> list[PivotRow]:
    """The RREF of dense integer rows of width w, as (pivot column, sparse
    fraction row) pairs in pivot order, each row with entry 1 at its pivot.

    Forward pass: each leading entry b of a row is cleared by row <- a*row -
    b*p, for p the pivot row of that column and a its positive leading entry,
    and a nonzero rest becomes a new pivot row.  Pivot rows are not touched
    again until the back pass, so their nonzeros are cached.  A row whose
    leading entry grows past _GROWTH_LIMIT is divided by its content."""
    pivots: dict[int, list[int]] = {}
    support: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        j = 0
        while j < w and not row[j]:
            j += 1
        while j < w:
            p = pivots.get(j)
            if p is None:
                if row[j] < 0:
                    row = [-v for v in row]
                pivots[j] = row
                support[j] = [(t, row[t]) for t in range(j, w) if row[t]]
                break
            a, b = p[j], row[j]
            if a != 1:
                row = [v * a for v in row]
            for t, pt in support[j]:
                row[t] -= b * pt
            j += 1
            while j < w and not row[j]:
                j += 1
            if j < w and abs(row[j]) > _GROWTH_LIMIT:
                _primitive(row)
    cols = sorted(pivots)
    for k in range(len(cols) - 1, 0, -1):
        c = cols[k]
        p = pivots[c]
        a = p[c]
        supp = [(t, p[t]) for t in range(c, w) if p[t]]
        for c2 in cols[:k]:
            r = pivots[c2]
            b = r[c]
            if b:
                if a != 1:
                    r = pivots[c2] = [v * a for v in r]
                for t, pt in supp:
                    r[t] -= b * pt
                if a != 1:
                    _primitive(r)
    return [(c, [(t, Fraction(v, pivots[c][c])) for t, v in enumerate(pivots[c]) if v])
            for c in cols]


def _echelonize(rows: Iterable[SparseRow], width: int) -> list[PivotRow]:
    """The RREF of an integer system given as sparse rows of (column, value)
    pairs with no zero values (an empty row is skipped), as (pivot column,
    [(column, value), ...]) pairs in pivot order; each row is sparse, sorted
    by column and has value 1 at its pivot.

    Union-find joins the columns that share a row, and each component is
    reduced on its own columns, renumbered in increasing order.  Rows of
    different components have disjoint supports, so the RREF of the whole
    system is the union of the RREFs of its components: the same pivots,
    the same free columns and the same rows.  A column in no row is free.
    """
    rows = [r for r in rows if r]
    parent = list(range(width))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for r in rows:
        root = find(r[0][0])
        for c, _ in r:
            parent[find(c)] = root
    components: dict[int, list[SparseRow]] = {}
    for r in rows:
        components.setdefault(find(r[0][0]), []).append(r)
    out: list[PivotRow] = []
    for comp in components.values():
        cols = sorted({c for r in comp for c, _ in r})
        local = {c: t for t, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in comp]
        for row, r in zip(dense, comp):
            for c, v in r:
                row[local[c]] = v
        out.extend((cols[p], [(cols[t], x) for t, x in prow])
                   for p, prow in _rref_dense(dense, len(cols)))
    return sorted(out)


def _dense(pairs: Iterable[tuple[int, Fraction]], width: int) -> Vector:
    v = [ZERO] * width
    for c, x in pairs:
        v[c] = x
    return tuple(v)


def _matrix_rows(m: Matrix) -> Iterator[SparseRow]:
    return (_primitive_pairs(enumerate(r)) for r in m.entries)


# ---------------------------------------------------------------------------
# public elimination API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """The unique reduced row echelon form of m, with pivot columns and rank."""
    piv = _echelonize(_matrix_rows(m), m.cols)
    padded = [_dense(r, m.cols) for _, r in piv] + [zero_vec(m.cols)] * (m.rows - len(piv))
    cols = tuple(c for c, _ in piv)
    return RrefResult(Matrix(m.rows, m.cols, tuple(padded)), cols, len(cols))


def _nullspace_core(pivot_rows: list[PivotRow], width: int) -> "Subspace":
    """The free-variable basis of the solutions of the given RREF rows: the
    vector of free column f has 1 at f and -row[f] at the pivot of each row.
    A non-pivot entry of an RREF row always sits in a free column."""
    pivots = {p for p, _ in pivot_rows}
    vecs = {f: [ZERO] * width for f in range(width) if f not in pivots}
    for f, v in vecs.items():
        v[f] = ONE
    for p, pairs in pivot_rows:
        for c, x in pairs:
            if c != p:
                vecs[c][p] = -x
    return Subspace(width, tuple(map(tuple, vecs.values())), tuple(vecs))


def nullspace(m: Matrix) -> "Subspace":
    """Solution space of m v = 0, canonically parametrized by free variables."""
    return _nullspace_core(_echelonize(_matrix_rows(m), m.cols), m.cols)


def nullspace_sparse(rows: Iterable[Iterable[tuple[int, Fraction]]], width: int) -> "Subspace":
    """nullspace() for a constraint system supplied row by row as sparse
    (column, coefficient) pairs.  Rows are deduplicated as given, and only
    the distinct ones are normalised to canonical keys, so a row equal to an
    earlier one up to a nonzero scale is skipped.  The distinct rows reach
    _echelonize sparse, which solves each component of the system on its
    own (a derivation system has thousands)."""
    distinct = dict.fromkeys(map(_primitive_pairs, dict.fromkeys(map(tuple, rows))))
    return _nullspace_core(_echelonize(distinct, width), width)


def solve(m: Matrix, b: Sequence[Fraction]) -> Vector | None:
    """One exact solution of m x = b with all free variables set to zero,
    or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    w = m.cols
    aug = (_primitive_pairs(enumerate(tuple(r) + (Fraction(bv),)))
           for r, bv in zip(m.entries, b))
    x = [ZERO] * w
    for p, pairs in _echelonize(aug, w + 1):
        if p == w:
            return None
        c, v = pairs[-1]
        if c == w:
            x[p] = v
    return tuple(x)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of QQ^ambient_dim held by a canonical basis.

    Each basis vector carries entry 1 at its own pivot column and entry 0 at
    every other basis vector's pivot column; pivot columns strictly increase.
    Both constructions used here (RREF rows of a span, free-variable
    parametrization of a nullspace) satisfy that shape, which is what makes
    member() a plain residual reduction.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivot_cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.pivot_cols):
            raise ValueError("basis/pivot count mismatch")
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        for a, b in zip(self.pivot_cols, self.pivot_cols[1:]):
            if a >= b:
                raise ValueError("pivot columns must strictly increase")
        for t, v in enumerate(self.basis):
            for s, p in enumerate(self.pivot_cols):
                want = ONE if s == t else ZERO
                if v[p] != want:
                    raise ValueError("basis is not in canonical echelon shape")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_span(cls, vectors: Iterable[Sequence[Fraction]], ambient_dim: int) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
            rows.append(_primitive_pairs((c, Fraction(x)) for c, x in enumerate(v) if x))
        piv = _echelonize(rows, ambient_dim)
        return cls(ambient_dim, tuple(_dense(r, ambient_dim) for _, r in piv),
                   tuple(c for c, _ in piv))


def member(s: Subspace, v: Sequence[Fraction]) -> bool:
    """Exact membership test by residual reduction against the basis."""
    if len(v) != s.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    work = [Fraction(x) for x in v]
    for b, p in zip(s.basis, s.pivot_cols):
        c = work[p]
        if c:
            for t, bt in enumerate(b):
                if bt:
                    work[t] -= c * bt
    return not any(work)


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    """dim(sup/sub); raises if sub is not contained in sup."""
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for v in sub.basis:
        if not member(sup, v):
            raise ValueError("claimed subspace is not contained in the larger space")
    return sup.dim - sub.dim


def same_space(a: Subspace, b: Subspace) -> bool:
    return (a.ambient_dim == b.ambient_dim and a.dim == b.dim
            and all(member(b, v) for v in a.basis))
