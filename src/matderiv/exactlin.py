"""Exact linear algebra over the rationals.

All coordinates are fractions.Fraction; there is no floating point anywhere.
Reduced row echelon forms are unique, pivots live in the leftmost nonzero
columns, and nullspace bases use the canonical free-variable parametrization
(entry 1 at the free column, other free columns 0), so every output is
deterministic for a given input.

Row reduction internally runs on integer-scaled rows (each row multiplied by
the lcm of its denominators and divided by the gcd of its entries) and divides
back to fractions at the end.  Scaling a row never changes the row space, so
the result is the same unique RREF a textbook fraction-by-fraction elimination
produces.  Matrix-vector products run on integer-scaled rows too: each row is
kept once as its denominator and sparse integer numerators, the vector is
scaled by the lcm of its denominators, and each output entry is one integer
dot product turned into a single reduced fraction, the same exact value a
fraction-by-fraction sum gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

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


def _primitive(row: list[int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for t, v in enumerate(row):
            if v:
                row[t] = v // g


def _scaled(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d*x for x in xs]) for d the lcm of the denominators of xs
    (Fractions or ints), so that every d*x is an integer."""
    den = 1
    for x in xs:
        if den % x.denominator:
            den = lcm(den, x.denominator)
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _int_row(frac_row: Sequence[Fraction]) -> list[int]:
    row = _scaled(frac_row)[1]
    _primitive(row)
    return row


def _primitive_pairs(items: Iterable[tuple[int, Fraction]]) -> tuple[tuple[int, int], ...]:
    """Integer-scaled, gcd-primitive (column, value) pairs of a sparse row,
    sorted by column.  Two rows give the same pairs exactly when they are
    equal up to a positive scale."""
    pairs = sorted((c, x) for c, x in items if x)
    vals = _scaled([x for _, x in pairs])[1]
    _primitive(vals)
    return tuple((c, v) for (c, _), v in zip(pairs, vals))


class _Echelon:
    """Incremental integer row-echelon accumulator.

    Pivot rows are gcd-primitive with positive leading entry and are not
    touched again until finish(), so their supports can be cached.
    """

    def __init__(self, width: int):
        self.width = width
        self.by_col: dict[int, list[int]] = {}
        self.support: dict[int, list[int]] = {}

    def insert(self, row: list[int]) -> None:
        w = self.width
        j = -1
        for t in range(w):
            if row[t]:
                j = t
                break
        while j >= 0:
            p = self.by_col.get(j)
            if p is None:
                if row[j] < 0:
                    for t in range(j, w):
                        if row[t]:
                            row[t] = -row[t]
                self.by_col[j] = row
                self.support[j] = [t for t in range(j, w) if row[t]]
                return
            a = p[j]
            b = row[j]
            if a == 1:
                for t in self.support[j]:
                    row[t] -= b * p[t]
            else:
                for t in range(j, w):
                    rt = row[t]
                    pt = p[t]
                    if pt:
                        row[t] = rt * a - b * pt
                    elif rt:
                        row[t] = rt * a
            nxt = -1
            for t in range(j + 1, w):
                if row[t]:
                    nxt = t
                    break
            if nxt >= 0 and abs(row[nxt]) > _GROWTH_LIMIT:
                _primitive(row)
            j = nxt

    def finish(self) -> tuple[list[Vector], list[int]]:
        """Back-reduce to RREF and return (fraction pivot rows, pivot columns)."""
        w = self.width
        cols = sorted(self.by_col)
        for c in reversed(cols):
            p = self.by_col[c]
            supp = [t for t in range(c, w) if p[t]]
            a = p[c]
            for c2 in cols:
                if c2 >= c:
                    break
                r = self.by_col[c2]
                b = r[c]
                if not b:
                    continue
                if a == 1:
                    for t in supp:
                        r[t] -= b * p[t]
                else:
                    for t in range(w):
                        rt = r[t]
                        pt = p[t] if t >= c else 0
                        if pt:
                            r[t] = rt * a - b * pt
                        elif rt:
                            r[t] = rt * a
                    _primitive(r)
        frac_rows: list[Vector] = []
        for c in cols:
            p = self.by_col[c]
            pv = p[c]
            frac_rows.append(tuple(Fraction(v, pv) if v else ZERO for v in p))
        return frac_rows, cols


def _echelonize(int_rows: Iterable[list[int]], width: int) -> tuple[list[Vector], list[int]]:
    ech = _Echelon(width)
    for row in int_rows:
        if any(row):
            ech.insert(row)
    return ech.finish()


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
    frac_rows, cols = _echelonize((_int_row(r) for r in m.entries), m.cols)
    padded = frac_rows + [zero_vec(m.cols)] * (m.rows - len(frac_rows))
    return RrefResult(Matrix(m.rows, m.cols, tuple(padded)), tuple(cols), len(cols))


def _nullspace_core(frac_rows: list[Vector], pivots: list[int], width: int) -> "Subspace":
    pivset = set(pivots)
    free = [c for c in range(width) if c not in pivset]
    basis = []
    for f in free:
        v = [ZERO] * width
        v[f] = ONE
        for row, p in zip(frac_rows, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(tuple(v))
    return Subspace(width, tuple(basis), tuple(free))


def nullspace(m: Matrix) -> "Subspace":
    """Solution space of m v = 0, canonically parametrized by free variables."""
    frac_rows, cols = _echelonize((_int_row(r) for r in m.entries), m.cols)
    return _nullspace_core(frac_rows, cols, m.cols)


def nullspace_sparse(rows: Iterable[Iterable[tuple[int, Fraction]]], width: int) -> "Subspace":
    """nullspace() for a constraint system supplied row by row as sparse
    (column, coefficient) pairs.  A row equal to an earlier one up to a
    positive scale is skipped; the solution space does not depend on it."""
    def distinct_rows():
        seen: set[tuple] = set()
        for r in rows:
            key = _primitive_pairs(r)
            if key and key not in seen:
                seen.add(key)
                row = [0] * width
                for c, v in key:
                    row[c] = v
                yield row
    frac_rows, cols = _echelonize(distinct_rows(), width)
    return _nullspace_core(frac_rows, cols, width)


def solve(m: Matrix, b: Sequence[Fraction]) -> Vector | None:
    """One exact solution of m x = b with all free variables set to zero,
    or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    w = m.cols + 1
    aug = (_int_row(tuple(r) + (Fraction(bv),)) for r, bv in zip(m.entries, b))
    frac_rows, cols = _echelonize(aug, w)
    if m.cols in cols:
        return None
    x = [ZERO] * m.cols
    for row, p in zip(frac_rows, cols):
        x[p] = row[-1]
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
        rows = [_int_row(tuple(Fraction(x) for x in v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
        frac_rows, cols = _echelonize(rows, ambient_dim)
        return cls(ambient_dim, tuple(frac_rows), tuple(cols))


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
