"""Exact linear algebra over the rationals.

All coordinates are fractions.Fraction; there is no floating point anywhere.
Reduced row echelon forms are unique, pivots live in the leftmost nonzero
columns, and nullspace bases use the canonical free-variable parametrization
(entry 1 at the free column, other free columns 0), so every output is
deterministic for a given input.

A Matrix stores only its rows' nonzeros and a Subspace only its basis
vectors' nonzeros, (index, value) pairs sorted by index, and computations
read those.  A Matrix is built from dense entries or from nonzeros
(from_triples).  Matrix.entries and Subspace.basis are dense views for
callers outside the package, built on first read and read by no module
here.  member, quotient_dim and same_space reduce nonzeros against only the
basis vectors whose pivots they meet (_contains).

Every elimination goes through _echelonize.  It takes sparse integer rows,
as a rule canonical keys (_primitive_pairs: rows equal up to a nonzero scale
have the same key), splits them into components of columns that share a
row, reduces each component on its own and divides back to fractions at the
end.  Rows of different components have disjoint supports, so the result is
the unique RREF of the whole system; Subspace.from_span returns it (reduced
rows as nonzeros, pivots as pivot_cols, rank as dim).  nullspace_sparse
takes integer rows as they are; the other entry points build them from
Fractions.  Matrix-vector products and linear combinations of matrices read
each row scaled to integers (_int_rows, built once per matrix) and reduce
each output entry once; maps_to cross-multiplies instead of reducing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]
# the nonzero entries of a vector as (index, value) pairs sorted by index
Nonzeros = tuple[tuple[int, Fraction], ...]


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _nonzeros(v: Sequence[Fraction]) -> Nonzeros:
    """The (index, entry) pairs of the nonzero entries of v."""
    return tuple([(t, x) for t, x in enumerate(v) if x])


def _dense(pairs: Iterable[tuple[int, Fraction]], width: int) -> Vector:
    v = [ZERO] * width
    for c, x in pairs:
        v[c] = x
    return tuple(v)


@dataclass(frozen=True, init=False)
class Matrix:
    """Row-major matrix of rationals, stored as its nonzeros: each row's
    (column, value) pairs, values nonzero and columns strictly increasing.

    Matrix(rows, cols, entries) takes dense rows; from_triples takes the
    nonzeros.  entries and at() are a dense view for callers outside the
    package, built on first read and read by no module here."""

    rows: int
    cols: int
    nonzeros: tuple[Nonzeros, ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        self.__dict__.update(rows=rows, cols=cols, nonzeros=tuple(
            tuple([(j, Fraction(x)) for j, x in enumerate(r) if x]) for r in entries))

    @classmethod
    def from_triples(cls, rows: int, cols: int,
                     triples: Iterable[tuple[int, int, Fraction]]) -> "Matrix":
        """The matrix with entry x at (i, j) for each nonzero (i, j, x), given
        in increasing j for each i."""
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(rows)]
        for i, j, x in triples:
            out[i].append((j, x))
        m = cls.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, nonzeros=tuple(map(tuple, out)))
        return m

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "Matrix":
        ent = tuple(rows)
        if not ent:
            raise ValueError("matrix needs at least one row")
        return cls(len(ent), len(ent[0]), ent)

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        """Dense view of the rows."""
        return tuple(_dense(r, self.cols) for r in self.nonzeros)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    @cached_property
    def _int_rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Each row as (lcm of its denominators, ((column, numerator over that
        lcm), ...) over its nonzero entries)."""
        out = []
        for r in self.nonzeros:
            den, nums = _scaled([x for _, x in r])
            out.append((den, tuple(zip([c for c, _ in r], nums))))
        return tuple(out)

    def _products(self, v: Sequence[Fraction]) -> Iterator[tuple[int, int]]:
        """Each entry of this matrix times v (Fraction or int entries) as an
        unreduced (integer dot product, denominator), v scaled to integers."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        den, nums = _scaled(v)
        for row_den, pairs in self._int_rows:
            acc = 0
            for j, a in pairs:
                acc += a * nums[j]
            yield acc, row_den * den

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        """The exact product with v, as Fractions, each entry reduced once."""
        return tuple([Fraction(acc, s) if acc else ZERO for acc, s in self._products(v)])

    def maps_to(self, v: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
        """Whether this matrix maps v to y, decided by cross-multiplication."""
        if len(y) != self.rows:
            raise ValueError("image has wrong dimension for the matrix")
        return all(acc * t.denominator == t.numerator * s
                   for (acc, s), t in zip(self._products(v), y))

    def __add__(self, other: "Matrix") -> "Matrix":
        return lincomb(((ONE, self), (ONE, other)), self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return lincomb(((ONE, self), (-ONE, other)), self.rows, self.cols)

    def scale(self, c: Fraction) -> "Matrix":
        return lincomb(((Fraction(c), self),), self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)


def lincomb(terms: Iterable[tuple[Fraction, Matrix]], rows: int, cols: int) -> Matrix:
    """The rows x cols matrix sum c*m over the (c, m) terms (c a Fraction or
    an int).  Each row is summed in integers over the _int_rows of the m, at
    the lcm of the denominators of its terms, and reduced once per nonzero
    entry."""
    parts = []
    for c, m in terms:
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        if c:
            parts.append((c.numerator, c.denominator, m._int_rows))
    out = []
    for i in range(rows):
        row = [(num, den * rden, pairs) for num, den, ints in parts
               for rden, pairs in (ints[i],) if pairs]
        scale = lcm(*[den for _, den, _ in row])
        acc: dict[int, int] = {}
        for num, den, pairs in row:
            s = num * (scale // den)
            for j, v in pairs:
                acc[j] = acc.get(j, 0) + s * v
        out.extend((i, j, Fraction(v, scale)) for j, v in sorted(acc.items()) if v)
    return Matrix.from_triples(rows, cols, out)


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
        if len(cols) == 1:          # nonzero multiples of one unit vector
            out.append((cols[0], [(cols[0], ONE)]))
            continue
        local = {c: t for t, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in comp]
        for row, r in zip(dense, comp):
            for c, v in r:
                row[local[c]] = v
        out.extend((cols[p], [(cols[t], x) for t, x in prow])
                   for p, prow in _rref_dense(dense, len(cols)))
    return sorted(out)


# ---------------------------------------------------------------------------
# public elimination API
# ---------------------------------------------------------------------------

def _nullspace_core(pivot_rows: list[PivotRow], width: int) -> "Subspace":
    """The free-variable basis of the solutions of the given RREF rows: the
    vector of free column f has 1 at f and -row[f] at the pivot of each row.
    A non-pivot entry of an RREF row always sits in a free column."""
    pivots = {p for p, _ in pivot_rows}
    vecs = {f: [(f, ONE)] for f in range(width) if f not in pivots}
    for p, pairs in pivot_rows:
        for c, x in pairs:
            if c != p:
                vecs[c].append((p, -x))
    return Subspace(width, tuple([tuple(sorted(v)) for v in vecs.values()]), tuple(vecs))


def nullspace(m: Matrix) -> "Subspace":
    """Solution space of m v = 0, canonically parametrized by free variables."""
    return _nullspace_core(_echelonize(map(_primitive_pairs, m.nonzeros), m.cols), m.cols)


def nullspace_sparse(rows: Iterable[SparseRow], width: int) -> "Subspace":
    """nullspace() for an integer constraint system supplied row by row.
    Each row is a hashable tuple of (column, nonzero int) pairs sorted by
    column, every column below width; an empty row is skipped.  Rows are
    deduplicated as given and not renormalised: callers pass canonical keys
    (_canonical, _primitive_pairs) so that rows equal up to scale count
    once, though any integer rows give the same unique RREF.  _echelonize
    then solves each component of the system on its own (a derivation
    system has thousands)."""
    return _nullspace_core(_echelonize(dict.fromkeys(rows), width), width)


def solve(m: Matrix, b: Sequence[Fraction]) -> Vector | None:
    """One exact solution of m x = b with all free variables set to zero,
    or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    return _solve_augmented((_primitive_pairs(r + ((m.cols, Fraction(bv)),))
                             for r, bv in zip(m.nonzeros, b)), m.cols)


def _solve_augmented(rows: Iterable[SparseRow], w: int) -> Vector | None:
    """solve() for the integer rows of the augmented system [m | b], given
    as for _echelonize with the right-hand side in column w."""
    x = [ZERO] * w
    for p, pairs in _echelonize(rows, w + 1):
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
    """A linear subspace of QQ^ambient_dim held by a canonical basis, stored
    as each basis vector's nonzero (index, value) pairs, sorted by index.

    Each basis vector carries entry 1 at its own pivot column and entry 0 at
    every other basis vector's pivot column; pivot columns strictly increase.
    Both constructions used here (RREF rows of a span, free-variable
    parametrization of a nullspace) satisfy that shape, which is what lets
    _contains reduce a vector against only the pivots it meets.
    """

    ambient_dim: int
    nonzeros: tuple[Nonzeros, ...]
    pivot_cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.nonzeros) != len(self.pivot_cols):
            raise ValueError("basis/pivot count mismatch")
        if any(a >= b for a, b in zip(self.pivot_cols, self.pivot_cols[1:])):
            raise ValueError("pivot columns must strictly increase")
        where = {p: s for s, p in enumerate(self.pivot_cols)}
        for t, v in enumerate(self.nonzeros):
            cols = [-1, *(c for c, x in v if x), self.ambient_dim]
            if len(cols) != len(v) + 2 or any(a >= b for a, b in zip(cols, cols[1:])):
                raise ValueError("basis vector needs nonzero values at increasing "
                                 "indices below ambient_dim")
            if [(where[c], x) for c, x in v if c in where] != [(t, ONE)]:
                raise ValueError("basis is not in canonical echelon shape")

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """Dense view of the basis vectors."""
        return tuple(_dense(v, self.ambient_dim) for v in self.nonzeros)

    @property
    def dim(self) -> int:
        return len(self.pivot_cols)

    @classmethod
    def from_span(cls, vectors: Iterable[Sequence[Fraction] | dict[int, Fraction]],
                  ambient_dim: int) -> "Subspace":
        """The span of vectors, each a sequence of ambient_dim entries or a
        dict {index: entry} of its nonzero entries."""
        rows = []
        for v in vectors:
            if not isinstance(v, dict) and len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
            rows.append(_primitive_pairs(v.items() if isinstance(v, dict) else _nonzeros(v)))
        piv = _echelonize(rows, ambient_dim)
        return cls(ambient_dim, tuple([tuple(r) for _, r in piv]), tuple(c for c, _ in piv))


def _contains(s: Subspace, vectors: Iterable[Nonzeros]) -> bool:
    """Whether every vector, given by its nonzeros, lies in s.  A vector v of
    s is the sum of v[p] b_p over the pivots p of s, as each basis vector b_p
    is 1 at p and 0 at every other pivot; so only the b_p for the pivots v
    meets are subtracted, each once, and v lies in s when nothing is left."""
    at_pivot = dict(zip(s.pivot_cols, s.nonzeros))
    for v in vectors:
        work = dict(v)
        for p in [p for p in work if p in at_pivot]:
            c = work[p]
            for t, x in at_pivot[p]:
                work[t] = work.get(t, ZERO) - c * x
        if any(work.values()):
            return False
    return True


def member(s: Subspace, v: Sequence[Fraction]) -> bool:
    """Exact membership test: v's nonzeros reduced against the basis."""
    if len(v) != s.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    return _contains(s, [_nonzeros(v)])


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    """dim(sup/sub); raises if sub is not contained in sup."""
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not _contains(sup, sub.nonzeros):
        raise ValueError("claimed subspace is not contained in the larger space")
    return sup.dim - sub.dim


def same_space(a: Subspace, b: Subspace) -> bool:
    return (a.ambient_dim == b.ambient_dim and a.dim == b.dim
            and _contains(b, a.nonzeros))
