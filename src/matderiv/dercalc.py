"""Derivation spaces of structure-constant algebra/bimodule pairs.

A linear map delta: A -> M is a derivation when delta(xy) = delta(x).y +
x.delta(y).  Over basis elements this is one linear constraint per basis pair
and module coordinate, so the derivation space is the nullspace of a
(d^2*m) x (d*m) system in the flattened coordinates of the map.  Flattening
is column-major: flat[k*m + p] is the f_p-coordinate of the image of e_k.
Inner derivations use the sign convention delta_w(x) = w.x - x.w.
leibniz_failures, certify and derivation_space solve or check the Leibniz
rule of whatever tables they get, such as the non-associative jordan_pair.
inner_derivation, inner_space and is_inner need a bimodule, as delta_w is a
derivation only on one.  No function checks the axioms; the CLI does.

Constraint assembly, certification, inner derivations and the inner space
read the rows of the integer views Algebra.int_table (scale L_a) and
Bimodule.int_tables (scale L_m), and their columns through _transpose; a
positive scale changes no row space and no failing pair.
Constraint rows leave as canonical keys (exactlin._canonical), and a row
with a single term (a shifted copy of a pattern of the tables) is emitted
once per pattern and shift.  The basis stays sparse from elimination to
output: each basis map is built from the nonzeros of its nullspace vector,
and leibniz_failures sums a row of basis pairs at a time over the nonzero
products of the map.  delta_w has one kernel, _inner_columns: inner_derivation
divides it back to Fractions, and inner_space and is_inner transpose it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .algcore import Algebra, Bimodule, Table, _transpose, commutes, regular_bimodule
from .exactlin import (Matrix, Nonzeros, Subspace, Vector, _canonical, _dense,
                       _primitive_pairs, _scaled, _solve_augmented, nullspace_sparse,
                       quotient_dim)


@dataclass(frozen=True)
class LinearMap:
    """Linear map A -> M as a module_dim x algebra_dim matrix; column j is
    the image of basis vector e_j."""

    matrix: Matrix

    @property
    def algebra_dim(self) -> int:
        return self.matrix.cols

    @property
    def module_dim(self) -> int:
        return self.matrix.rows

    def apply(self, x: Sequence[Fraction]) -> Vector:
        return self.matrix.mul_vec(x)

    def flatten(self) -> Vector:
        m = self.matrix
        return _dense(((k * m.rows + p, x) for p, row in enumerate(m.nonzeros)
                       for k, x in row), m.rows * m.cols)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix - other.matrix)

    def scale(self, c: Fraction) -> "LinearMap":
        return LinearMap(self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def _unflatten_nonzeros(flat: Nonzeros, module_dim: int, algebra_dim: int) -> LinearMap:
    """The map whose flattened coordinates have the nonzeros flat: index
    k*module_dim + p is row p, column k."""
    return LinearMap(Matrix.from_triples(module_dim, algebra_dim, (
        (t % module_dim, t // module_dim, x) for t, x in flat)))


@dataclass(frozen=True)
class Derivation:
    """A linear map and the pair (algebra, bimodule) it was certified on.
    certify() is the honest constructor; a direct call, the door of negative
    controls, skips the Leibniz check but not the shape check.  == compares
    the pair; hash leaves it out, as hashing its tables takes ms at M_8."""

    linmap: LinearMap
    algebra: Algebra = field(hash=False)
    bimodule: Bimodule = field(hash=False)

    def __post_init__(self):
        if (self.matrix.cols, self.matrix.rows) != (self.algebra.dim, self.bimodule.dim):
            raise ValueError("map shape does not match the algebra/bimodule pair")

    def apply(self, x: Sequence[Fraction]) -> Vector:
        return self.linmap.apply(x)

    @property
    def matrix(self) -> Matrix:
        return self.linmap.matrix


def _check_derivation(d: Derivation, a: Algebra, m: Bimodule, what: str) -> None:
    """The guard of every function that takes a derivation of a given pair:
    d must have been certified on (a, m), the pair of what."""
    if (d.algebra, d.bimodule) != (a, m):
        raise ValueError(f"{what} requires a derivation certified on its pair")


def leibniz_failures(a: Algebra, m: Bimodule, f: LinearMap,
                     stop_early: bool = True) -> list[tuple[int, int]]:
    """Basis pairs (i, j) where delta(e_i e_j) != delta(e_i).e_j + e_i.delta(e_j),
    in lexicographic order (only the first one when stop_early).

    Only the nonzero entries of f are read: they are scaled to integers by
    the lcm of their denominators (exactlin._scaled) and kept as sparse
    columns and rows.  The residual is checked scaled by lcm(L_a, L_m) =
    L_a*L_m/g: the table view meets the map times L_m/g and the action views
    meet it times L_a/g.  The residuals of a row i are summed in one dict keyed by j*md + q, for
    the pair (i, j) and module coordinate q, over the nonzero products only:
    the products e_i e_j that name a nonzero column k of f (found through
    Algebra.int_producers) against that column, the nonzeros p of column i
    against row p of the right table, and row i of the left table against
    the rows of f.
    """
    if f.algebra_dim != a.dim or f.module_dim != m.dim:
        raise ValueError("map shape does not match the algebra/bimodule pair")
    d, md = a.dim, m.dim
    la = a.int_table[0]
    lm, left, right = m.int_tables
    nz = [(p, k, x) for p, row in enumerate(f.matrix.nonzeros) for k, x in row]
    g = gcd(la, lm)
    at_t, at_m = lm // g, la // g                   # table and action scales
    cols_t: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    cols_m: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    rows_m: list[list[tuple[int, int]]] = [[] for _ in range(md)]
    for (p, k, _), v in zip(nz, _scaled([x for _, _, x in nz])[1]):
        cols_t[k].append((p, at_t * v))
        cols_m[k].append((p, at_m * v))
        rows_m[p].append((k * md, at_m * v))
    # the products e_i e_j with a nonzero column k of f, as (j*md, c, column)
    products: list[list[tuple[int, int, list[tuple[int, int]]]]] = [[] for _ in range(d)]
    for k, col in enumerate(cols_t):
        if col:
            for i, j, c in a.int_producers[k]:
                products[i].append((j * md, c, col))
    bad: list[tuple[int, int]] = []
    for i in range(d):
        acc: dict[int, int] = {}
        for base, c, col in products[i]:             # delta(e_i e_j)
            for q, v in col:
                key = base + q
                acc[key] = acc.get(key, 0) + c * v
        for p, v in cols_m[i]:                       # - delta(e_i).e_j
            for j, cell in right[p]:
                for q, c in cell:
                    key = j * md + q
                    acc[key] = acc.get(key, 0) - v * c
        for p, cell in left[i]:                      # - e_i.delta(e_j)
            for base, v in rows_m[p]:
                for q, c in cell:
                    key = base + q
                    acc[key] = acc.get(key, 0) - v * c
        failing = sorted({key // md for key, x in acc.items() if x})
        if failing:
            if stop_early:
                return [(i, failing[0])]
            bad.extend((i, j) for j in failing)
    return bad


def certify(a: Algebra, m: Bimodule, f: LinearMap) -> Derivation:
    """f as a derivation of (a, m), or ValueError at the first basis pair that
    breaks the Leibniz rule of these tables.  It checks dimensions, not the
    axioms of the pair: callers pass validated pairs or a Jordan pair."""
    bad = leibniz_failures(a, m, f)
    if bad:
        i, j = bad[0]
        raise ValueError(f"map violates the Leibniz rule at basis pair ({i},{j})")
    return Derivation(f, a, m)


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------

def _by_output(table: Table, scale: int, md: int) -> list[list[list[tuple[int, int]]]]:
    """out[i][q] = [(p, -scale*c)] over the entries (q, c) of table[i][p]."""
    out = []
    for row in table:
        by_q = [[] for _ in range(md)]
        for p, cell in row:
            for q, c in cell:
                by_q[q].append((p, -scale * c))
        out.append(by_q)
    return out


def _merge(x: Sequence, y: Sequence) -> tuple:
    """The sum of two sparse (index, value) lists, sorted, zeros dropped; the
    values may be such lists (the cells of two table rows)."""
    acc = dict(x)
    for c, v in y:
        acc[c] = _merge(acc.get(c, ()), v) if isinstance(v, tuple) else acc.get(c, 0) + v
    return tuple(sorted([cv for cv in acc.items() if cv[1]]))


def jordan_pair(a: Algebra, m: Bimodule) -> tuple[Algebra, Bimodule]:
    """The Jordan pair of (a, m): the product x o y = xy + yx with unit 1/2,
    acting on m by x o f = f o x = x.f + f.x.  It is commutative and not
    associative, and its derivations are the Jordan derivations of (a, m):
    delta(xy + yx) = delta(x).y + x.delta(y) + delta(y).x + y.delta(x)."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    # row i of t plus column i of u: t[i][p] + u[p][i]
    table, left = (tuple(map(_merge, t, _transpose(u, a.dim))) for t, u in (
        (a.table, a.table), (m.left_table, m.right_table)))
    return (Algebra(a.dim, a.labels, tuple(u / 2 for u in a.unit), table),
            Bimodule(m.dim, a.dim, left, _transpose(left, m.dim)))


def _constraint_rows(a: Algebra, m: Bimodule, generators: Sequence[int] | None = None
                     ) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sparse constraint rows as canonical keys (exactlin._canonical), in
    (i, j, module coordinate q) order of their first emission, of
    delta(e_i e_j) - delta(e_i).e_j - e_i.delta(e_j) = 0, for the i in
    generators (default: all).  On the full visit, when a is commutative and
    commutes with m (every Jordan pair, and every pair of the paper's third
    theorem), the rows of (i, j) and (j, i) are equal, so only i <= j is
    visited.

    Each row is read off the integer views times lcm(L_a, L_m) = L_a*L_m/g,
    as the sum of up to three terms: the product term table[i][j] at output
    q (columns k*md + q), the part placed at block i (columns i*md + p), the
    right action of e_j on the q-th output, and the part placed at block j,
    the left action of e_i.

    A row with one nonempty term is a shifted copy of a pattern that depends
    on fewer indices: the product term on (table cell, q), the block-i part
    on (j, q) shifted by i*md, the block-j part on (i, q) shifted by j*md.
    Each pattern is put in canonical form once; shifting a canonical key by
    a constant keeps it canonical, so each (pattern, shift) is emitted once.
    Rows with two or three terms are built and emitted one by one.  Only
    repeats disappear: the set of distinct keys is that of every (i, j, q).
    """
    symmetric = commutes(a, m) and commutes(a, regular_bimodule(a))
    d, md = a.dim, m.dim
    if generators is None:
        visits = ((i, range(i if symmetric else 0, d)) for i in range(d))
    else:
        visits = ((i, range(d)) for i in generators)
    la, table = a.int_table
    lm, left, right = m.int_tables
    g = gcd(la, lm)
    # at_i[j][q] = [(p, -R[p][j][q])] and at_j[i][q] = [(p, -L[i][p][q])], scaled
    at_i = _by_output(_transpose(right, d), la // g, md)
    at_j = _by_output(left, la // g, md)
    patterns: list[tuple[tuple[int, int], ...]] = []
    ids: dict[tuple[tuple[int, int], ...], int] = {}

    def intern(pairs: list[tuple[int, int]]) -> int:
        key = _canonical(pairs)
        if key not in ids:
            ids[key] = len(patterns)
            patterns.append(key)
        return ids[key]

    ids_i = [[intern(part) if part else -1 for part in by_q] for by_q in at_i]
    ids_j = [[intern(part) if part else -1 for part in by_q] for by_q in at_j]
    emitted: set[tuple[int, int]] = set()
    for i, js in visits:
        cells = dict(table[i])
        for j in js:
            image = [(k * md, lm // g * c) for k, c in cells.get(j, ())]
            pid = intern(image) if image else -1
            ui, uj, base_i, base_j = at_i[j], at_j[i], i * md, j * md
            for q in range(md):
                u, v = ui[q], uj[q]
                if image and (u or v) or u and v:
                    row: dict[int, int] = {}
                    for base, c in image:        # + delta(e_i e_j): column k*md+q
                        row[base + q] = c
                    for p, x in u:               # block i: column i*md+p
                        row[base_i + p] = row.get(base_i + p, 0) + x
                    for p, x in v:               # block j: column j*md+p
                        row[base_j + p] = row.get(base_j + p, 0) + x
                    pairs = sorted([cv for cv in row.items() if cv[1]])
                    if pairs:
                        yield _canonical(pairs)
                    continue
                if image:
                    key = (pid, q)
                elif u:
                    key = (ids_i[j][q], base_i)
                elif v:
                    key = (ids_j[i][q], base_j)
                else:
                    continue
                if key not in emitted:
                    emitted.add(key)
                    pattern, shift = patterns[key[0]], key[1]
                    yield tuple([(c + shift, x) for c, x in pattern])


@dataclass(frozen=True)
class DerivationSpace:
    """Canonical basis of Der(A, M) plus its flattened-coordinate subspace."""

    algebra: Algebra
    bimodule: Bimodule
    basis: tuple[Derivation, ...]
    subspace: Subspace

    @property
    def dim(self) -> int:
        return len(self.basis)


def derivation_space(a: Algebra, m: Bimodule,
                     generators: Sequence[int] | None = None) -> DerivationSpace:
    """All derivations A -> M, as the nullspace of the Leibniz constraints of
    the tables of (a, m); certify certifies every basis map on (a, m).
    generators (basis indices) limits the left factors of the rule.  On an
    associative pair that they generate, the space is unchanged: the x that
    satisfy the rule against every y form a subalgebra.  Fewer rows can only
    enlarge the nullspace, and certify raises ValueError on a larger one."""
    if generators is not None:
        generators = tuple(generators)
        if not all(0 <= g < a.dim for g in generators):
            raise ValueError("generator index out of range for the algebra")
    sub = nullspace_sparse(_constraint_rows(a, m, generators), a.dim * m.dim)
    basis = tuple(certify(a, m, _unflatten_nonzeros(v, m.dim, a.dim))
                  for v in sub.nonzeros)
    return DerivationSpace(a, m, basis, sub)


def jordan_derivation_space(a: Algebra, m: Bimodule) -> DerivationSpace:
    """All Jordan derivations of (a, m), as the derivations of its Jordan
    pair: each basis map is certified on that pair, not on (a, m)."""
    return derivation_space(*jordan_pair(a, m))


# ---------------------------------------------------------------------------
# inner derivations
# ---------------------------------------------------------------------------

def _inner_columns(m: Bimodule, left_by_p: Table,
                   nz: Sequence[tuple[int, int]]) -> list[dict[int, int]]:
    """Column j of delta_w times L_m as {q: value}, zeros kept, for the integer
    nonzeros (p, w_p) of w: sum_p w_p (f_p.e_j - e_j.f_p), from row p of right
    and of left_by_p, the integer left table transposed."""
    cols: list[dict[int, int]] = [{} for _ in range(m.algebra_dim)]
    for sign, table in ((1, m.int_tables[2]), (-1, left_by_p)):
        for p, wp in nz:
            for j, cell in table[p]:
                col = cols[j]
                for q, c in cell:
                    col[q] = col.get(q, 0) + sign * wp * c
    return cols


def inner_derivation(a: Algebra, m: Bimodule, w: Sequence[Fraction]) -> Derivation:
    """delta_w(x) = w.x - x.w, a derivation when m is a bimodule over a (trusted,
    not checked): _inner_columns of w times the lcm s of its denominators, / s*L_m."""
    if len(w) != m.dim:
        raise ValueError("witness length does not match module dimension")
    den, nums = _scaled(w)
    nz = [(p, v) for p, v in enumerate(nums) if v]
    cols = _inner_columns(m, _transpose(m.int_tables[1], m.dim), nz)
    s = m.int_tables[0] * den
    triples = [(q, j, Fraction(x, s)) for j, col in enumerate(cols) for q, x in col.items() if x]
    return Derivation(LinearMap(Matrix.from_triples(m.dim, a.dim, triples)), a, m)


def _inner_rows(m: Bimodule) -> list[dict[int, int]]:
    """Row j*md + q of the (d*md) x md matrix of w -> delta_w times L_m, as {p: value}
    over its nonzeros: the columns delta_{f_p} of _inner_columns, transposed."""
    rows: list[dict[int, int]] = [{} for _ in range(m.algebra_dim * m.dim)]
    left_by_p = _transpose(m.int_tables[1], m.dim)
    for p in range(m.dim):
        for j, col in enumerate(_inner_columns(m, left_by_p, ((p, 1),))):
            for q, x in col.items():
                if x:
                    rows[j * m.dim + q][p] = x
    return rows


@dataclass(frozen=True)
class InnerSpace:
    image: Subspace
    kernel: Subspace


def inner_space(a: Algebra, m: Bimodule) -> InnerSpace:
    """Image (flattened inner derivations) and kernel (module elements
    commuting with the whole algebra) of w -> delta_w: the span of the sparse
    columns and the nullspace of the rows of _inner_rows, as canonical keys."""
    rows = _inner_rows(m)
    cols: list[dict[int, int]] = [{} for _ in range(m.dim)]
    for t, row in enumerate(rows):
        for p, x in row.items():
            cols[p][t] = x
    return InnerSpace(Subspace.from_span(cols, a.dim * m.dim),
                      nullspace_sparse((_canonical(sorted(r.items())) for r in rows if r), m.dim))


def is_inner(d: Derivation) -> Vector | None:
    """A witness w with d = delta_w on d's own pair (free coordinates zero), or
    None: each row of _inner_rows gets d's flattened coordinate times L_m as right side."""
    md, lm = d.bimodule.dim, d.bimodule.int_tables[0]
    flat = {k * md + p: lm * x for p, row in enumerate(d.matrix.nonzeros) for k, x in row}
    return _solve_augmented((_primitive_pairs([*row.items(), (md, flat.get(t, 0))])
                             for t, row in enumerate(_inner_rows(d.bimodule))), md)


def h1_dim(a: Algebra, m: Bimodule) -> int:
    """dim Der(A,M) - dim Inner(A,M), the first Hochschild cohomology size."""
    inner = inner_space(a, m)
    der = derivation_space(a, m)
    return quotient_dim(inner.image, der.subspace)
