"""Finite-dimensional algebras with a unit over Q, by structure constants.

An Algebra stores its structure constants as a sparse table: table[i][j] is
the tuple of (k, c) pairs with e_i e_j = sum c e_k, every c nonzero and k
strictly increasing, together with the coordinates of its unit.  A Bimodule
over an algebra stores its left and right actions as tables of the same
form.  The canonical form makes equal algebras have equal tables.  The dense
tensor mult[i][j][k] and the integer views (int_table, int_tables: the
tables times the lcm of their denominators) are derived views, built on
first use.
Elements are plain tuples of Fraction over the owning basis; multiply and
both sides of act are one table-product kernel, which visits only the
nonzeros of its two operands.

Validators check the defining axioms on every basis tuple and report each
violation with the offending indices and both expansions.  Both expand the
associativity axioms from the tables, summing only the products that occur
and skipping a tuple whose two input cells are both empty.  No other
function checks the axioms; dercalc names the ones that need them.

Every catalog entry is a basis of matrices: from_matrices reads the table
and the unit off one RREF of the basis, its products and the identity.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Mapping, Sequence

from .exactlin import (ZERO, Vector, _dense, _echelonize, _nonzeros, _primitive_pairs,
                       _scaled, basis_vec)

Tensor3 = tuple[tuple[Vector, ...], ...]


def past_digit_limit(fmt):
    """Rerun a formatter of exact values with Python's int digit limit lifted
    if it hits it: results may exceed the limit that parsing is held to."""
    @wraps(fmt)
    def wrapper(*args, **kwargs):
        try:
            return fmt(*args, **kwargs)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return fmt(*args, **kwargs)
            finally:
                sys.set_int_max_str_digits(limit)
    return wrapper


def clipped(text: str) -> str:
    """The repr of text for an error message, cut to 100 characters and its length."""
    return repr(text) if len(text) <= 100 else f"{text[:100]!r}... ({len(text)} characters)"


SparseEntry = tuple[int, Fraction]

Table = tuple[tuple[tuple[SparseEntry, ...], ...], ...]


def _table(dim0: int, dim1: int, dim2: int,
           triples: Mapping[tuple[int, int, int], Fraction]) -> Table:
    cells: list[list[dict[int, Fraction]]] = [[{} for _ in range(dim1)]
                                              for _ in range(dim0)]
    for (i, j, k), c in triples.items():
        if not (0 <= i < dim0 and 0 <= j < dim1 and 0 <= k < dim2):
            raise ValueError(f"structure constant index {(i, j, k)} out of range")
        c = Fraction(c)
        if c:
            cells[i][j][k] = c
    return tuple(tuple(tuple(sorted(cell.items())) for cell in plane)
                 for plane in cells)


def _check_table(table: Table, dim0: int, dim1: int, dim2: int, what: str) -> None:
    """Raise unless table has shape dim0 x dim1 and every cell lists nonzero
    coefficients at strictly increasing indices below dim2."""
    if len(table) != dim0 or any(len(plane) != dim1 for plane in table):
        raise ValueError(f"{what} table shape mismatch")
    for i, plane in enumerate(table):
        for j, cell in enumerate(plane):
            prev = -1
            for k, c in cell:
                if not prev < k < dim2:
                    raise ValueError(f"{what} table cell {(i, j)}: index {k} "
                                     "out of range or out of order")
                if not c:
                    raise ValueError(f"{what} table cell {(i, j)}: zero "
                                     f"coefficient at index {k}")
                prev = k


def _int_view(*tables: Table) -> tuple:
    """(L, *views): L is the positive lcm of the denominators of all the
    tables' coefficients, and each view is its table times L, in ints."""
    scale, nums = _scaled([c for t in tables for plane in t for cell in plane
                           for _, c in cell])
    it = iter(nums)
    return (scale, *(tuple(tuple(tuple([(k, next(it)) for k, _ in cell]) if cell else ()
                                 for cell in plane) for plane in t) for t in tables))


@dataclass(frozen=True)
class Algebra:
    """Algebra with a unit given by basis labels, unit and the sparse table of
    its structure constants; validate_algebra checks that it is associative."""

    dim: int
    labels: tuple[str, ...]
    unit: Vector
    table: Table

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("algebra dimension must be positive")
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise ValueError("labels/unit length does not match dim")
        _check_table(self.table, self.dim, self.dim, self.dim, "mult")

    @classmethod
    def from_sparse(cls, dim: int, labels: Sequence[str], unit: Sequence,
                    triples: Mapping[tuple[int, int, int], Fraction]) -> "Algebra":
        return cls(dim, tuple(labels), tuple(Fraction(u) for u in unit),
                   _table(dim, dim, dim, triples))

    @cached_property
    def mult(self) -> Tensor3:
        """Dense view: mult[i][j][k] is the coefficient of e_k in e_i e_j."""
        return tuple(tuple(_dense(cell, self.dim) for cell in plane) for plane in self.table)

    @cached_property
    def int_table(self) -> tuple:
        """Integer view (L_a, table times L_a), L_a the lcm of its denominators."""
        return _int_view(self.table)

    @cached_property
    def int_producers(self) -> tuple:
        """For each basis index k, the (i, j, c) with c != 0 the coefficient of
        e_k in e_i e_j in the integer view, in (i, j) order."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]
        for i, plane in enumerate(self.int_table[1]):
            for j, cell in enumerate(plane):
                for k, c in cell:
                    out[k].append((i, j, c))
        return tuple(map(tuple, out))


@dataclass(frozen=True)
class Bimodule:
    """Bimodule over an Algebra: left_table[i][p] lists e_i . f_p and
    right_table[p][i] lists f_p . e_i, in the sparse form of Algebra.table."""

    dim: int
    algebra_dim: int
    left_table: Table
    right_table: Table

    def __post_init__(self):
        if self.dim < 1 or self.algebra_dim < 1:
            raise ValueError("dimensions must be positive")
        _check_table(self.left_table, self.algebra_dim, self.dim, self.dim, "left")
        _check_table(self.right_table, self.dim, self.algebra_dim, self.dim, "right")

    @classmethod
    def from_sparse(cls, dim: int, algebra_dim: int,
                    left_triples: Mapping[tuple[int, int, int], Fraction],
                    right_triples: Mapping[tuple[int, int, int], Fraction]) -> "Bimodule":
        """left_triples maps (i, p, q) and right_triples maps (p, i, q) to the
        coefficient of f_q in e_i . f_p and f_p . e_i."""
        return cls(dim, algebra_dim,
                   _table(algebra_dim, dim, dim, left_triples),
                   _table(dim, algebra_dim, dim, right_triples))

    @cached_property
    def int_tables(self) -> tuple:
        """Integer view (L_m, left, right): both tables times their joint lcm;
        one table (the regular bimodule's) is converted once."""
        left, right = self.left_table, self.right_table
        scale, *views = _int_view(left) if right is left else _int_view(left, right)
        return scale, views[0], views[-1]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def _product(table: Table, x: Sequence[Fraction], y: Sequence[Fraction],
             dim: int) -> Vector:
    """sum x_i y_j table[i][j] in dim coordinates, over the nonzeros of x and
    of y only."""
    acc = [ZERO] * dim
    y_nz = _nonzeros(y)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in y_nz:
            s = xi * yj
            for k, c in row[j]:
                acc[k] += s * c
    return tuple(acc)


def multiply(a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Product of two elements in a's basis coordinates."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("element length does not match algebra dimension")
    return _product(a.table, x, y, a.dim)


def act(m: Bimodule, side: str, a_coords: Sequence[Fraction],
        f_coords: Sequence[Fraction]) -> Vector:
    """Left action a.f (side="left") or right action f.a (side="right")."""
    if len(a_coords) != m.algebra_dim or len(f_coords) != m.dim:
        raise ValueError("element length mismatch in module action")
    if side == "left":
        return _product(m.left_table, a_coords, f_coords, m.dim)
    if side == "right":
        return _product(m.right_table, f_coords, a_coords, m.dim)
    raise ValueError(f"unknown side {side!r}")


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra acting on itself on both sides."""
    # e_i . e_p and e_p . e_i are both products in a, so both tables are a's
    return Bimodule(a.dim, a.dim, a.table, a.table)


def commutes(a: Algebra, m: Bimodule) -> bool:
    """True iff x.f = f.x for all basis x of a and basis f of m."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    # left[i] against column i of right, up to the first unequal cell
    return all(row == col for row, col in zip(m.left_table, zip(*m.right_table)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector

    @past_digit_limit
    def describe(self, labels: Sequence[str] | None = None) -> str:
        if labels:
            where = ",".join(labels[i] for i in self.indices)
        else:
            where = ",".join(str(i) for i in self.indices)
        lhs = " ".join(str(c) for c in self.lhs)
        rhs = " ".join(str(c) for c in self.rhs)
        return f"{self.axiom} violated at ({where}): lhs=[{lhs}] rhs=[{rhs}]"


def _expand(cell: tuple[SparseEntry, ...],
            rows: Sequence[tuple[SparseEntry, ...]]) -> dict[int, Fraction]:
    """The nonzero coordinates of sum c * rows[t] over the entries (t, c) of a
    table cell, where each rows[t] is a table cell too."""
    acc: dict[int, Fraction] = {}
    for t, c in cell:
        for s, c2 in rows[t]:
            acc[s] = acc.get(s, ZERO) + c * c2
    return {s: v for s, v in acc.items() if v}


def _report(out: list[Violation], dim: int, axiom: str, indices: tuple[int, ...],
            lhs: dict[int, Fraction], rhs: dict[int, Fraction]) -> None:
    """Append a violation of axiom at indices, both sides as dense vectors of
    dim coordinates, unless the expansions lhs and rhs agree."""
    if lhs != rhs:
        out.append(Violation(axiom, indices,
                             tuple(lhs.get(q, ZERO) for q in range(dim)),
                             tuple(rhs.get(q, ZERO) for q in range(dim))))


def validate_algebra(a: Algebra) -> list[Violation]:
    """Check both unit laws and associativity on all basis triples.

    Returns an empty list exactly when a is a unital associative algebra.
    Unit laws are checked first so a broken unit is reported before the
    associativity failures it usually drags along.  Associativity
    (e_i e_j) e_k = e_i (e_j e_k) is expanded from the table, and a triple
    whose two input cells e_i e_j and e_j e_k are both empty is skipped.
    """
    out: list[Violation] = []
    dim = a.dim
    for j in range(dim):
        ej = basis_vec(dim, j)
        lhs = multiply(a, a.unit, ej)
        if lhs != ej:
            out.append(Violation("left unit law", (j,), lhs, ej))
        rhs = multiply(a, ej, a.unit)
        if rhs != ej:
            out.append(Violation("right unit law", (j,), rhs, ej))
    table = a.table
    by_k = tuple(zip(*table))                   # by_k[k][t] = table[t][k]
    for i in range(dim):
        for j in range(dim):
            ij = table[i][j]
            for k in range(dim):
                if ij or table[j][k]:
                    _report(out, dim, "associativity", (i, j, k),
                            _expand(ij, by_k[k]), _expand(table[j][k], table[i]))
    return out


def validate_bimodule(a: Algebra, m: Bimodule) -> list[Violation]:
    """Check the four bimodule axioms on all basis tuples:
    (xy).f = x.(y.f), f.(xy) = (f.x).y, (x.f).y = x.(f.y), 1.f = f = f.1.

    The unit actions are checked first.  Each associativity axiom is expanded
    from the tables on the basis tuple, so only products that appear in the
    tables are summed, and a tuple whose two input cells are both empty is
    skipped; both sides are reported as dense vectors.
    """
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    out: list[Violation] = []
    dim, mdim = a.dim, m.dim
    for p in range(mdim):
        fp = basis_vec(mdim, p)
        lhs = act(m, "left", a.unit, fp)
        if lhs != fp:
            out.append(Violation("left unit action", (p,), lhs, fp))
        rhs = act(m, "right", a.unit, fp)
        if rhs != fp:
            out.append(Violation("right unit action", (p,), rhs, fp))
    left, right = m.left_table, m.right_table
    # left_by_p[p][t] = left[t][p] and right_by_j[j][s] = right[s][j]
    left_by_p = tuple(zip(*left))
    right_by_j = tuple(zip(*right))
    # each side expands one input cell, so when both cells are empty both
    # sides are zero and the axiom holds on that tuple
    for i in range(dim):
        left_i = left[i]
        for j in range(dim):
            ij, left_j, right_at_j = a.table[i][j], left[j], right_by_j[j]
            for p in range(mdim):
                if ij or left_j[p]:                                # (e_i e_j).f_p
                    _report(out, mdim, "left associativity", (i, j, p),
                            _expand(ij, left_by_p[p]), _expand(left_j[p], left_i))
                if ij or right[p][i]:                              # f_p.(e_i e_j)
                    _report(out, mdim, "right associativity", (p, i, j),
                            _expand(ij, right[p]), _expand(right[p][i], right_at_j))
                if left_i[p] or right[p][j]:                       # (e_i.f_p).e_j
                    _report(out, mdim, "mixed associativity", (i, p, j),
                            _expand(left_i[p], right_at_j), _expand(right[p][j], left_i))
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def from_matrices(labels: Sequence[str], mats: Sequence[Sequence[Sequence]]) -> Algebra:
    """The algebra with basis e_i = mats[i], square matrices of one size
    labelled labels[i], under the matrix product.

    The basis, the products mats[i] mats[j] in (i, j) order and the identity
    are the columns of one system, reduced by _echelonize (the RREF kernel of
    Subspace.from_span, which bench/layers.py times as the span layer); the
    column of a product or of the identity then holds its coordinates in the
    basis.  Raises ValueError if the basis is dependent, a product leaves its
    span or the identity is not in it."""
    d, k = len(mats), len(mats[0]) if mats else 0
    if len(labels) != d or any(len(r) != k for m in mats for r in (m, *m)):
        raise ValueError("need one label per basis matrix, all square of one size")
    cols = [*mats, *([[sum(x[r][t] * y[t][s] for t in range(k)) for s in range(k)]
                      for r in range(k)] for x in mats for y in mats),
            [[int(r == s) for s in range(k)] for r in range(k)]]
    rref = _echelonize([_primitive_pairs((c, m[r][s]) for c, m in enumerate(cols))
                        for r in range(k) for s in range(k)], len(cols))
    pivots = tuple(p for p, _ in rref)
    if pivots[:d] != tuple(range(d)):
        raise ValueError("the basis matrices are linearly dependent")
    if len(pivots) > d:                      # the first column outside the span
        p = pivots[d] - d
        what = "the identity" if p == d * d else f"the product {labels[p // d]}*{labels[p % d]}"
        raise ValueError(f"{what} is not in the span of the basis matrices")
    # x at pivot t and column d + q, for q = i*d + j (e_i e_j) or d*d (the unit)
    found = [(c - d, t, x) for t, row in rref for c, x in row if c >= d]
    unit = _dense([(t, x) for q, t, x in found if q == d * d], d)
    return Algebra.from_sparse(d, labels, unit,
                               {(q // d, q % d, t): x for q, t, x in found if q < d * d})


_I2, _E12 = ((1, 0), (0, 1)), ((0, 1), (0, 0))
_E11, _E21, _E22 = ((1, 0), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))

# name: (labels, basis matrices)
_CATALOG = {
    "field": (("1",), [((1,),)]),
    "dual_numbers": (("1", "eps"), [_I2, _E12]),                  # eps^2 = 0
    "group_algebra_C2": (("1", "g"), [_I2, ((0, 1), (1, 0))]),    # g^2 = 1
    "full_matrix_2": (("E11", "E12", "E21", "E22"), [_E11, _E12, _E21, _E22]),
    "upper_triangular_2": (("E11", "E12", "E22"), [_E11, _E12, _E22]),
}


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Product algebra with componentwise operations and unit (1_a, 1_b)."""
    dim = a.dim + b.dim
    labels = tuple(f"({lab},0)" for lab in a.labels) + tuple(f"(0,{lab})" for lab in b.labels)
    unit = tuple(a.unit) + tuple(b.unit)
    shifted = tuple(tuple(tuple((a.dim + k, c) for k, c in cell) for cell in plane)
                    for plane in b.table)
    table = (tuple(plane + ((),) * b.dim for plane in a.table)
             + tuple(((),) * a.dim + plane for plane in shifted))
    return Algebra(dim, labels, unit, table)


CATALOG_NAMES = tuple(_CATALOG) + ("direct_sum(x,y)",)

_DIRECT_SUM_RE = re.compile(r"^direct_sum\((.*)\)$")


def _split_args(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for t, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:t])
            start = t + 1
    parts.append(body[start:])
    return [p.strip() for p in parts]


def catalog_algebra(name: str) -> Algebra:
    name = name.strip()
    if name in _CATALOG:
        return from_matrices(*_CATALOG[name])
    m = _DIRECT_SUM_RE.match(name)
    if m:
        args = _split_args(m.group(1))
        if len(args) != 2:
            raise ValueError(f"direct_sum takes two arguments, got {len(args)}")
        return direct_sum(catalog_algebra(args[0]), catalog_algebra(args[1]))
    raise ValueError(f"unknown catalog algebra {clipped(name)}")


def catalog(name: str) -> tuple[Algebra, Bimodule]:
    """Named example algebra with its regular bimodule."""
    a = catalog_algebra(name)
    return a, regular_bimodule(a)
