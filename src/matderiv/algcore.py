"""Finite-dimensional algebras with a unit over Q, by structure constants.

An Algebra stores its structure constants as a table of its nonempty cells:
row i lists the (j, cell) with e_i e_j != 0, and the cell the (k, c)
with e_i e_j = sum c e_k, c != 0, j and k strictly increasing.  A Bimodule
stores its left and right actions as tables of the same form.  Equal
algebras have equal tables; _transpose exchanges rows and columns.  The
dense tensor mult[i][j][k], the regular bimodule and the integer views
(int_table, int_tables: the tables times the lcm of their denominators, one
for an algebra and its regular bimodule) are built on first use.
Elements are plain tuples of Fraction over the owning basis; multiply and
both sides of act are one table-product kernel, which visits only the
nonzeros of its left operand and the cells of their rows.

Validators check the defining axioms on every basis tuple and report each
violation with the offending indices and the nonzeros of both sides.  Every
axiom, the unit laws included, is expanded from the tables by one kernel,
which sums only the products that occur; no tuple whose two input cells are
both empty is visited.  No other function checks the axioms; dercalc names
the ones that need them.

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

from .exactlin import (ONE, ZERO, Nonzeros, Vector, _dense, _echelonize, _nonzeros,
                       _primitive_pairs, _scaled)

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


def clipped(value: object) -> str:
    """repr(value) for an error message, cut to 100 characters (a string before its repr)."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    return show(text) if len(text) <= 100 else f"{show(text[:100])}... ({len(text)} characters)"


SparseEntry = tuple[int, Fraction]

Cell = tuple[SparseEntry, ...]
Table = tuple[tuple[tuple[int, Cell], ...], ...]


def _table(dim0: int, dim1: int, dim2: int,
           triples: Mapping[tuple[int, int, int], Fraction]) -> Table:
    rows: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(dim0)]
    for (i, j, k), c in triples.items():
        if not (0 <= i < dim0 and 0 <= j < dim1 and 0 <= k < dim2):
            raise ValueError(f"structure constant index {(i, j, k)} out of range")
        c = Fraction(c)
        if c:
            rows[i].setdefault(j, {})[k] = c
    return tuple(tuple((j, tuple(sorted(cell.items()))) for j, cell in sorted(row.items()))
                 for row in rows)


def _check_table(table: Table, dim0: int, dim1: int, dim2: int, what: str) -> None:
    """Raise unless table has dim0 rows, each listing nonempty cells at
    strictly increasing columns below dim1, and every cell lists nonzero
    coefficients at strictly increasing indices below dim2."""
    if len(table) != dim0:
        raise ValueError(f"{what} table shape mismatch")
    for i, row in enumerate(table):
        for pairs, bound in ((row, dim1), *((cell, dim2) for _, cell in row)):
            prev = -1
            for k, x in pairs:
                if not (prev < k < bound and x):
                    raise ValueError(f"{what} table row {i}: entry {k} out of range, "
                                     "out of order, empty or zero")
                prev = k


def _transpose(table: Table, dim1: int) -> Table:
    """A table of dim1 columns with rows and columns exchanged: row j lists
    the (i, table[i][j]), i increasing."""
    out: list[list[tuple[int, Cell]]] = [[] for _ in range(dim1)]
    for i, row in enumerate(table):
        for j, cell in row:
            out[j].append((i, cell))
    return tuple(map(tuple, out))


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
        dim, zero = self.dim, _dense((), self.dim)
        return tuple(tuple(_dense(cells[j], dim) if j in cells else zero for j in range(dim))
                     for cells in map(dict, self.table))

    @cached_property
    def regular(self) -> "Bimodule":
        """The regular bimodule: both tables are this one."""
        return Bimodule(self.dim, self.dim, self.table, self.table)

    @cached_property
    def int_table(self) -> tuple:
        """Integer view (L_a, table times L_a), L_a the lcm of its denominators:
        the regular bimodule's."""
        return self.regular.int_tables[:2]

    @cached_property
    def int_producers(self) -> tuple:
        """For each basis index k, the (i, j, c) with c != 0 the coefficient of
        e_k in e_i e_j in the integer view, in (i, j) order."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.int_table[1]):
            for j, cell in row:
                for k, c in cell:
                    out[k].append((i, j, c))
        return tuple(map(tuple, out))


@dataclass(frozen=True)
class Bimodule:
    """Bimodule over an Algebra: left_table holds e_i . f_p in row i, column p
    and right_table f_p . e_i in row p, column i, as Algebra.table does."""

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
        tables = (left,) if right is left else (left, right)
        scale, nums = _scaled([c for t in tables for row in t for _, cell in row
                               for _, c in cell])
        it = iter(nums)
        views = [tuple(tuple([(j, tuple([(k, next(it)) for k, _ in cell])) for j, cell in row])
                       for row in t) for t in tables]
        return scale, views[0], views[-1]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def _product(table: Table, x: Sequence[Fraction], y: Sequence[Fraction],
             dim: int) -> Vector:
    """sum x_i y_j table[i][j] in dim coordinates, over the nonzeros of x and
    the cells of their rows only."""
    acc = [ZERO] * dim
    for i, xi in enumerate(x):
        for j, cell in table[i] if xi else ():
            s = xi * y[j]
            for k, c in cell if s else ():
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
    """The algebra acting on itself on both sides: Algebra.regular."""
    return a.regular


def commutes(a: Algebra, m: Bimodule) -> bool:
    """True iff x.f = f.x for all basis x of a and basis f of m."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    return m.left_table == _transpose(m.right_table, a.dim)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """An axiom failing at a basis tuple: both sides are the nonzeros of
    vectors of dim coordinates."""
    axiom: str
    indices: tuple[int, ...]
    dim: int
    lhs: Nonzeros
    rhs: Nonzeros

    @past_digit_limit
    def describe(self, labels: Sequence[str] | None = None) -> str:
        if labels:
            where = ",".join(labels[i] for i in self.indices)
        else:
            where = ",".join(str(i) for i in self.indices)
        lhs = " ".join(str(c) for c in _dense(self.lhs, self.dim))
        rhs = " ".join(str(c) for c in _dense(self.rhs, self.dim))
        return f"{self.axiom} violated at ({where}): lhs=[{lhs}] rhs=[{rhs}]"


def _expand(cell: Cell, cells: Mapping[int, Cell]) -> dict[int, Fraction]:
    """The nonzero coordinates of sum c * cells.get(t, ()) over the entries
    (t, c) of a table cell, for cells a dict of a table row or column."""
    acc: dict[int, Fraction] = {}
    for t, c in cell:
        for s, c2 in cells.get(t, ()):
            acc[s] = acc.get(s, ZERO) + c * c2
    return {s: v for s, v in acc.items() if v}


def _report(out: list[Violation], dim: int, axiom: str, indices: tuple[int, ...],
            lhs: dict[int, Fraction], rhs: dict[int, Fraction]) -> None:
    """Append a violation of axiom at indices, on vectors of dim coordinates,
    unless the expansions lhs and rhs agree."""
    if lhs != rhs:
        out.append(Violation(axiom, indices, dim, tuple(sorted(lhs.items())),
                             tuple(sorted(rhs.items()))))


def validate_algebra(a: Algebra) -> list[Violation]:
    """Check both unit laws and associativity on all basis triples.

    Returns an empty list exactly when a is a unital associative algebra.
    Unit laws are checked first so a broken unit is reported before the
    associativity failures it usually drags along.  Each side is expanded
    from the table, and an associativity triple whose two input cells
    e_i e_j and e_j e_k are both empty is not visited.
    """
    out: list[Violation] = []
    dim, unit = a.dim, _nonzeros(a.unit)
    # rows[i][j] = e_i e_j and cols[k][t] = e_t e_k, as dicts
    rows, cols = (list(map(dict, t)) for t in (a.table, _transpose(a.table, dim)))
    for j in range(dim):                        # 1 e_j and e_j 1 against e_j
        _report(out, dim, "left unit law", (j,), _expand(unit, cols[j]), {j: ONE})
        _report(out, dim, "right unit law", (j,), _expand(unit, rows[j]), {j: ONE})
    live = {j for j, row in enumerate(rows) if row}
    for i, row_i in enumerate(rows):
        for j in sorted(live | row_i.keys()):
            ij, row_j = row_i.get(j, ()), rows[j]
            for k in range(dim) if ij else row_j:
                _report(out, dim, "associativity", (i, j, k),
                        _expand(ij, cols[k]), _expand(row_j.get(k, ()), row_i))
    return out


def validate_bimodule(a: Algebra, m: Bimodule) -> list[Violation]:
    """Check the four bimodule axioms on all basis tuples:
    (xy).f = x.(y.f), f.(xy) = (f.x).y, (x.f).y = x.(f.y), 1.f = f = f.1.

    The unit actions are checked first.  Each axiom is expanded from the
    tables on the basis tuple, so only products that appear in the tables
    are summed, and a tuple whose two input cells are both empty is not
    visited; both sides are reported by their nonzeros.
    """
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    out: list[Violation] = []
    dim, mdim, unit = a.dim, m.dim, _nonzeros(a.unit)
    # left[i][p] = e_i.f_p, right[p][i] = f_p.e_i, left_by_p[p][t] = e_t.f_p
    # and right_by_j[j][s] = f_s.e_j, as dicts
    left, right, left_by_p, right_by_j = (list(map(dict, t)) for t in (
        m.left_table, m.right_table, _transpose(m.left_table, mdim),
        _transpose(m.right_table, dim)))
    for p in range(mdim):                       # 1.f_p and f_p.1 against f_p
        _report(out, mdim, "left unit action", (p,), _expand(unit, left_by_p[p]), {p: ONE})
        _report(out, mdim, "right unit action", (p,), _expand(unit, right[p]), {p: ONE})
    # each side expands one input cell, so when both cells are empty both
    # sides are zero and the axiom holds on that tuple; when e_i e_j is
    # empty, the other cells lie in row or column i or j of left and right
    touched = [left[x].keys() | right_by_j[x].keys() for x in range(dim)]
    for i, row_i in enumerate(map(dict, a.table)):
        left_i = left[i]
        for j in range(dim):
            ij, left_j, right_at_j = row_i.get(j, ()), left[j], right_by_j[j]
            for p in range(mdim) if ij else sorted(touched[i] | touched[j]):
                ip, jp, right_p = left_i.get(p, ()), left_j.get(p, ()), right[p]
                pi, pj = right_p.get(i, ()), right_p.get(j, ())
                if ij or jp:                                       # (e_i e_j).f_p
                    _report(out, mdim, "left associativity", (i, j, p),
                            _expand(ij, left_by_p[p]), _expand(jp, left_i))
                if ij or pi:                                       # f_p.(e_i e_j)
                    _report(out, mdim, "right associativity", (p, i, j),
                            _expand(ij, right_p), _expand(pi, right_at_j))
                if ip or pj:                                       # (e_i.f_p).e_j
                    _report(out, mdim, "mixed associativity", (i, p, j),
                            _expand(ip, right_at_j), _expand(pj, left_i))
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
    shifted = tuple(tuple((a.dim + j, tuple((a.dim + k, c) for k, c in cell)) for j, cell in row)
                    for row in b.table)
    return Algebra(dim, labels, unit, a.table + shifted)


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
