"""Finite-dimensional unital associative algebras over Q, by structure constants.

An Algebra stores its structure constants as a sparse table: table[i][j] is
the tuple of (k, c) pairs with e_i e_j = sum c e_k, every c nonzero and k
strictly increasing, together with the coordinates of its unit.  A Bimodule
over an algebra stores its left and right actions as tables of the same
form.  The canonical form makes equal algebras have equal tables.  Dense
tensors c[i][j][k] (mult, left, right) and the integer views (int_table,
int_tables: the tables times the lcm of their denominators) are derived
views, built on first use.
Elements are plain tuples of Fraction over the owning basis; multiply and act
collect the nonzeros of their inner operand once.

Validators check the defining axioms on every basis tuple and report each
violation with the offending indices and both expansions.  Both expand the
associativity axioms from the tables, summing only the products that occur.
Everything else in the package assumes its inputs have already been
validated.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Mapping, Sequence

from .exactlin import ZERO, Vector, _scaled, basis_vec

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


def _dense(table: Table, dim2: int) -> Tensor3:
    out = []
    for plane in table:
        rows = []
        for cell in plane:
            row = [ZERO] * dim2
            for k, c in cell:
                row[k] = c
            rows.append(tuple(row))
        out.append(tuple(rows))
    return tuple(out)


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
    """Unital associative algebra given by basis labels, unit and the sparse
    table of its structure constants."""

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
        return _dense(self.table, self.dim)

    @cached_property
    def int_table(self) -> tuple:
        """Integer view (L_a, table times L_a), L_a the lcm of its denominators."""
        return _int_view(self.table)

    def basis_element(self, i: int) -> Vector:
        return basis_vec(self.dim, i)


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
    def left(self) -> Tensor3:
        """Dense view: left[i][p][q] is the coefficient of f_q in e_i . f_p."""
        return _dense(self.left_table, self.dim)

    @cached_property
    def right(self) -> Tensor3:
        """Dense view: right[p][i][q] is the coefficient of f_q in f_p . e_i."""
        return _dense(self.right_table, self.dim)

    @cached_property
    def int_tables(self) -> tuple:
        """Integer view (L_m, left, right): both tables times their joint lcm."""
        return _int_view(self.left_table, self.right_table)

    def basis_element(self, p: int) -> Vector:
        return basis_vec(self.dim, p)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def _nonzeros(v: Sequence) -> list[tuple[int, Fraction]]:
    """(index, entry) for the nonzero entries of v (Fractions or ints)."""
    return [(t, x) for t, x in enumerate(v) if x]


def multiply(a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Product of two elements in a's basis coordinates."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("element length does not match algebra dimension")
    acc = [ZERO] * a.dim
    y_nz = _nonzeros(y)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = a.table[i]
        for j, yj in y_nz:
            s = xi * yj
            for k, c in row[j]:
                acc[k] += s * c
    return tuple(acc)


def act(m: Bimodule, side: str, a_coords: Sequence[Fraction],
        f_coords: Sequence[Fraction]) -> Vector:
    """Left action a.f (side="left") or right action f.a (side="right")."""
    if len(a_coords) != m.algebra_dim or len(f_coords) != m.dim:
        raise ValueError("element length mismatch in module action")
    acc = [ZERO] * m.dim
    if side == "left":
        f_nz = _nonzeros(f_coords)
        for i, ai in enumerate(a_coords):
            if not ai:
                continue
            plane = m.left_table[i]
            for p, fp in f_nz:
                s = ai * fp
                for q, c in plane[p]:
                    acc[q] += s * c
    elif side == "right":
        a_nz = _nonzeros(a_coords)
        for p, fp in enumerate(f_coords):
            if not fp:
                continue
            plane = m.right_table[p]
            for i, ai in a_nz:
                s = fp * ai
                for q, c in plane[i]:
                    acc[q] += s * c
    else:
        raise ValueError(f"unknown side {side!r}")
    return tuple(acc)


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra acting on itself on both sides."""
    # e_i . e_p and e_p . e_i are both products in a, so both tables are a's
    return Bimodule(a.dim, a.dim, a.table, a.table)


def commutes(a: Algebra, m: Bimodule) -> bool:
    """True iff x.f = f.x for all basis x of a and basis f of m."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    for i in range(a.dim):
        for p in range(m.dim):
            if m.left_table[i][p] != m.right_table[p][i]:
                return False
    return True


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


def validate_algebra(a: Algebra) -> list[Violation]:
    """Check both unit laws and associativity on all basis triples.

    Returns an empty list exactly when a is a unital associative algebra.
    Unit laws are checked first so a broken unit is reported before the
    associativity failures it usually drags along.
    """
    out: list[Violation] = []
    dim = a.dim
    for j in range(dim):
        ej = a.basis_element(j)
        lhs = multiply(a, a.unit, ej)
        if lhs != ej:
            out.append(Violation("left unit law", (j,), lhs, ej))
        rhs = multiply(a, ej, a.unit)
        if rhs != ej:
            out.append(Violation("right unit law", (j,), rhs, ej))
    table = a.table
    for i in range(dim):
        for j in range(dim):
            ij = table[i][j]
            for k in range(dim):
                lhs = [ZERO] * dim
                for t, c in ij:
                    for s, c2 in table[t][k]:
                        lhs[s] += c * c2
                rhs = [ZERO] * dim
                for t, c in table[j][k]:
                    for s, c2 in table[i][t]:
                        rhs[s] += c * c2
                if lhs != rhs:
                    out.append(Violation("associativity", (i, j, k),
                                         tuple(lhs), tuple(rhs)))
    return out


def _expand(cell: tuple[SparseEntry, ...],
            rows: Sequence[tuple[SparseEntry, ...]]) -> dict[int, Fraction]:
    """The nonzero coordinates of sum c * rows[t] over the entries (t, c) of a
    table cell, where each rows[t] is a table cell too."""
    acc: dict[int, Fraction] = {}
    for t, c in cell:
        for s, c2 in rows[t]:
            acc[s] = acc.get(s, ZERO) + c * c2
    return {s: v for s, v in acc.items() if v}


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
        fp = m.basis_element(p)
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

    def report(axiom, indices, lhs, rhs):
        if lhs != rhs:
            out.append(Violation(axiom, indices,
                                 tuple(lhs.get(q, ZERO) for q in range(mdim)),
                                 tuple(rhs.get(q, ZERO) for q in range(mdim))))

    # each side expands one input cell, so when both cells are empty both
    # sides are zero and the axiom holds on that tuple
    for i in range(dim):
        left_i = left[i]
        for j in range(dim):
            ij, left_j, right_at_j = a.table[i][j], left[j], right_by_j[j]
            for p in range(mdim):
                if ij or left_j[p]:                                # (e_i e_j).f_p
                    report("left associativity", (i, j, p),
                           _expand(ij, left_by_p[p]), _expand(left_j[p], left_i))
                if ij or right[p][i]:                              # f_p.(e_i e_j)
                    report("right associativity", (p, i, j),
                           _expand(ij, right[p]), _expand(right[p][i], right_at_j))
                if left_i[p] or right[p][j]:                       # (e_i.f_p).e_j
                    report("mixed associativity", (i, p, j),
                           _expand(left_i[p], right_at_j), _expand(right[p][j], left_i))
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

F1 = Fraction(1)


def _field() -> Algebra:
    return Algebra.from_sparse(1, ("1",), (1,), {(0, 0, 0): F1})


def _dual_numbers() -> Algebra:
    # basis 1, eps with eps^2 = 0
    return Algebra.from_sparse(
        2, ("1", "eps"), (1, 0),
        {(0, 0, 0): F1, (0, 1, 1): F1, (1, 0, 1): F1})


def _group_algebra_c2() -> Algebra:
    # basis 1, g with g^2 = 1
    return Algebra.from_sparse(
        2, ("1", "g"), (1, 0),
        {(0, 0, 0): F1, (0, 1, 1): F1, (1, 0, 1): F1, (1, 1, 0): F1})


def _matrix_units(n: int) -> dict[tuple[int, int, int], Fraction]:
    # basis E_{ij} flattened as i*n+j; E_{ab} E_{cd} = [b=c] E_{ad}
    triples = {}
    for a in range(n):
        for b in range(n):
            for d in range(n):
                triples[(a * n + b, b * n + d, a * n + d)] = F1
    return triples


def _full_matrix_2() -> Algebra:
    labels = ("E11", "E12", "E21", "E22")
    unit = (1, 0, 0, 1)
    return Algebra.from_sparse(4, labels, unit, _matrix_units(2))


def _upper_triangular_2() -> Algebra:
    # basis E11, E12, E22
    labels = ("E11", "E12", "E22")
    triples = {
        (0, 0, 0): F1,  # E11 E11
        (0, 1, 1): F1,  # E11 E12
        (1, 2, 1): F1,  # E12 E22
        (2, 2, 2): F1,  # E22 E22
    }
    return Algebra.from_sparse(3, labels, (1, 0, 1), triples)


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


_BUILDERS = {
    "field": _field,
    "dual_numbers": _dual_numbers,
    "group_algebra_C2": _group_algebra_c2,
    "full_matrix_2": _full_matrix_2,
    "upper_triangular_2": _upper_triangular_2,
}

CATALOG_NAMES = tuple(_BUILDERS) + ("direct_sum(x,y)",)

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
    if name in _BUILDERS:
        return _BUILDERS[name]()
    m = _DIRECT_SUM_RE.match(name)
    if m:
        args = _split_args(m.group(1))
        if len(args) != 2:
            raise ValueError(f"direct_sum takes two arguments, got {args!r}")
        return direct_sum(catalog_algebra(args[0]), catalog_algebra(args[1]))
    raise ValueError(f"unknown catalog algebra {name!r}")


def catalog(name: str) -> tuple[Algebra, Bimodule]:
    """Named example algebra with its regular bimodule."""
    a = catalog_algebra(name)
    return a, regular_bimodule(a)
