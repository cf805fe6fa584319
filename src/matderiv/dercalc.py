"""Derivation spaces of structure-constant algebra/bimodule pairs.

A linear map delta: A -> M is a derivation when delta(xy) = delta(x).y +
x.delta(y).  Over basis elements this is one linear constraint per basis pair
and module coordinate, so the derivation space is the nullspace of a
(d^2*m) x (d*m) system in the flattened coordinates of the map.

Flattening is column-major: flat[k*m + p] is the f_p-coordinate of the image
of e_k, i.e. images of basis vectors are concatenated in basis order.

Inner derivations use the sign convention delta_w(x) = w.x - x.w (module
element on the left of the algebra element in the first term).

Certification iterates only over table entries and the nonzeros of the map:
leibniz_failures scales the map and the tables to integers (a common
positive scale does not change which basis pairs fail) and sums each pair's
residual in a small dict, and inner_derivation builds each column from the
action tables over the nonzero coordinates of the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .algcore import Algebra, Bimodule, Table, _nonzeros
from .exactlin import (Matrix, Subspace, Vector, ZERO, _scaled, basis_vec,
                       nullspace, nullspace_sparse, quotient_dim, solve)


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
        return tuple(m.entries[p][k] for k in range(m.cols) for p in range(m.rows))

    @classmethod
    def unflatten(cls, flat: Sequence[Fraction], module_dim: int,
                  algebra_dim: int) -> "LinearMap":
        if len(flat) != module_dim * algebra_dim:
            raise ValueError("flattened length does not match dimensions")
        rows = tuple(tuple(flat[k * module_dim + p] for k in range(algebra_dim))
                     for p in range(module_dim))
        return cls(Matrix(module_dim, algebra_dim, rows))

    @classmethod
    def zero(cls, module_dim: int, algebra_dim: int) -> "LinearMap":
        return cls(Matrix.zeros(module_dim, algebra_dim))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Fraction]]) -> "LinearMap":
        mdim = len(cols[0])
        rows = tuple(tuple(col[p] for col in cols) for p in range(mdim))
        return cls(Matrix(mdim, len(cols), rows))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix - other.matrix)

    def scale(self, c: Fraction) -> "LinearMap":
        return LinearMap(self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


@dataclass(frozen=True)
class Derivation:
    """A Leibniz-certified linear map.  certify() is the honest constructor;
    building one directly with certified=True bypasses the check (tests use
    that to forge negative controls)."""

    linmap: LinearMap
    certified: bool = False

    def apply(self, x: Sequence[Fraction]) -> Vector:
        return self.linmap.apply(x)

    @property
    def matrix(self) -> Matrix:
        return self.linmap.matrix


def _int_tables(*tables: Table) -> tuple[Table, ...]:
    """The tables with every coefficient multiplied by one common positive
    scale, the lcm of all their denominators, so that all are integers."""
    coeffs = [c for t in tables for plane in t for cell in plane for _, c in cell]
    nums = iter(_scaled(coeffs)[1])
    return tuple(tuple(tuple(tuple([(k, next(nums)) for k, _ in cell]) if cell else ()
                             for cell in plane) for plane in t)
                 for t in tables)


def leibniz_failures(a: Algebra, m: Bimodule, f: LinearMap,
                     stop_early: bool = True) -> list[tuple[int, int]]:
    """Basis pairs (i, j) where delta(e_i e_j) != delta(e_i).e_j + e_i.delta(e_j),
    in lexicographic order (only the first one when stop_early).

    The residual is checked scaled by one positive integer: the map by the lcm
    of its denominators and the three tables by the lcm of theirs, which
    leaves the pairs that fail unchanged.  Each map column is kept as its
    sparse (row, numerator) pairs, and the residual of a pair is summed in a
    dict over the nonzero products only: table[i][j] against the columns it
    names, right_table[p][j] over the nonzeros p of column i, and
    left_table[i][p] over the nonzeros p of column j.
    """
    if f.algebra_dim != a.dim or f.module_dim != m.dim:
        raise ValueError("map shape does not match the algebra/bimodule pair")
    d = a.dim
    nums = _scaled([x for row in f.matrix.entries for x in row])[1]
    cols = [_nonzeros(nums[j::d]) for j in range(d)]
    table, left, right = _int_tables(a.table, m.left_table, m.right_table)
    bad: list[tuple[int, int]] = []
    for i in range(d):
        ci, row, plane = cols[i], table[i], left[i]
        for j in range(d):
            acc: dict[int, int] = {}
            for k, c in row[j]:                      # delta(e_i e_j)
                for q, v in cols[k]:
                    acc[q] = acc.get(q, 0) + c * v
            for p, v in ci:                          # - delta(e_i).e_j
                for q, c in right[p][j]:
                    acc[q] = acc.get(q, 0) - v * c
            for p, v in cols[j]:                     # - e_i.delta(e_j)
                for q, c in plane[p]:
                    acc[q] = acc.get(q, 0) - v * c
            if any(acc.values()):
                bad.append((i, j))
                if stop_early:
                    return bad
    return bad


def leibniz_check(a: Algebra, m: Bimodule, f: LinearMap) -> bool:
    return not leibniz_failures(a, m, f)


def certify(a: Algebra, m: Bimodule, f: LinearMap) -> Derivation:
    bad = leibniz_failures(a, m, f)
    if bad:
        i, j = bad[0]
        raise ValueError(f"map violates the Leibniz rule at basis pair ({i},{j})")
    return Derivation(f, certified=True)


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------

def _action_by_output(m: Bimodule):
    """right_q[i][q] = [(p, R[p][i][q])], left_q[i][q] = [(p, L[i][p][q])]
    over the nonzero tensor entries."""
    d, md = m.algebra_dim, m.dim
    right_q = [[[] for _ in range(md)] for _ in range(d)]
    for p in range(md):
        plane = m.right_table[p]
        for i in range(d):
            for q, v in plane[i]:
                right_q[i][q].append((p, v))
    left_q = [[[] for _ in range(md)] for _ in range(d)]
    for i in range(d):
        plane = m.left_table[i]
        for p in range(md):
            for q, v in plane[p]:
                left_q[i][q].append((p, v))
    return right_q, left_q


def _constraint_rows(a: Algebra, m: Bimodule,
                     jordan: bool) -> Iterator[Iterable[tuple[int, Fraction]]]:
    """Sparse constraint rows in lexicographic (i, j, module coordinate) order.

    Leibniz:   delta(e_i e_j) - delta(e_i).e_j - e_i.delta(e_j) = 0
    Jordan (polarized): the same expression symmetrized over (i, j).
    """
    d, md = a.dim, m.dim
    right_q, left_q = _action_by_output(m)
    for i in range(d):
        for j in range(d):
            rows: list[dict[int, Fraction]] = [dict() for _ in range(md)]

            def add_product(kk: int, jj: int):
                # - delta(e_kk).e_jj  contributes -R[p][jj][q] at column kk*md+p
                for q in range(md):
                    row = rows[q]
                    for p, v in right_q[jj][q]:
                        col = kk * md + p
                        row[col] = row.get(col, ZERO) - v

            def add_left(ii: int, kk: int):
                # - e_ii.delta(e_kk)  contributes -L[ii][p][q] at column kk*md+p
                for q in range(md):
                    row = rows[q]
                    for p, v in left_q[ii][q]:
                        col = kk * md + p
                        row[col] = row.get(col, ZERO) - v

            def add_image(ii: int, jj: int):
                # + delta(e_ii e_jj) contributes c[ii][jj][k] at column k*md+q
                for k, c in a.table[ii][jj]:
                    base = k * md
                    for q in range(md):
                        row = rows[q]
                        col = base + q
                        row[col] = row.get(col, ZERO) + c

            add_image(i, j)
            add_product(i, j)
            add_left(i, j)
            if jordan:
                add_image(j, i)
                add_product(j, i)
                add_left(j, i)
            for q in range(md):
                if rows[q]:
                    yield rows[q].items()


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


@dataclass(frozen=True)
class JordanDerivationSpace:
    algebra: Algebra
    bimodule: Bimodule
    basis: tuple[LinearMap, ...]
    subspace: Subspace

    @property
    def dim(self) -> int:
        return len(self.basis)


def derivation_space(a: Algebra, m: Bimodule) -> DerivationSpace:
    """All derivations A -> M, as the nullspace of the Leibniz constraints."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    sub = nullspace_sparse(_constraint_rows(a, m, jordan=False), a.dim * m.dim)
    basis = tuple(certify(a, m, LinearMap.unflatten(v, m.dim, a.dim))
                  for v in sub.basis)
    return DerivationSpace(a, m, basis, sub)


def jordan_derivation_space(a: Algebra, m: Bimodule) -> JordanDerivationSpace:
    """All Jordan derivations, via the char-0 polarized constraint
    delta(xy + yx) = delta(x).y + x.delta(y) + delta(y).x + y.delta(x)."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    sub = nullspace_sparse(_constraint_rows(a, m, jordan=True), a.dim * m.dim)
    basis = tuple(LinearMap.unflatten(v, m.dim, a.dim) for v in sub.basis)
    return JordanDerivationSpace(a, m, basis, sub)


# ---------------------------------------------------------------------------
# inner derivations
# ---------------------------------------------------------------------------

def inner_derivation(a: Algebra, m: Bimodule, w: Sequence[Fraction]) -> Derivation:
    """delta_w(x) = w.x - x.w.  Always a derivation, so certified.

    Column j is sum_p w_p (f_p.e_j - e_j.f_p), read off right_table[p][j]
    and left_table[j][p] over the nonzero coordinates w_p."""
    if len(w) != m.dim:
        raise ValueError("witness length does not match module dimension")
    nz = _nonzeros(w)
    cols = []
    for j in range(a.dim):
        acc = [ZERO] * m.dim
        for p, wp in nz:
            for q, c in m.right_table[p][j]:
                acc[q] += wp * c
            for q, c in m.left_table[j][p]:
                acc[q] -= wp * c
        cols.append(acc)
    return Derivation(LinearMap.from_columns(cols), certified=True)


def _inner_matrix(a: Algebra, m: Bimodule) -> Matrix:
    """(d*m) x m matrix whose column p is the flattened delta_{f_p}."""
    cols = [inner_derivation(a, m, basis_vec(m.dim, p)).linmap.flatten()
            for p in range(m.dim)]
    rows = tuple(tuple(col[t] for col in cols) for t in range(a.dim * m.dim))
    return Matrix(a.dim * m.dim, m.dim, rows)


@dataclass(frozen=True)
class InnerSpace:
    image: Subspace
    kernel: Subspace


def inner_space(a: Algebra, m: Bimodule) -> InnerSpace:
    """Image (flattened inner derivations) and kernel (module elements
    commuting with the whole algebra) of w -> delta_w."""
    phi = _inner_matrix(a, m)
    image = Subspace.from_span([phi.col(p) for p in range(m.dim)], phi.rows)
    kernel = nullspace(phi)
    return InnerSpace(image, kernel)


def is_inner(a: Algebra, m: Bimodule, d: Derivation) -> Vector | None:
    """A witness w with d = delta_w (free coordinates zero), or None."""
    if not d.certified:
        raise ValueError("is_inner requires a certified derivation")
    if d.linmap.algebra_dim != a.dim or d.linmap.module_dim != m.dim:
        raise ValueError("derivation shape does not match the pair")
    return solve(_inner_matrix(a, m), d.linmap.flatten())


def h1_dim(a: Algebra, m: Bimodule) -> int:
    """dim Der(A,M) - dim Inner(A,M), the first Hochschild cohomology size."""
    inner = inner_space(a, m)
    der = derivation_space(a, m)
    return quotient_dim(inner.image, der.subspace)
