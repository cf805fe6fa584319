"""Matrix extensions M_n(A) and M_n(M), and the block calculus on them.

Basis layout: M_n(A) has basis (base element k) placed in matrix block (i, j),
flattened as (i*n + j)*d + k; M_n(M) is laid out the same way.  Multiplication
is (a x E_ij)(b x E_kl) = [j=k] (ab x E_il), with matching left/right module
actions, so the sparse structure tables of M_n(A) and M_n(M) are assembled
block by block from the base tables; no dense tensor is formed.  matrix_pair
builds M_n of a regular base pair as the regular bimodule of M_n(A), on the
algebra's one table.  Rows and columns of the n x n grid are 0-based in code;
printed labels use the usual 1-based matrix-unit names.

Core operations: embedding base elements into blocks, lifting a base
derivation to act entrywise, extracting component maps (i,j|r,s) of a
derivation of the matrix pair, splitting such a derivation into an inner part
plus a lifted base derivation (checked on the two parts it returns),
checking the standard component identities, and the reblocking isomorphism
M_{rk}(A) ~ M_r(M_k(A)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algcore import Algebra, Bimodule, Table, act, regular_bimodule
from .dercalc import Derivation, LinearMap, certify, inner_derivation
from .exactlin import Matrix, Vector, ZERO, _nonzeros, basis_vec, lincomb, vadd, vsub


class DecompositionError(RuntimeError):
    """An internal recomposition identity failed; never returned silently."""


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class _BlockIndex:
    """Flat block indexing shared by M_n(A) and M_n(M): base basis element k
    in block (i, j) sits at (i*n + j)*base.dim + k of a space of dimension
    n*n*base.dim."""

    base: Algebra | Bimodule
    n: int

    def flat(self, i: int, j: int, k: int) -> int:
        self._check_block(i, j)
        if not 0 <= k < self.base.dim:
            raise ValueError(f"base index {k} out of range")
        return (i * self.n + j) * self.base.dim + k

    def unflat(self, t: int) -> tuple[int, int, int]:
        block, k = divmod(t, self.base.dim)
        i, j = divmod(block, self.n)
        return i, j, k

    def _check_block(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"block index ({i},{j}) out of range for n={self.n}")

    def embed(self, x: Sequence[Fraction], i: int, j: int) -> Vector:
        """Base element x placed in block (i, j), zero elsewhere."""
        self._check_block(i, j)
        if len(x) != self.base.dim:
            raise ValueError("element length does not match base dimension")
        out = [ZERO] * (self.n * self.n * self.base.dim)
        off = (i * self.n + j) * self.base.dim
        for k, c in enumerate(x):
            out[off + k] = Fraction(c)
        return tuple(out)

    def entry(self, big: Sequence[Fraction], i: int, j: int) -> Vector:
        """Block (i, j) of a matrix-level element, in base coordinates."""
        self._check_block(i, j)
        if len(big) != self.n * self.n * self.base.dim:
            raise ValueError("element length does not match matrix-level dimension")
        off = (i * self.n + j) * self.base.dim
        return tuple(big[off:off + self.base.dim])


@dataclass(frozen=True)
class MatrixAlgebra(_BlockIndex):
    """M_n(base) with its flat basis indexing."""

    base: Algebra
    n: int
    algebra: Algebra


@dataclass(frozen=True)
class MatrixBimodule(_BlockIndex):
    """M_n(base module) as a bimodule over the matching M_n(A)."""

    base: Bimodule
    n: int
    bimodule: Bimodule


def _block_table(table: Table, n: int, d0: int, d1: int, d2: int) -> Table:
    """Table of the products (x E_ij)(y E_jl) = xy E_il, all other block
    pairs giving 0, for base factors x < d0, y < d1 and products in a base
    space of dimension d2 described by table."""
    planes = []
    for i in range(n):
        for j in range(n):
            for x in range(d0):
                plane = [()] * (n * n * d1)
                for l in range(n):
                    out_off = (i * n + l) * d2
                    col_off = (j * n + l) * d1
                    for y in range(d1):
                        plane[col_off + y] = tuple((out_off + t, c)
                                                   for t, c in table[x][y])
                planes.append(tuple(plane))
    return tuple(planes)


def matrix_algebra(a: Algebra, n: int) -> MatrixAlgebra:
    """M_n(a) for n >= 2, with unit sum_i 1 x E_ii."""
    if n < 2:
        raise ValueError("matrix extension needs n >= 2")
    d = a.dim
    dim = n * n * d
    labels = tuple(f"{a.labels[k]}*E{i + 1}{j + 1}"
                   for i in range(n) for j in range(n) for k in range(d))
    unit = [ZERO] * dim
    for i in range(n):
        off = (i * n + i) * d
        for k, c in enumerate(a.unit):
            unit[off + k] = c
    big = Algebra(dim, labels, tuple(unit), _block_table(a.table, n, d, d, d))
    return MatrixAlgebra(a, n, big)


def matrix_bimodule(m: Bimodule, n: int) -> MatrixBimodule:
    """M_n(m) over M_n(A): (a x E_ij).(f x E_jl) = a.f x E_il and
    (f x E_ij).(a x E_jl) = f.a x E_il, all other block pairs giving 0."""
    if n < 2:
        raise ValueError("matrix extension needs n >= 2")
    d, md = m.algebra_dim, m.dim
    return MatrixBimodule(m, n, Bimodule(n * n * md, n * n * d,
                                         _block_table(m.left_table, n, d, md, md),
                                         _block_table(m.right_table, n, md, d, md)))


def matrix_pair(a: Algebra, m: Bimodule, n: int) -> tuple[MatrixAlgebra, MatrixBimodule]:
    """M_n(a) and M_n(m).  When m is a's regular bimodule (both its tables
    equal a's), M_n(m) is the regular bimodule of M_n(a), which shares the
    algebra's table instead of building two more."""
    if m.algebra_dim != a.dim:
        raise ValueError("bimodule is not over this algebra")
    ma = matrix_algebra(a, n)
    if m.left_table == a.table == m.right_table:
        return ma, MatrixBimodule(m, n, regular_bimodule(ma.algebra))
    return ma, matrix_bimodule(m, n)


# ---------------------------------------------------------------------------
# lift and components
# ---------------------------------------------------------------------------

def lift(delta: Derivation, ma: MatrixAlgebra, mm: MatrixBimodule) -> Derivation:
    """Entrywise extension: (a_ij) -> (delta(a_ij)) on the matrix pair."""
    if not delta.certified:
        raise ValueError("lift requires a certified derivation")
    if (delta.linmap.algebra_dim != ma.base.dim
            or delta.linmap.module_dim != mm.base.dim):
        raise ValueError("derivation shape does not match the base pair")
    if ma.n != mm.n:
        raise ValueError("matrix sizes differ")
    d, md, small = ma.base.dim, mm.base.dim, delta.matrix.nonzeros
    # row q of block b = (i, j) holds row q of delta, shifted to block b's columns
    big_map = LinearMap(Matrix.from_triples(mm.bimodule.dim, ma.algebra.dim, (
        (b * md + q, b * d + k, x) for b in range(ma.n * ma.n)
        for q, row in enumerate(small) for k, x in row)))
    return certify(ma.algebra, mm.bimodule, big_map)


def component(D: Derivation, ma: MatrixAlgebra, mm: MatrixBimodule,
              i: int, j: int, r: int, s: int) -> LinearMap:
    """The base-pair map a -> [D(a x E_rs)]_(i,j)."""
    if not D.certified:
        raise ValueError("component requires a certified derivation")
    ma._check_block(i, j)
    ma._check_block(r, s)
    d, md = ma.base.dim, mm.base.dim
    m_off = (i * ma.n + j) * md
    a_off = (r * ma.n + s) * d
    return LinearMap(Matrix.from_triples(md, d, (
        (q, c - a_off, x) for q, row in enumerate(D.matrix.nonzeros[m_off:m_off + md])
        for c, x in row if a_off <= c < a_off + d)))


@dataclass(frozen=True)
class Decomposition:
    """D = inner_part + lifted_part with inner witness B and base derivation
    delta = the (0,0|0,0) component."""

    witness: Vector
    delta: Derivation
    inner_part: Derivation
    lifted_part: Derivation


def decompose(D: Derivation, ma: MatrixAlgebra, mm: MatrixBimodule) -> Decomposition:
    """Split a derivation of the matrix pair as inner-by-B plus a lifted base
    derivation.  B has blocks B_ij = [D(1 x E_j0)]_(i,0); delta is the
    (0,0|0,0) component.  The recomposition D - inner_part - lifted_part = 0
    is checked exactly on the returned parts (exactlin.lincomb, in integers
    over the nonzero entries), and a failure raises DecompositionError."""
    if not D.certified:
        raise ValueError("decompose requires a certified derivation")
    if (D.linmap.algebra_dim != ma.algebra.dim
            or D.linmap.module_dim != mm.bimodule.dim):
        raise ValueError("derivation shape does not match the matrix pair")
    n = ma.n
    witness = [ZERO] * mm.bimodule.dim
    for j in range(n):
        image = D.apply(ma.embed(ma.base.unit, j, 0))
        for i in range(n):
            block = mm.entry(image, i, 0)
            off = (i * n + j) * mm.base.dim
            for p, c in enumerate(block):
                witness[off + p] = c
    witness_v = tuple(witness)
    delta = certify(ma.base, mm.base, component(D, ma, mm, 0, 0, 0, 0))
    inner_part = inner_derivation(ma.algebra, mm.bimodule, witness_v)
    lifted_part = lift(delta, ma, mm)
    residual = lincomb(((1, D.matrix), (-1, inner_part.matrix), (-1, lifted_part.matrix)),
                       mm.bimodule.dim, ma.algebra.dim)
    if not residual.is_zero():
        raise DecompositionError(
            "recomposition failed: inner part plus lifted part != D")
    return Decomposition(witness_v, delta, inner_part, lifted_part)


# ---------------------------------------------------------------------------
# component identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    counterexample: tuple | None


@dataclass(frozen=True)
class Lemma22Report:
    results: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def verify_lemma22(D: Derivation, ma: MatrixAlgebra, mm: MatrixBimodule) -> Lemma22Report:
    """Check the five standard component identities of a derivation on the
    matrix pair; each result carries the first offending index tuple."""
    if not D.certified:
        raise ValueError("verify_lemma22 requires a certified derivation")
    if (D.linmap.algebra_dim != ma.algebra.dim
            or D.linmap.module_dim != mm.bimodule.dim):
        raise ValueError("derivation shape does not match the matrix pair")
    n, d, md = ma.n, ma.base.dim, mm.base.dim
    base_m = mm.base
    N, K = range(n), range(d)
    unit = _nonzeros(ma.base.unit)
    # base column k of the component (i,j|r,s), read off D's nonzeros: row
    # (i,j,q) of M_n(M) and column (r,s,k) of M_n(A) hold its entry q; and
    # the component's value at the unit
    cols = {(i, j, r, s): [[ZERO] * md for _ in K]
            for i in N for j in N for r in N for s in N}
    for t, row in enumerate(D.matrix.nonzeros):
        i, j, q = mm.unflat(t)
        for c, x in row:
            r, s, k = ma.unflat(c)
            cols[(i, j, r, s)][k][q] = x
    cols = {key: [tuple(v) for v in cs] for key, cs in cols.items()}
    of_unit = {key: tuple(sum((u * cs[k][q] for k, u in unit), ZERO) for q in range(md))
               for key, cs in cols.items()}

    acted: dict[tuple[str, int, tuple[int, int, int, int]], Vector] = {}

    def act_basis(side: str, k: int, key: tuple[int, int, int, int]) -> Vector:
        """e_k acting on the unit value of component key, once per argument
        triple: keyed by the component, not by the value, whose Fractions
        cost as much to hash as the action costs to compute."""
        memo = (side, k, key)
        if memo not in acted:
            acted[memo] = act(base_m, side, basis_vec(d, k), of_unit[key])
        return acted[memo]

    searches = (
        # (i) zero component when both rows and both columns differ
        ("i", ((i, j, r, s) for i in N for j in N for r in N for s in N
               if i != r and j != s and any(map(any, cols[(i, j, r, s)])))),
        # (ii) off-diagonal rows: (i,j|r,j) is right multiplication by the
        # unit value of (i,m|r,m), independent of the column index
        ("ii", ((i, j, r, m_, k) for i in N for r in N if i != r
                for j in N for m_ in N for k in K
                if cols[(i, j, r, j)][k] != cols[(i, m_, r, m_)][k]
                or cols[(i, j, r, j)][k] != act_basis("right", k, (i, m_, r, m_)))),
        # (iii) off-diagonal columns: (i,j|i,s) is left multiplication by the
        # unit value of (m,j|m,s), independent of the row index
        ("iii", ((i, j, s, m_, k) for j in N for s in N if j != s
                 for i in N for m_ in N for k in K
                 if cols[(i, j, i, s)][k] != cols[(m_, j, m_, s)][k]
                 or cols[(i, j, i, s)][k] != act_basis("left", k, (m_, j, m_, s)))),
        # (iv) antisymmetry of the unit values across the diagonal
        ("iv", ((i, j, m_) for i in N for j in N for m_ in N
                if of_unit[(i, m_, j, m_)] != tuple(-x for x in of_unit[(m_, j, m_, i)]))),
        # (v) diagonal components differ from the corner component by an
        # inner derivation of unit values
        ("v", ((i, j, m_, k) for i in N for j in N for m_ in N for k in K
               if cols[(i, j, i, j)][k] != vadd(
                   vsub(act_basis("right", k, (i, m_, i, m_)),
                        act_basis("left", k, (j, m_, j, m_))),
                   cols[(m_, m_, m_, m_)][k]))),
    )
    results = []
    for name, failures in searches:
        bad = next(failures, None)
        results.append(IdentityResult(name, bad is None, bad))
    return Lemma22Report(tuple(results))


# ---------------------------------------------------------------------------
# reblocking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReblockIso:
    """Basis bijection M_{rk}(A) -> M_r(M_k(A)):
    e x E_{ik+p, jk+q}  |->  (e x E_pq) x E_ij."""

    source: MatrixAlgebra
    inner: MatrixAlgebra
    target: MatrixAlgebra
    forward: tuple[int, ...]
    backward: tuple[int, ...]

    def apply(self, x: Sequence[Fraction]) -> Vector:
        if len(x) != self.source.algebra.dim:
            raise ValueError("element length does not match source algebra")
        out = [ZERO] * self.target.algebra.dim
        for t, c in enumerate(x):
            if c:
                out[self.forward[t]] = c
        return tuple(out)

    def inverse(self, y: Sequence[Fraction]) -> Vector:
        if len(y) != self.target.algebra.dim:
            raise ValueError("element length does not match target algebra")
        out = [ZERO] * self.source.algebra.dim
        for t, c in enumerate(y):
            if c:
                out[self.backward[t]] = c
        return tuple(out)


def reblock_iso(a: Algebra, r: int, k: int) -> ReblockIso:
    """The reblocking isomorphism for n = r*k; needs r, k >= 2 (single-row or
    single-column reblocking is excluded by the n >= 2 rule of
    matrix_algebra)."""
    if r < 2 or k < 2:
        raise ValueError("reblocking needs r >= 2 and k >= 2")
    whole = matrix_algebra(a, r * k)
    inner = matrix_algebra(a, k)
    outer = matrix_algebra(inner.algebra, r)
    n = r * k
    d = a.dim
    forward = [0] * whole.algebra.dim
    for row in range(n):
        i, p = divmod(row, k)
        for col in range(n):
            j, q = divmod(col, k)
            for t in range(d):
                src = (row * n + col) * d + t
                forward[src] = outer.flat(i, j, inner.flat(p, q, t))
    backward = [0] * whole.algebra.dim
    for src, dst in enumerate(forward):
        backward[dst] = src
    return ReblockIso(whole, inner, outer, tuple(forward), tuple(backward))


def transport_derivation(iso: ReblockIso, D: Derivation) -> Derivation:
    """Conjugate a derivation of the source regular pair by the reblocking
    permutation; returns a certified derivation of the target regular pair."""
    if not D.certified:
        raise ValueError("transport requires a certified derivation")
    dim = iso.source.algebra.dim
    if D.linmap.algebra_dim != dim or D.linmap.module_dim != dim:
        raise ValueError("derivation is not on the source regular pair")
    big = D.matrix.nonzeros
    moved = Matrix.from_triples(dim, dim, ((u, c, x) for u in range(dim) for c, x in sorted(
        [(iso.forward[v], x) for v, x in big[iso.backward[u]]])))
    tgt = iso.target.algebra
    return certify(tgt, regular_bimodule(tgt), LinearMap(moved))
