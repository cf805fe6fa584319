"""Matrix extensions M_n(A) and M_n(M), and the block calculus on them.

Basis layout: M_n(A) has basis (base element k) placed in matrix block (i, j),
flattened as (i*n + j)*d + k; M_n(M) is laid out the same way.  Multiplication
is (a x E_ij)(b x E_kl) = [j=k] (ab x E_il), with matching left/right module
actions, so the sparse structure tables of M_n(A) and M_n(M) are assembled
block by block from the base tables, storing only the n^3 block pairs with
j = k; no empty cell or dense tensor is formed.  matrix_pair
builds M_n of a regular base pair as the regular bimodule of M_n(A), on the
algebra's one table.  Rows and columns of the n x n grid are 0-based in code;
printed labels use the usual 1-based matrix-unit names.

Core operations: embedding base elements into blocks, lifting a base
derivation to act entrywise, extracting component maps (i,j|r,s), splitting
a map of the matrix pair into an inner part plus a lifted base derivation
(split_map: a zero residual certifies the map, with no Leibniz pass),
checking the standard component identities, and relabeling pairs (PairIso,
certified by its table comparison, so transport runs no Leibniz pass), as in
the reblocking M_{rk}(A) ~ M_r(M_k(A)).  Every function that takes a
derivation checks it through dercalc._check_derivation, against its pair.
verify_lemma22 compares integers at one scale, L_D*L_u*L_m: D's nonzeros
times the lcm L_D of their denominators, the base unit times its own lcm L_u
and the actions of mm.base.int_tables, at scale L_m.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .algcore import Algebra, Bimodule, Table, regular_bimodule
from .dercalc import Derivation, LinearMap, _check_derivation, certify, inner_derivation
from .exactlin import Matrix, Vector, ZERO, _scaled, lincomb


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

    @property
    def generators(self) -> tuple[int, ...]:
        """Flat indices of the n*d generators e_k x E_{i,i+1 mod n} of
        M_n(base): products around the cycle give every E_ij (1 = sum u_k e_k)."""
        return tuple(self.flat(i, (i + 1) % self.n, k)
                     for i in range(self.n) for k in range(self.base.dim))


@dataclass(frozen=True)
class MatrixBimodule(_BlockIndex):
    """M_n(base module) as a bimodule over the matching M_n(A)."""

    base: Bimodule
    n: int
    bimodule: Bimodule


def _block_table(table: Table, n: int, d1: int, d2: int) -> Table:
    """Table of the products (x E_ij)(y E_jl) = xy E_il, the only nonempty
    cells, for the rows x of table, its columns y < d1 and products of
    dimension d2."""
    rows = []
    for i in range(n):
        # row x at columns l*d1 + y, into output block (i, l); j shifts them
        moved = [[(l * d1 + y, tuple([((i * n + l) * d2 + t, c) for t, c in cell]))
                  for l in range(n) for y, cell in row] for row in table]
        for j in range(n):
            rows.extend(tuple([(j * n * d1 + col, cell) for col, cell in row]) for row in moved)
    return tuple(rows)


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
    big = Algebra(dim, labels, tuple(unit), _block_table(a.table, n, d, d))
    return MatrixAlgebra(a, n, big)


def matrix_bimodule(m: Bimodule, n: int) -> MatrixBimodule:
    """M_n(m) over M_n(A): (a x E_ij).(f x E_jl) = a.f x E_il and
    (f x E_ij).(a x E_jl) = f.a x E_il, all other block pairs giving 0."""
    if n < 2:
        raise ValueError("matrix extension needs n >= 2")
    d, md = m.algebra_dim, m.dim
    return MatrixBimodule(m, n, Bimodule(n * n * md, n * n * d,
                                         _block_table(m.left_table, n, md, md),
                                         _block_table(m.right_table, n, d, md)))


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
    """Entrywise extension (a_ij) -> (delta(a_ij)), a derivation block by block."""
    _check_derivation(delta, ma.base, mm.base, "lift")
    if ma.n != mm.n:
        raise ValueError("matrix sizes differ")
    d, md, small = ma.base.dim, mm.base.dim, delta.matrix.nonzeros
    # row q of block b = (i, j) holds row q of delta, shifted to block b's columns
    big_map = LinearMap(Matrix.from_triples(mm.bimodule.dim, ma.algebra.dim, (
        (b * md + q, b * d + k, x) for b in range(ma.n * ma.n)
        for q, row in enumerate(small) for k, x in row)))
    return Derivation(big_map, ma.algebra, mm.bimodule)


def component(D: Derivation, ma: MatrixAlgebra, mm: MatrixBimodule,
              i: int, j: int, r: int, s: int) -> LinearMap:
    """The base-pair map a -> [D(a x E_rs)]_(i,j)."""
    _check_derivation(D, ma.algebra, mm.bimodule, "component")
    return _component(D.linmap, ma, mm, i, j, r, s)


def _component(f: LinearMap, ma: MatrixAlgebra, mm: MatrixBimodule,
               i: int, j: int, r: int, s: int) -> LinearMap:
    """component() of a map of the matrix pair, certified or not."""
    ma._check_block(i, j)
    ma._check_block(r, s)
    d, md = ma.base.dim, mm.base.dim
    m_off = (i * ma.n + j) * md
    a_off = (r * ma.n + s) * d
    return LinearMap(Matrix.from_triples(md, d, (
        (q, c - a_off, x) for q, row in enumerate(f.matrix.nonzeros[m_off:m_off + md])
        for c, x in row if a_off <= c < a_off + d)))


@dataclass(frozen=True)
class Decomposition:
    """D = inner_part + lifted_part with inner witness B and base derivation
    delta = the (0,0|0,0) component."""

    witness: Vector
    delta: Derivation
    inner_part: Derivation
    lifted_part: Derivation


def split_map(f: LinearMap, ma: MatrixAlgebra, mm: MatrixBimodule) -> Decomposition | None:
    """f as inner-by-B plus the lift of delta, B_ij = [f(1 x E_j0)]_(i,0)
    and delta the (0,0|0,0) component; None when delta breaks the Leibniz
    rule or the residual f - inner_part - lifted_part is nonzero.  It checks
    shapes and, as inner_derivation does, trusts mm to be a bimodule over ma."""
    if (f.algebra_dim, f.module_dim) != (ma.algebra.dim, mm.bimodule.dim):
        raise ValueError("map shape does not match the algebra/bimodule pair")
    witness = tuple(x for i in range(ma.n) for j in range(ma.n)
                    for x in _component(f, ma, mm, i, 0, j, 0).apply(ma.base.unit))
    try:
        delta = certify(ma.base, mm.base, _component(f, ma, mm, 0, 0, 0, 0))
    except ValueError:
        return None
    inner_part = inner_derivation(ma.algebra, mm.bimodule, witness)
    lifted_part = lift(delta, ma, mm)
    residual = lincomb(((1, f.matrix), (-1, inner_part.matrix), (-1, lifted_part.matrix)),
                       mm.bimodule.dim, ma.algebra.dim)
    return Decomposition(witness, delta, inner_part, lifted_part) if residual.is_zero() else None


def decompose(D: Derivation, ma: MatrixAlgebra, mm: MatrixBimodule) -> Decomposition:
    """split_map of a derivation of the matrix pair, or DecompositionError."""
    _check_derivation(D, ma.algebra, mm.bimodule, "decompose")
    dec = split_map(D.linmap, ma, mm)
    if dec is None:
        raise DecompositionError("recomposition failed: inner part plus lifted part != D")
    return dec


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
    matrix pair; each result carries the first offending index tuple.  The
    columns are stored times L_m*L_u, at the scale of the actions on unit
    values (module docstring), and compared in integers."""
    _check_derivation(D, ma.algebra, mm.bimodule, "verify_lemma22")
    n, d, md = ma.n, ma.base.dim, mm.base.dim
    N, K = range(n), range(d)
    lm, *tables = mm.base.int_tables
    left, right = (list(map(dict, t)) for t in tables)
    lu, unit = _scaled(ma.base.unit)
    # base column k of the component (i,j|r,s), read off D's nonzeros: row
    # (i,j,q) of M_n(M) and column (r,s,k) of M_n(A) hold its entry q; and
    # the component's value at the unit.  Only components with a nonzero
    # entry are stored, and any other reads as a shared zero.
    nz = [(t, c, x) for t, row in enumerate(D.matrix.nonzeros) for c, x in row]
    entries = defaultdict(lambda: [[0] * md for _ in K])
    for (t, c, _), v in zip(nz, _scaled([x for _, _, x in nz])[1]):
        i, j, q = mm.unflat(t)
        r, s, k = ma.unflat(c)
        entries[(i, j, r, s)][k][q] = v
    zero = (0,) * md
    cols = defaultdict(lambda: (zero,) * d, {key: tuple(tuple(lm * lu * v for v in c) for c in cs)
                                             for key, cs in entries.items()})
    of_unit = defaultdict(lambda: zero, {key: tuple(map(sum, zip(*(
        [u * v for v in c] for u, c in zip(unit, cs))))) for key, cs in entries.items()})

    @cache
    def act_basis(side: str, k: int, key: tuple[int, int, int, int]) -> tuple[int, ...]:
        """e_k acting on the unit value of component key, in integers."""
        out = [0] * md
        for p, x in enumerate(of_unit[key]):
            cell = left[k].get(p, ()) if side == "left" else right[p].get(k, ())
            for q, c in cell if x else ():
                out[q] += x * c
        return tuple(out)

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
               if cols[(i, j, i, j)][k] != tuple(
                   x - y + z for x, y, z in zip(act_basis("right", k, (i, m_, i, m_)),
                                                act_basis("left", k, (j, m_, j, m_)),
                                                cols[(m_, m_, m_, m_)][k])))),
    )
    results = []
    for name, failures in searches:
        bad = next(failures, None)
        results.append(IdentityResult(name, bad is None, bad))
    return Lemma22Report(tuple(results))


# ---------------------------------------------------------------------------
# relabeling
# ---------------------------------------------------------------------------

def _renamed(table: Table, rows: Sequence[int], cols: Sequence[int],
             out: Sequence[int]) -> Table:
    """table with cell (i, j) moved to (rows[i], cols[j]) and each entry
    (k, c) to (out[k], c), in canonical sparse form."""
    moved = {i: tuple(sorted([(cols[j], tuple(sorted([(out[k], c) for k, c in cell])))
                              for j, cell in row])) for i, row in zip(rows, table)}
    return tuple(moved[i] for i in range(len(table)))


@dataclass(frozen=True)
class PairIso:
    """The relabeling e_t -> e'_{alg[t]}, f_p -> f'_{mod[p]} of the pair
    source onto target.  The constructor is its certificate, else ValueError:
    alg and mod permute the bases, and the renamed source equals the target."""

    source: tuple[Algebra, Bimodule]
    target: tuple[Algebra, Bimodule]
    alg: tuple[int, ...]
    mod: tuple[int, ...]

    def __post_init__(self):
        (a, m), (a2, m2), alg, mod = self.source, self.target, self.alg, self.mod
        regular = mod == alg and m.left_table is a.table is m.right_table  # renamed once
        if (sorted(alg) != list(range(a.dim)) or sorted(mod) != list(range(m.dim))
                or m.algebra_dim != a.dim
                or (self.apply(a.unit), table := _renamed(a.table, alg, alg, alg),
                    table if regular else _renamed(m.left_table, alg, mod, mod),
                    table if regular else _renamed(m.right_table, mod, alg, mod))
                != (a2.unit, a2.table, m2.left_table, m2.right_table)):
            raise ValueError("relabeling is not an isomorphism of the pairs")

    def apply(self, x: Sequence[Fraction]) -> Vector:
        if len(x) != len(self.alg):
            raise ValueError("element length does not match source algebra")
        out = [ZERO] * len(self.alg)
        for t, c in zip(self.alg, x):
            out[t] = c
        return tuple(out)

    def inverse(self, y: Sequence[Fraction]) -> Vector:
        if len(y) != len(self.alg):
            raise ValueError("element length does not match target algebra")
        return tuple(y[t] for t in self.alg)

    def transport(self, D: Derivation) -> Derivation:
        """D with entry (p, k) moved to (mod[p], alg[k]): a derivation of the
        target pair by the constructor's certificate, with no Leibniz pass."""
        _check_derivation(D, *self.source, "transport")
        a, m = self.target
        return Derivation(LinearMap(Matrix.from_triples(m.dim, a.dim, sorted(
            (self.mod[p], self.alg[k], x) for p, row in enumerate(D.matrix.nonzeros)
            for k, x in row))), a, m)


def reblock_iso(a: Algebra, r: int, k: int) -> PairIso:
    """e x E_{ik+p, jk+q} -> (e x E_pq) x E_ij, from the regular pair of
    M_{rk}(a) onto that of M_r(M_k(a)); needs r, k >= 2 (the n >= 2 rule of
    matrix_algebra)."""
    if r < 2 or k < 2:
        raise ValueError("reblocking needs r >= 2 and k >= 2")
    inner = matrix_algebra(a, k)
    outer = matrix_algebra(inner.algebra, r)
    perm = tuple(outer.flat(row // k, col // k, inner.flat(row % k, col % k, t))
                 for row in range(r * k) for col in range(r * k) for t in range(a.dim))
    pairs = [(b, regular_bimodule(b)) for b in (matrix_algebra(a, r * k).algebra, outer.algebra)]
    return PairIso(*pairs, perm, perm)
