"""Seeded inputs, command lists and report checks for the three workloads.

Every command is a list of `matderiv` CLI arguments plus an expectation
object whose `check(exit_code, stdout)` returns the problems it found (an
empty list means the report is correct).  Expectations are derived from the
mathematics of the generated inputs, never from the seed and never as a byte
digest of a whole report, so lines added to a report later do not break them:

- derspace: Der, Inner and H1 follow the Morita closed form
  Inner(M_n(A)) = n^2 dim A - dim Z(A), H1(M_n(A)) = H1(A), with the base
  values taken from the independent brute-force oracles in tests/oracles.py;
  the printed basis must equal the canonical basis recorded in
  expected_bases.json (a Jordan basis must equal the derivation basis).
- decompose of D = ad_W + lift(delta): the witness is B_ij = W_ij - [i=j] W_00
  and the printed delta is ad_{W_00} + delta on the base.
- one-entry non-derivations: the reported Leibniz pair is the first failing
  basis pair, computed here from base products; identity (v) fails first at
  the perturbed component.
- twolocal: the reconstruction interpolates the oracle at S and T (and equals
  the known reconstruction for honest oracles); the agreeing count and the
  first disagreeing sample are recomputed here in integer arithmetic on the
  same seeded samples.

The library must be importable (its src/ directory on sys.path) before this
module is imported.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import Sequence

from matderiv import (LinearMap, Matrix, basis_vec, catalog, certify,
                      derivation_space, matrix_algebra, matrix_pair, multiply,
                      reconstruct, wrap_derivation)

HERE = Path(__file__).resolve().parent
ORACLES = HERE.parent / "tests" / "oracles.py"
EXPECTED_BASES = HERE / "expected_bases.json"

WORKLOADS = ("derspace-ladder", "certify-large", "twolocal-verify")

ZERO = Fraction(0)


@dataclass
class Command:
    argv: list[str]
    expect: object

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Generate the inputs of a workload under workdir and return its
    commands, smallest first."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "derspace-ladder":
        return _derspace_ladder()
    if workload == "certify-large":
        return _certify_large(rng, workdir)
    if workload == "twolocal-verify":
        return _twolocal_verify(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# report parsing
# ---------------------------------------------------------------------------

def _row(line: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in line.strip()[1:-1].split())


def _matrix_after(lines: list[str], header: str) -> list[tuple[Fraction, ...]]:
    """Rows of the bracketed matrix printed right after the header line."""
    rows = []
    start = lines.index(header) + 1 if header in lines else len(lines)
    for line in lines[start:]:
        if not line.startswith("["):
            break
        rows.append(_row(line))
    return rows


def blocks(lines: list[str], title: str) -> list[list[tuple[Fraction, ...]]]:
    """Matrices printed under numbered headers '<title> <k>:'."""
    head = re.compile(re.escape(title) + r" \d+:$")
    out: list[list[tuple[Fraction, ...]]] = []
    current = None
    for line in lines:
        if head.match(line):
            current = []
            out.append(current)
        elif current is not None and line.startswith("["):
            current.append(_row(line))
        else:
            current = None
    return out


def basis_digest(blocks: list[list[tuple[Fraction, ...]]]) -> str:
    canon = [[[str(x) for x in row] for row in b] for b in blocks]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def _apply(rows, x: Sequence[Fraction]) -> list[Fraction]:
    return [sum((c * v for c, v in zip(row, x) if c and v), ZERO) for row in rows]


def _want(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

@dataclass
class Derspace:
    dim: int
    der: int
    inner: int
    h1: int
    jordan: bool
    basis_digest: str

    def check(self, rc: int, out: str) -> list[str]:
        p: list[str] = []
        lines = out.splitlines()
        _want(p, rc == 0, f"exit code {rc}, expected 0")
        _want(p, f"dim: {self.dim}" in lines, f"missing 'dim: {self.dim}'")
        line = f"Der={self.der} Inner={self.inner} H1={self.h1}"
        _want(p, line in lines, f"missing '{line}' (Morita closed form)")
        title = "basis"
        if self.jordan:
            # Jordan derivations of M_n(A), n >= 2, are derivations
            _want(p, f"Jordan={self.der}" in lines, f"missing 'Jordan={self.der}'")
            title = "jordan basis"
        found = blocks(lines, title)
        _want(p, len(found) == self.der,
              f"{len(found)} {title} elements, expected {self.der}")
        _want(p, basis_digest(found) == self.basis_digest,
              f"{title} differs from the recorded canonical basis")
        return p


@dataclass
class Decompose:
    n: int
    witness: list[tuple[Fraction, ...]]        # block (i, j) at i*n + j
    delta: list[tuple[Fraction, ...]]

    def check(self, rc: int, out: str) -> list[str]:
        p: list[str] = []
        lines = out.splitlines()
        _want(p, rc == 0, f"exit code {rc}, expected 0")
        got = {}
        for line in lines:
            m = re.match(r"B\[(\d+)\]\[(\d+)\] = (.*)$", line)
            if m:
                got[(int(m[1]) - 1, int(m[2]) - 1)] = tuple(
                    Fraction(t) for t in m[3].split())
        want = {(i, j): self.witness[i * self.n + j]
                for i in range(self.n) for j in range(self.n)}
        _want(p, got == want, "witness is not B_ij = W_ij - [i=j] W_00")
        _want(p, _matrix_after(lines, "delta:") == self.delta,
              "delta is not ad_{W_00} + delta")
        _want(p, "recomposition exact: yes" in lines,
              "missing 'recomposition exact: yes'")
        return p


@dataclass
class NotDerivation:
    pair: tuple[int, int]

    def check(self, rc: int, out: str) -> list[str]:
        p: list[str] = []
        _want(p, rc == 1, f"exit code {rc}, expected 1")
        line = ("not a derivation: map violates the Leibniz rule at basis "
                f"pair ({self.pair[0]},{self.pair[1]})")
        _want(p, line in out.splitlines(), f"missing '{line}'")
        return p


@dataclass
class Lemma22:
    fail_v: tuple[int, ...] | None             # first counterexample of (v)

    def check(self, rc: int, out: str) -> list[str]:
        p: list[str] = []
        lines = out.splitlines()
        _want(p, rc == (0 if self.fail_v is None else 1),
              f"exit code {rc}, expected {0 if self.fail_v is None else 1}")
        for name in ("i", "ii", "iii", "iv"):
            _want(p, f"({name}): pass" in lines, f"missing '({name}): pass'")
        last = "(v): pass" if self.fail_v is None else f"(v): FAIL at {self.fail_v}"
        _want(p, last in lines, f"missing '{last}'")
        return p


@dataclass
class Validate:
    dim: int

    def check(self, rc: int, out: str) -> list[str]:
        p: list[str] = []
        lines = out.splitlines()
        _want(p, rc == 0, f"exit code {rc}, expected 0")
        for line in (f"dim: {self.dim}", "algebra axioms: ok",
                     "module regular axioms: ok"):
            _want(p, line in lines, f"missing '{line}'")
        return p


@dataclass
class TwoLocal:
    n: int
    unit: tuple[Fraction, ...]                 # base unit
    oracle: list[tuple[Fraction, ...]]         # the map in the oracle file
    kind: str                                  # honest or a perturbation kind
    cand: list[tuple[Fraction, ...]] | None    # known reconstruction, if any
    samples: int
    seed: int

    def _oracle_at(self, x: Sequence[Fraction]) -> list[Fraction]:
        y = _apply(self.oracle, x)
        t = x[len(self.unit)]                  # first coordinate of block (0,1)
        if self.kind == "quadratic_block" and t:
            y[len(self.unit)] += t * t
        elif self.kind == "sign_flip_offdiag" and t < 0:
            y = [-v for v in y]
        return y

    def _disagreements(self, cand: list[tuple[Fraction, ...]]) -> list[int]:
        """Sample indices where oracle and candidate differ, in integers:
        X = 6x, and every map is scaled by the lcm of its denominators."""
        dim = len(self.oracle[0])
        diff = [tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.oracle, cand)]
        scale = lcm(1, *(v.denominator for r in diff + self.oracle for v in r if v))
        k = [[(c, int(v * scale)) for c, v in enumerate(r) if v] for r in diff]
        dmap = [[(c, int(v * scale)) for c, v in enumerate(r) if v] for r in self.oracle]
        t_col = out_pos = len(self.unit)
        if self.kind == "honest" and not any(k):
            return []
        rng = random.Random(self.seed)
        bad = []
        for idx in range(self.samples):
            # mirrors seeded_elements: numerator in [-9, 9], then denominator
            x = [rng.randint(-9, 9) * (6 // rng.choice((1, 2, 3))) for _ in range(dim)]
            r = [6 * sum(v * x[c] for c, v in row) for row in k]   # 36*scale*(K x)
            t = x[t_col]
            if self.kind == "quadratic_block" and t:
                r[out_pos] += scale * t * t
            elif self.kind == "sign_flip_offdiag" and t < 0:
                for q, row in enumerate(dmap):
                    r[q] -= 12 * sum(v * x[c] for c, v in row)
            if any(r):
                bad.append(idx)
        return bad

    def check(self, rc: int, out: str) -> list[str]:
        p: list[str] = []
        lines = out.splitlines()
        _want(p, "queries: 2" in lines, "missing 'queries: 2'")
        cand = _matrix_after(lines, "reconstructed derivation:")
        if len(cand) != len(self.oracle):
            return p + ["no reconstructed derivation printed"]
        if self.cand is not None:
            _want(p, cand == self.cand, "reconstruction differs from the known one")
        s, t = canonical_s_t(self.unit, self.n)
        for name, x in (("S", s), ("T", t)):
            _want(p, _apply(cand, x) == self._oracle_at(x),
                  f"reconstruction misses the oracle at {name}")
        bad = self._disagreements(cand)
        line = f"agreeing samples: {self.samples - len(bad)}/{self.samples}"
        _want(p, line in lines, f"missing '{line}'")
        verdict = f"verdict: disagreement at sample {bad[0]}" if bad else "verdict: verified"
        _want(p, verdict in lines, f"missing '{verdict}'")
        _want(p, rc == (1 if bad else 0), f"exit code {rc}, expected {1 if bad else 0}")
        return p


# ---------------------------------------------------------------------------
# generation helpers (public API only)
# ---------------------------------------------------------------------------

def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))


def canonical_s_t(unit: Sequence[Fraction], n: int) -> tuple[list[Fraction], list[Fraction]]:
    """S = sum_i (i+1)(1 x E_ii) and T = sum_i 1 x E_{i,i+1}."""
    d = len(unit)
    s = [ZERO] * (n * n * d)
    t = [ZERO] * (n * n * d)
    for i in range(n):
        for k, u in enumerate(unit):
            s[(i * n + i) * d + k] = (i + 1) * u
            if i + 1 < n:
                t[(i * n + i + 1) * d + k] = u
    return s, t


def base_derivation(rng: random.Random, name: str) -> list[tuple[Fraction, ...]]:
    """A seeded nonzero combination of the base derivation-space basis."""
    a, m = catalog(name)
    space = derivation_space(a, m)
    mat = [[ZERO] * a.dim for _ in range(m.dim)]
    for b in space.basis:
        c = _nonzero(rng)
        for q in range(m.dim):
            for k in range(a.dim):
                mat[q][k] += c * b.matrix.at(q, k)
    return [tuple(r) for r in mat]


def inner_plus_lift(name: str, n: int, w: Sequence[Fraction],
                    delta: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Matrix of ad_W + lift(delta) on the regular pair of M_n(A), assembled
    block by block from base products (building the M_6 pair through the
    library would dominate set-up):
        D(e_k x E_pq) = sum_i W_ip e_k x E_iq - sum_j e_k W_qj x E_pj
                        + delta(e_k) x E_pq."""
    a, _ = catalog(name)
    d = a.dim
    big = n * n * d
    e = [basis_vec(d, k) for k in range(d)]
    blk = [tuple(w[b * d:(b + 1) * d]) for b in range(n * n)]
    cols = []
    for p in range(n):
        for q in range(n):
            for k in range(d):
                col = [ZERO] * big
                for i in range(n):
                    off = (i * n + q) * d
                    for s, c in enumerate(multiply(a, blk[i * n + p], e[k])):
                        col[off + s] += c
                for j in range(n):
                    off = (p * n + j) * d
                    for s, c in enumerate(multiply(a, e[k], blk[q * n + j])):
                        col[off + s] -= c
                off = (p * n + q) * d
                for s in range(d):
                    col[off + s] += delta[s][k]
                cols.append(col)
    return [tuple(col[r] for col in cols) for r in range(big)]


def _write_map(path: Path, name: str, rows: Sequence[Sequence[Fraction]]) -> str:
    path.write_text(json.dumps({"kind": "derivation", "algebra": name,
                                "module": "regular",
                                "matrix": [[str(x) for x in r] for r in rows]}))
    return str(path)


# ---------------------------------------------------------------------------
# derspace-ladder
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def morita(name: str, n: int) -> tuple[int, int, int]:
    """(Der, Inner, H1) of M_n(A) on its regular bimodule from the base
    values of the brute-force oracles."""
    oracles = _oracles()
    a, m = catalog(name)
    der = oracles.derivation_dim_oracle(a, m)
    inner = oracles.inner_dim_oracle(a, m)
    big_inner = n * n * a.dim - (a.dim - inner)    # dim Z(A) = dim A - rank ad
    return big_inner + der - inner, big_inner, der - inner


LADDER = (("dual_numbers", 2, False), ("upper_triangular_2", 2, False),
          ("full_matrix_2", 2, False), ("upper_triangular_2", 2, True),
          ("dual_numbers", 3, False), ("upper_triangular_2", 3, False),
          ("dual_numbers", 4, False), ("full_matrix_2", 3, False))


def _derspace_ladder() -> list[Command]:
    bases = json.loads(EXPECTED_BASES.read_text())
    cmds = []
    for name, n, jordan in LADDER:
        der, inner, h1 = morita(name, n)
        d = catalog(name)[0].dim
        argv = ["derspace", name, "-n", str(n)] + (["--jordan"] if jordan else [])
        cmds.append(Command(argv, Derspace(n * n * d, der, inner, h1, jordan,
                                           bases[f"{name} -n {n}"])))
    return cmds


# ---------------------------------------------------------------------------
# certify-large
# ---------------------------------------------------------------------------

def first_leibniz_failure(name: str, n: int, r: int, c: int) -> tuple[int, int]:
    """First basis pair (i, j), in lexicographic order, where the one-entry
    map f_c -> f_r of the regular pair of M_n(A) breaks the Leibniz rule.
    Adding it to a derivation moves the Leibniz defect by exactly this."""
    a, _ = catalog(name)
    d = a.dim
    e = [basis_vec(d, k) for k in range(d)]
    prod = [[multiply(a, e[x], e[y]) for y in range(d)] for x in range(d)]

    def split(t):
        b, k = divmod(t, d)
        return (*divmod(b, n), k)

    pc, qc, kc = split(c)
    pr, qr, kr = split(r)
    for i in range(n * n * d):
        p1, q1, k1 = split(i)
        for j in range(n * n * d):
            p2, q2, k2 = split(j)
            acc: dict[int, Fraction] = {}
            if q1 == p2 and p1 == pc and q2 == qc and prod[k1][k2][kc]:
                acc[r] = prod[k1][k2][kc]                    # E(e_i e_j)
            if i == c and qr == p2:                          # - E(e_i).e_j
                for s, x in enumerate(prod[kr][k2]):
                    t = (pr * n + q2) * d + s
                    acc[t] = acc.get(t, ZERO) - x
            if j == c and q1 == pr:                          # - e_i.E(e_j)
                for s, x in enumerate(prod[k1][kr]):
                    t = (p1 * n + qr) * d + s
                    acc[t] = acc.get(t, ZERO) - x
            if any(acc.values()):
                return i, j
    raise ValueError("the one-entry map is a derivation")


def _honest(rng: random.Random, name: str, n: int):
    """Seeded W and delta and the matrix of D = ad_W + lift(delta)."""
    d = catalog(name)[0].dim
    w = [_rational(rng) for _ in range(n * n * d)]
    delta = base_derivation(rng, name)
    return w, delta, inner_plus_lift(name, n, w, delta)


def _decompose_expect(name: str, n: int, w, delta) -> Decompose:
    a, _ = catalog(name)
    d = a.dim
    blk = [tuple(w[b * d:(b + 1) * d]) for b in range(n * n)]
    witness = [tuple(x - y for x, y in zip(blk[i * n + j], blk[0])) if i == j
               else blk[i * n + j] for i in range(n) for j in range(n)]
    cols = []
    for k in range(d):
        ek = basis_vec(d, k)
        cols.append([x - y + delta[s][k] for s, (x, y) in
                     enumerate(zip(multiply(a, blk[0], ek), multiply(a, ek, blk[0])))])
    return Decompose(n, witness, [tuple(col[s] for col in cols) for s in range(d)])


def _perturbed(rng: random.Random, name: str, n: int, rows):
    """Add a nonzero value to one entry of an off-diagonal component
    (p,q|p,q), p != q, at a base column whose unit coordinate is 0: identities
    (i)-(iv) still hold and (v) first fails at (p, q, 0, k)."""
    a, _ = catalog(name)
    d = a.dim
    p, q = rng.sample(range(n), 2)
    k = rng.choice([k for k in range(d) if not a.unit[k]])
    r, c = (p * n + q) * d + rng.randrange(d), (p * n + q) * d + k
    rows = [list(row) for row in rows]
    rows[r][c] += _nonzero(rng)
    return rows, first_leibniz_failure(name, n, r, c), (p, q, 0, k)


def algebra_file(rng: random.Random, path: Path, name: str, n: int) -> int:
    """Write M_n(name) as an algebra file under a seeded signed permutation
    of its basis; returns the dimension."""
    alg = matrix_algebra(catalog(name)[0], n).algebra
    dim = alg.dim
    perm = list(range(dim))
    rng.shuffle(perm)
    sign = [rng.choice((-1, 1)) for _ in range(dim)]
    mult = [{"i": perm[i], "j": perm[j], "k": perm[k],
             "c": str(sign[i] * sign[j] * sign[k] * c)}
            for i in range(dim) for j in range(dim)
            for k, c in enumerate(alg.mult[i][j]) if c]
    labels = [""] * dim
    unit = ["0"] * dim
    for i in range(dim):
        labels[perm[i]] = f"{'-' if sign[i] < 0 else ''}{alg.labels[i]}"
        unit[perm[i]] = str(sign[i] * alg.unit[i])
    path.write_text(json.dumps({"name": f"M_{n}({name})", "dim": dim,
                                "basis_labels": labels, "unit": unit,
                                "mult": mult}))
    return dim


def _certify_large(rng: random.Random, workdir: Path) -> list[Command]:
    cmds = []
    w, delta, rows = _honest(rng, "dual_numbers", 6)
    dual = _write_map(workdir / "dual6.json", "dual_numbers", rows)
    cmds.append(Command(["lemma22", "dual_numbers", "-n", "6", "--derivation", dual],
                        Lemma22(None)))
    cmds.append(Command(["decompose", "dual_numbers", "-n", "6", "--derivation", dual],
                        _decompose_expect("dual_numbers", 6, w, delta)))
    _, _, rows = _honest(rng, "full_matrix_2", 5)
    bad_rows, pair, fail_v = _perturbed(rng, "full_matrix_2", 5, rows)
    bad = _write_map(workdir / "nonder5.json", "full_matrix_2", bad_rows)
    cmds.append(Command(["decompose", "full_matrix_2", "-n", "5", "--derivation", bad],
                        NotDerivation(pair)))
    cmds.append(Command(["lemma22", "full_matrix_2", "-n", "5", "--bypass-certify",
                         "--derivation", bad], Lemma22(fail_v)))
    alg = workdir / "algebra27.json"
    cmds.append(Command(["validate", str(alg)],
                        Validate(algebra_file(rng, alg, "upper_triangular_2", 3))))
    w, delta, rows = _honest(rng, "full_matrix_2", 6)
    big = _write_map(workdir / "full6.json", "full_matrix_2", rows)
    cmds.append(Command(["decompose", "full_matrix_2", "-n", "6", "--derivation", big],
                        _decompose_expect("full_matrix_2", 6, w, delta)))
    return cmds


# ---------------------------------------------------------------------------
# twolocal-verify
# ---------------------------------------------------------------------------

def visible_oracle(rng: random.Random, name: str, n: int) -> list[tuple[Fraction, ...]]:
    """The (S, T) reconstruction of a seeded ad_W + lift(delta): a derivation
    that two queries see completely."""
    _, _, rows = _honest(rng, name, n)
    a, m = catalog(name)
    ma, mm = matrix_pair(a, m, n)
    d = certify(ma.algebra, mm.bimodule, LinearMap(Matrix(len(rows), len(rows), tuple(rows))))
    cand = reconstruct(wrap_derivation(d), derivation_space(ma.algebra, mm.bimodule), ma)
    return list(cand.matrix.entries)


# (label, base, n, oracle kind, samples), smallest first
TWOLOCAL = (("blind", "dual_numbers", 2, "honest", 1000),
            ("visible", "dual_numbers", 2, "honest", 2000),
            ("visible", "upper_triangular_2", 2, "honest", 1500),
            ("visible", "full_matrix_2", 2, "sign_flip_offdiag", 1000),
            ("visible", "full_matrix_2", 2, "honest", 1000),
            ("visible", "dual_numbers", 3, "honest", 1000),
            ("visible", "dual_numbers", 3, "quadratic_block", 1000))


def _twolocal_verify(rng: random.Random, workdir: Path) -> list[Command]:
    cmds = []
    for idx, (label, name, n, kind, samples) in enumerate(TWOLOCAL):
        cand = visible_oracle(rng, name, n)
        rows = cand
        if label == "blind":
            # add the lift of a non-inner base derivation: it vanishes at S
            # and T, so the reconstruction stays `cand` and samples disagree
            delta = base_derivation(rng, name)
            lifted = inner_plus_lift(name, n, [ZERO] * len(cand), delta)
            rows = [tuple(x + y for x, y in zip(r, s)) for r, s in zip(cand, lifted)]
        path = _write_map(workdir / f"oracle{idx}.json", name, rows)
        spec = path if kind == "honest" else f"perturb:{kind}:{path}"
        seed = rng.randrange(1, 1 << 30)
        unit = catalog(name)[0].unit
        cmds.append(Command(
            ["twolocal", name, "-n", str(n), "--oracle", spec,
             "--samples", str(samples), "--seed", str(seed)],
            TwoLocal(n, unit, rows, kind, cand if kind == "honest" else None,
                     samples, seed)))
    return cmds
