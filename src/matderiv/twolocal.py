"""2-local derivation oracles and their certification.

A 2-local derivation oracle is a black box Delta: M_n(A) -> M_n(M) promised
to agree with some genuine derivation on every PAIR of inputs.  The tools
here wrap honest derivations as oracles, build deliberately broken oracles as
negative controls, solve the pair-interpolation problem over a derivation
space, and run the two-query reconstruction: sample Delta at the separating
elements S = sum_i (i+1)(1 x E_ii) and T = sum_i 1 x E_{i,i+1}, interpolate,
then verify the candidate on caller-supplied samples.  A wrapped derivation
L is a linear oracle, verified on the difference map L - cand without
further queries; a nonlinear oracle is queried once per sample.  Anything a
derivation cannot see at S and T (entrywise lifts of base derivations vanish
there, for instance) is exactly what the verification exists to catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algcore import Algebra, Bimodule, act, multiply
from .dercalc import Derivation, DerivationSpace, LinearMap, _check_derivation
from .exactlin import (Matrix, Vector, _nonzeros, basis_vec, lincomb, solve, vadd, vscale,
                       zero_vec)
from .matext import MatrixAlgebra, MatrixBimodule


class NotTwoLocalError(Exception):
    """Raised when no derivation interpolates the oracle at (S, T); carries
    the offending pair with the sampled values."""

    def __init__(self, s_pair: tuple[Vector, Vector], t_pair: tuple[Vector, Vector]):
        self.s_pair = s_pair
        self.t_pair = t_pair
        super().__init__("no derivation matches the oracle at the canonical pair (S, T)")


class TwoLocalOracle:
    """Deterministic black box with a query log; derivation is the certified
    derivation fn was built from, if any, and linear says fn is its apply."""

    def __init__(self, fn: Callable[[Vector], Vector], label: str = "",
                 derivation: Derivation | None = None, linear: bool = False):
        self._fn = fn
        self.label = label
        self.derivation = derivation
        self.linear = linear
        self.query_log: list[tuple[Vector, Vector]] = []

    def evaluate(self, x: Sequence[Fraction]) -> Vector:
        """Query the black box at x, logging (x, Delta(x)).  x is passed on
        as a tuple of Fractions; coordinates that are Fractions already are
        kept as they are, others go through Fraction()."""
        xt = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in x)
        y = self._fn(xt)
        self.query_log.append((xt, y))
        return y

    @property
    def query_count(self) -> int:
        return len(self.query_log)


def wrap_derivation(d: Derivation, label: str = "") -> TwoLocalOracle:
    """Honest oracle: evaluates the derivation itself, a linear oracle."""
    return TwoLocalOracle(d.apply, label or "wrapped derivation", d, linear=True)


PERTURBATION_KINDS = ("quadratic_block", "sign_flip_offdiag")


def perturbed_oracle(d: Derivation, kind: str, ma: MatrixAlgebra,
                     mm: MatrixBimodule) -> TwoLocalOracle:
    """Negative controls.  Both distortions vanish at 0 and are driven by the
    first base coordinate of the input's (1,2) block, so they are nonlinear
    and cannot be 2-local:

    - quadratic_block: adds t^2 into the (1,2) block of the output;
    - sign_flip_offdiag: negates the whole output when t < 0.
    """
    _check_derivation(d, ma.algebra, mm.bimodule, "perturbed_oracle")
    t_col = ma.flat(0, 1, 0)
    if kind == "quadratic_block":
        out_pos = mm.flat(0, 1, 0)

        def fn(x: Vector) -> Vector:
            y = d.apply(x)
            t = x[t_col]
            if t:
                y = list(y)
                y[out_pos] += t * t
                y = tuple(y)
            return y
    elif kind == "sign_flip_offdiag":
        def fn(x: Vector) -> Vector:
            y = d.apply(x)
            if x[t_col] < 0:
                y = tuple(-c for c in y)
            return y
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}; "
                         f"expected one of {PERTURBATION_KINDS}")
    return TwoLocalOracle(fn, f"perturbed:{kind}", d)


# ---------------------------------------------------------------------------
# pair interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    x: Vector
    y: Vector
    dx: Vector
    dy: Vector
    feasible: bool
    witness: Derivation | None


def pair_witness(space: DerivationSpace, x: Sequence[Fraction],
                 y: Sequence[Fraction], dx: Sequence[Fraction],
                 dy: Sequence[Fraction]) -> WitnessReport:
    """Solve (sum_t c_t B_t)(x) = dx, (sum_t c_t B_t)(y) = dy over the basis
    B_t of the given derivation space; the witness is the free-variables-zero
    solution mapped back to a derivation."""
    md = space.bimodule.dim
    x, y = tuple(x), tuple(y)
    dx, dy = tuple(dx), tuple(dy)
    if len(x) != space.algebra.dim or len(y) != space.algebra.dim:
        raise ValueError("sample element has wrong dimension")
    if len(dx) != md or len(dy) != md:
        raise ValueError("sample value has wrong dimension")
    # column t of the system: (B_t(x), B_t(y))
    system = Matrix.from_triples(2 * md, space.dim, (
        (r, t, v) for t, b in enumerate(space.basis)
        for r, v in _nonzeros(b.apply(x) + b.apply(y))))
    coeffs = solve(system, dx + dy)
    if coeffs is None:
        return WitnessReport(x, y, dx, dy, False, None)
    lin = LinearMap(lincomb([(c, b.matrix) for c, b in zip(coeffs, space.basis) if c],
                            md, space.algebra.dim))
    # a linear combination of certified derivations is again a derivation
    return WitnessReport(x, y, dx, dy, True, Derivation(lin, space.algebra, space.bimodule))


def canonical_S_T(ma: MatrixAlgebra) -> tuple[Vector, Vector]:
    """S = sum_i (i+1)(1 x E_ii) separates rows from columns; T is the
    superdiagonal of units.  Commutants: diagonal matrices for S,
    upper-triangular Toeplitz for T."""
    n = ma.n
    s = zero_vec(ma.algebra.dim)
    for i in range(n):
        s = vadd(s, vscale(Fraction(i + 1), ma.embed(ma.base.unit, i, i)))
    t = zero_vec(ma.algebra.dim)
    for i in range(n - 1):
        t = vadd(t, ma.embed(ma.base.unit, i, i + 1))
    return s, t


def reconstruct(oracle: TwoLocalOracle, space: DerivationSpace,
                ma: MatrixAlgebra) -> Derivation:
    """Two-query reconstruction: interpolate the oracle at (S, T).

    Exactly two oracle queries are issued.  Raises NotTwoLocalError when no
    derivation in the space matches both values.  The result agrees with the
    oracle at S, T and (for a genuine 2-local derivation) at every matrix
    unit; agreement elsewhere is checked separately, with no further query
    of a linear oracle, see agreement_failures().
    """
    s, t = canonical_S_T(ma)
    ds = oracle.evaluate(s)
    dt = oracle.evaluate(t)
    rep = pair_witness(space, s, t, ds, dt)
    if not rep.feasible:
        raise NotTwoLocalError((s, ds), (t, dt))
    return rep.witness


def agreement_failures(oracle: TwoLocalOracle, d: Derivation,
                       samples: Iterable[Sequence[Fraction]]) -> list[int]:
    """Indices of samples where the oracle and the derivation disagree, by
    Matrix.maps_to.  A linear oracle L is decided on (L - d)x with no query,
    and reads no sample when L = d; any other oracle is queried once per
    sample.  ValueError if d is not of the oracle's pair or an oracle value
    has the wrong length."""
    base = oracle.derivation
    if base is not None:
        _check_derivation(d, base.algebra, base.bimodule, "agreement_failures")
    if oracle.linear:
        diff = base.matrix - d.matrix
        if diff.is_zero():
            return []
        zero = (0,) * diff.rows
        return [idx for idx, x in enumerate(samples) if not diff.maps_to(x, zero)]
    return [idx for idx, x in enumerate(samples) if not d.matrix.maps_to(x, oracle.evaluate(x))]


def verify_2local_property(oracle: TwoLocalOracle, space: DerivationSpace,
                           pairs: Iterable[tuple[Sequence[Fraction], Sequence[Fraction]]]
                           ) -> list[WitnessReport]:
    """Interpolation check over a list of pairs; returns the infeasible
    reports (empty list = consistent with 2-locality on those pairs)."""
    bad = []
    for x, y in pairs:
        dx = oracle.evaluate(x)
        dy = oracle.evaluate(y)
        rep = pair_witness(space, x, y, dx, dy)
        if not rep.feasible:
            bad.append(rep)
    return bad


def central_idempotent_compat(oracle: TwoLocalOracle, a: Algebra, m: Bimodule,
                              e: Sequence[Fraction],
                              samples: Iterable[Sequence[Fraction]]) -> list[int]:
    """Check Delta(e.x) = e.Delta(x) on the samples, for a central idempotent
    e that commutes with the module.  The hypotheses on e are verified first;
    a failure there is an input error, not a compatibility violation."""
    e = tuple(Fraction(c) for c in e)
    if len(e) != a.dim:
        raise ValueError("idempotent has wrong dimension")
    if multiply(a, e, e) != e:
        raise ValueError("e is not idempotent")
    for i in range(a.dim):
        z = basis_vec(a.dim, i)
        if multiply(a, e, z) != multiply(a, z, e):
            raise ValueError("e is not central")
    for p in range(m.dim):
        f = basis_vec(m.dim, p)
        if act(m, "left", e, f) != act(m, "right", e, f):
            raise ValueError("e does not commute with the module")
    bad = []
    for idx, x in enumerate(samples):
        lhs = oracle.evaluate(multiply(a, e, tuple(Fraction(c) for c in x)))
        rhs = act(m, "left", e, oracle.evaluate(x))
        if lhs != rhs:
            bad.append(idx)
    return bad


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 42

_NUMERATOR_RANGE = (-9, 9)
_DENOMINATORS = (1, 2, 3)
# every value a sample coordinate can take, keyed by (numerator, denominator)
_SAMPLE_VALUES = {(p, q): Fraction(p, q)
                  for p in range(_NUMERATOR_RANGE[0], _NUMERATOR_RANGE[1] + 1)
                  for q in _DENOMINATORS}


def seeded_elements(dim: int, count: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> list[Vector]:
    """Deterministic sample elements: numerators in [-9, 9], denominators in
    {1, 2, 3}.  Each coordinate draws rng.randint for the numerator, then
    rng.choice for the denominator, and takes the shared Fraction for that
    pair from a table of the 57 possible values."""
    rng = random.Random(seed)
    lo, hi = _NUMERATOR_RANGE
    return [tuple(_SAMPLE_VALUES[rng.randint(lo, hi), rng.choice(_DENOMINATORS)]
                  for _ in range(dim))
            for _ in range(count)]
