"""Command-line front end.

Commands: validate, derspace, decompose, lemma22, twolocal.  Inputs are
UTF-8 JSON files with every rational written as a string ("3", "-1/2"); an
algebra argument may also be a catalog name (field, dual_numbers,
group_algebra_C2, full_matrix_2, upper_triangular_2, direct_sum(x,y)).

All five commands resolve their pair in _checked_pair, and derspace,
decompose, lemma22 and twolocal refuse an invalid one in _build_pair.  The
regular bimodule's axioms are the algebra's own, so validate does not expand
them again.  One helper reads coefficient lists, map files are read into
their nonzeros, and matrices are printed from those.

Exit codes: 0 success/verified, 1 mathematical violation found, 2 input
error (undecodable files and numbers past Python's int digit limit too).
Every command reads and parses all its inputs before it prints, so an input
error leaves stdout empty.  Reports are plain text and byte-identical across
runs for identical inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Iterator, Sequence, TextIO

from .algcore import (Algebra, Bimodule, CATALOG_NAMES, Violation, catalog_algebra,
                      clipped, past_digit_limit, regular_bimodule, validate_algebra,
                      validate_bimodule)
from .dercalc import (Derivation, LinearMap, certify, derivation_space,
                      inner_space, jordan_derivation_space)
from .exactlin import Matrix, Vector, quotient_dim
from .matext import (DecompositionError, MatrixAlgebra, MatrixBimodule, decompose,
                     matrix_pair, split_map, verify_lemma22)
from .twolocal import (DEFAULT_SAMPLES, DEFAULT_SEED, NotTwoLocalError,
                       PERTURBATION_KINDS, agreement_failures,
                       perturbed_oracle, reconstruct, seeded_elements,
                       wrap_derivation)


class CliInputError(Exception):
    """Unreadable or ill-formed input; maps to exit code 2."""


def _count(violations) -> str:
    n = len(violations)
    return f"{n} violation" + ("" if n == 1 else "s")


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text: Any) -> Fraction:
    """Rational grammar: optional sign, decimal integer, optional '/' and a
    positive decimal integer.  The Unicode minus sign is accepted."""
    if not isinstance(text, str):
        raise CliInputError(f"rational must be a string, got {clipped(text)}")
    s = text.replace("−", "-")
    if not _RATIONAL_RE.match(s):
        raise CliInputError(f"not a rational: {clipped(text)}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise CliInputError(f"zero denominator: {clipped(text)}") from None
    except ValueError as exc:                # past Python's int digit limit
        raise CliInputError(f"rational has too many digits: {text[:20]!r}... "
                            f"({len(text)} characters)") from exc


@past_digit_limit
def fmt_matrix(m: Matrix) -> str:
    """Each row as "[x0 x1 ...]" with zeros as "0", built from the row's
    nonzeros and slices of one precomputed run of zeros."""
    zeros = "0 " * m.cols
    lines = []
    for row in m.nonzeros:
        parts, prev = [], 0
        for c, x in row:
            parts += zeros[:2 * (c - prev)], str(x), " "
            prev = c + 1
        parts.append(zeros[:2 * (m.cols - prev)])
        lines.append("[" + "".join(parts)[:-1] + "]")
    return "\n".join(lines)


@past_digit_limit
def fmt_blocks(ma: MatrixAlgebra, x: Vector) -> str:
    return "\n".join(f"B[{i + 1}][{j + 1}] = "
                     + " ".join(str(c) for c in ma.entry(x, i, j))
                     for i in range(ma.n) for j in range(ma.n))


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliInputError(f"{path}: top level must be a JSON object")
    return data


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise CliInputError(f"{path}: missing field {key!r}")
    return data[key]


def _is_int(x: Any) -> bool:
    """A JSON integer: true and false are bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _coefficients(entries: Any, field: str, keys: tuple[str, ...],
                  bounds: tuple[int, ...], path: str) -> dict[tuple[int, ...], Fraction]:
    """The coefficients of a table field: a list of objects with the int
    index fields keys, each below its bound, and a rational c, each index
    tuple at most once."""
    if not isinstance(entries, list):
        raise CliInputError(f"{path}: {field} must be a list")
    found: dict[tuple[int, ...], Fraction] = {}
    for ent in entries:
        if not isinstance(ent, dict) or not {*keys, "c"} <= set(ent):
            raise CliInputError(f"{path}: {field} entries need fields {', '.join(keys)}, c")
        idx = tuple(ent[k] for k in keys)
        for val, bound in zip(idx, bounds):
            if not _is_int(val) or not 0 <= val < bound:
                raise CliInputError(f"{path}: {field} index {clipped(val)} out of range")
        if idx in found:
            raise CliInputError(f"{path}: duplicate {field} entry at {idx}")
        found[idx] = parse_rational(ent["c"])
    return found


def load_algebra_file(path: str) -> Algebra:
    """AlgebraFile: {name, dim, basis_labels, unit, mult: [{i,j,k,c}]}."""
    data = _load_json(path)
    name = _require(data, "name", path)
    dim = _require(data, "dim", path)
    labels = _require(data, "basis_labels", path)
    unit = _require(data, "unit", path)
    mult = _require(data, "mult", path)
    if not _is_int(dim) or dim <= 0:
        raise CliInputError(f"{path}: dim must be a positive integer")
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(s, str) for s in labels)):
        raise CliInputError(f"{path}: basis_labels must be {dim} strings")
    if not isinstance(unit, list) or len(unit) != dim:
        raise CliInputError(f"{path}: unit must be a list of {dim} rationals")
    unit_vec = tuple(parse_rational(c) for c in unit)
    triples = _coefficients(mult, "mult", ("i", "j", "k"), (dim, dim, dim), path)
    if not isinstance(name, str):
        raise CliInputError(f"{path}: name must be a string")
    return Algebra.from_sparse(dim, labels, unit_vec, triples)


def load_bimodule_file(path: str, a: Algebra) -> Bimodule:
    """BimoduleFile: {dim, left: [{i,p,q,c}], right: [{p,i,q,c}]} over the
    given algebra."""
    data = _load_json(path)
    dim = _require(data, "dim", path)
    if not _is_int(dim) or dim <= 0:
        raise CliInputError(f"{path}: dim must be a positive integer")
    left = _coefficients(_require(data, "left", path), "left", ("i", "p", "q"),
                         (a.dim, dim, dim), path)
    right = _coefficients(_require(data, "right", path), "right", ("p", "i", "q"),
                          (dim, a.dim, dim), path)
    return Bimodule.from_sparse(dim, a.dim, left, right)


def _require_valid(what: str, violations, labels=None) -> None:
    if violations:
        raise CliInputError(f"{what}: {_count(violations)} of the axioms, "
                            f"first: {violations[0].describe(labels)}")


def resolve_algebra(ref: str) -> Algebra:
    """Catalog name, or a path to an AlgebraFile; catalog names win.  The
    algebra is not validated here: _checked_pair checks it."""
    try:
        return catalog_algebra(ref)
    except (ValueError, RecursionError) as exc:  # also a name nested past the stack
        catalog_err = exc
    if os.path.exists(ref):
        return load_algebra_file(ref)
    raise CliInputError(
        f"{clipped(ref)} is neither a catalog name nor a readable file ({catalog_err})")


def load_map_file(path: str, module_dim: int, algebra_dim: int) -> LinearMap:
    """MapFile: {kind, algebra, module, matrix}; matrix is module_dim rows by
    algebra_dim columns of rational strings, column j = image of basis j.
    kind is checked but not returned: commands certify the map themselves."""
    data = _load_json(path)
    if _require(data, "kind", path) not in ("derivation", "linear_map"):
        raise CliInputError(f"{path}: kind must be 'derivation' or 'linear_map'")
    _require(data, "algebra", path)
    _require(data, "module", path)
    matrix = _require(data, "matrix", path)
    if not isinstance(matrix, list) or len(matrix) != module_dim:
        raise CliInputError(
            f"{path}: matrix must have {module_dim} rows for this pair")
    parsed: dict[str, Fraction | int] = {}   # each distinct entry string once
    nonzeros = []
    for p, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != algebra_dim:
            raise CliInputError(
                f"{path}: matrix rows must have {algebra_dim} entries")
        for k, c in enumerate(row):
            x = parsed.get(c) if isinstance(c, str) else None
            if x is None:                      # parse_rational raises on a non-string
                # a zero is cached as int 0, whose truth test is cheap
                x = parsed[c] = parse_rational(c) or 0
            if x:
                nonzeros.append((p, k, x))
    return LinearMap(Matrix.from_triples(module_dim, algebra_dim, nonzeros))


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------

def _checked_pair(args) -> tuple[Algebra, list[Violation], Bimodule | None, list[Violation]]:
    """The algebra and its violations, then, for a valid algebra only, the
    --module file (None: the regular bimodule, whose axioms are associativity
    at (i,j,p), (p,i,j), (i,p,j) and the unit laws) and its violations."""
    a = resolve_algebra(args.algebra)
    violations = validate_algebra(a)
    path = getattr(args, "module", None)
    m = load_bimodule_file(path, a) if path and not violations else None
    return a, violations, m, [] if m is None else validate_bimodule(a, m)


def _build_pair(args) -> tuple[Algebra, Bimodule, MatrixAlgebra | None,
                               MatrixBimodule | None]:
    """The pair of _checked_pair, refused unless valid: the algebra, --module
    or the regular bimodule, and with -n the extensions ma, mm.  Returns
    (a, m, ma, mm), (a, m) at the level the command computes on."""
    base, violations, base_mod, module_violations = _checked_pair(args)
    _require_valid(f"algebra {args.algebra}", violations, base.labels)
    _require_valid(f"module {getattr(args, 'module', None)}", module_violations)
    base_mod = regular_bimodule(base) if base_mod is None else base_mod
    if args.n is None:
        return base, base_mod, None, None
    if args.n < 2:
        raise CliInputError("-n must be at least 2")
    ma, mm = matrix_pair(base, base_mod, args.n)
    return ma.algebra, mm.bimodule, ma, mm


def _certified_map(lin: LinearMap, a: Algebra, m: Bimodule,
                   out: TextIO, bypass: bool = False) -> Derivation | None:
    """Certify a loaded map on the pair (a, m); on Leibniz failure print the
    failing pair and return None (exit 1 at the caller).  With bypass=True
    the map is wrapped on (a, m) unchecked (negative-control door)."""
    if bypass:
        return Derivation(lin, a, m)
    try:
        return certify(a, m, lin)
    except ValueError as exc:
        print(f"not a derivation: {exc}", file=out)
        return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, out: TextIO) -> int:
    a, violations, m, module_violations = _checked_pair(args)
    print(f"algebra: {args.algebra}", file=out)
    print(f"dim: {a.dim}", file=out)
    module = f"module {'regular' if m is None else args.module}"
    for what, found, labels in (("algebra", violations, a.labels),
                                (module, module_violations, None)):
        if found:
            print(f"{what} axioms: FAIL ({_count(found)})", file=out)
            print(found[0].describe(labels), file=out)
            return 1
        print(f"{what} axioms: ok", file=out)
    return 0


def cmd_derspace(args, out: TextIO) -> int:
    a, m, ma, _ = _build_pair(args)
    print(f"algebra: {args.algebra}", file=out)
    print(f"module: {args.module or 'regular'}", file=out)
    if ma is not None:
        print(f"matrix level: n={ma.n}", file=out)
    print(f"dim: {a.dim}", file=out)
    ds = derivation_space(a, m, None if ma is None else ma.generators)
    inn = inner_space(a, m)
    h1 = quotient_dim(inn.image, ds.subspace)
    print(f"Der={ds.dim} Inner={inn.image.dim} H1={h1}", file=out)
    if args.jordan:
        ds = jordan_derivation_space(a, m)
        print(f"Jordan={ds.dim}", file=out)
    title = "jordan basis" if args.jordan else "basis"
    for idx, d in enumerate(ds.basis, start=1):
        print(f"{title} {idx}:", file=out)
        print(fmt_matrix(d.matrix), file=out)
    return 0


def cmd_decompose(args, out: TextIO) -> int:
    a, m, ma, mm = _build_pair(args)
    lin = load_map_file(args.derivation, m.dim, a.dim)
    print(f"algebra: {args.algebra}", file=out)
    print(f"matrix level: n={ma.n}", file=out)
    dec = split_map(lin, ma, mm)                # a split certifies the map
    if dec is None:
        d = _certified_map(lin, a, m, out)      # names the failing pair
        if d is None:
            return 1
        dec = decompose(d, ma, mm)              # raises DecompositionError
    print(fmt_blocks(ma, dec.witness), file=out)
    print("delta:", file=out)
    print(fmt_matrix(dec.delta.matrix), file=out)
    print("recomposition exact: yes", file=out)
    return 0


def cmd_lemma22(args, out: TextIO) -> int:
    a, m, ma, mm = _build_pair(args)
    lin = load_map_file(args.derivation, m.dim, a.dim)
    print(f"algebra: {args.algebra}", file=out)
    print(f"matrix level: n={ma.n}", file=out)
    d = _certified_map(lin, a, m, out, bypass=args.bypass_certify)
    if d is None:
        return 1
    report = verify_lemma22(d, ma, mm)
    for res in report.results:
        if res.passed:
            print(f"({res.name}): pass", file=out)
        else:
            print(f"({res.name}): FAIL at {res.counterexample}", file=out)
    return 0 if report.passed else 1


def _parse_oracle_spec(spec: str) -> tuple[str | None, str]:
    """(perturbation kind or None, map path) of an oracle spec."""
    if not spec.startswith("perturb:"):
        return None, spec
    kind, sep, path = spec[len("perturb:"):].partition(":")
    if not sep or not path:
        raise CliInputError("oracle spec must be PATH or perturb:<kind>:<PATH>")
    if kind not in PERTURBATION_KINDS:
        raise CliInputError(f"unknown perturbation kind {clipped(kind)}; "
                            f"expected one of {PERTURBATION_KINDS}")
    return kind, path


def _seeded(dim: int, count: int, seed: int) -> Iterator[Vector]:
    """seeded_elements, drawn when agreement_failures reads the first one."""
    yield from seeded_elements(dim, count, seed)


def cmd_twolocal(args, out: TextIO) -> int:
    if args.samples < 0:
        raise CliInputError("--samples must be at least 0")
    a, m, ma, mm = _build_pair(args)
    kind, path = _parse_oracle_spec(args.oracle)
    lin = load_map_file(path, m.dim, a.dim)
    print(f"algebra: {args.algebra}", file=out)
    print(f"matrix level: n={ma.n}", file=out)
    print(f"oracle: {args.oracle}", file=out)
    print(f"samples: {args.samples} seed: {args.seed}", file=out)
    d = _certified_map(lin, a, m, out)
    if d is None:
        return 1
    oracle = wrap_derivation(d) if kind is None else perturbed_oracle(d, kind, ma, mm)
    space = derivation_space(a, m, ma.generators)
    try:
        cand = reconstruct(oracle, space, ma)
    except NotTwoLocalError:
        print(f"queries: {oracle.query_count}", file=out)
        print("verdict: not 2-local at (S, T)", file=out)
        return 1
    print(f"queries: {oracle.query_count}", file=out)
    print("reconstructed derivation:", file=out)
    print(fmt_matrix(cand.matrix), file=out)
    if args.samples == 0:
        print("verdict: reconstructed, unverified", file=out)
        return 0
    bad = agreement_failures(oracle, cand, _seeded(a.dim, args.samples, args.seed))
    print(f"agreeing samples: {args.samples - len(bad)}/{args.samples}", file=out)
    if bad:
        print(f"verdict: disagreement at sample {bad[0]}", file=out)
        return 1
    print("verdict: verified", file=out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matderiv",
        description="Exact computations with derivations on structure-constant "
                    "algebras and their matrix extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra(p):
        p.add_argument("algebra",
                       help="catalog name or path to an algebra JSON file; "
                            f"catalog: {', '.join(CATALOG_NAMES)}")

    p = sub.add_parser("validate", help="check algebra and module axioms")
    add_algebra(p)
    p.add_argument("--module", help="path to a bimodule JSON file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("derspace",
                       help="derivation space, inner space, and H1")
    add_algebra(p)
    p.add_argument("--module", help="path to a bimodule JSON file "
                                    "(default: the regular bimodule)")
    p.add_argument("-n", type=int, default=None,
                   help="compute on the n-by-n matrix extension")
    p.add_argument("--jordan", action="store_true",
                   help="also report the Jordan derivation space")
    p.set_defaults(fn=cmd_derspace)

    p = sub.add_parser("decompose",
                       help="split a matrix-level derivation into an inner "
                            "part and an entrywise lift")
    add_algebra(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--derivation", required=True,
                   help="path to a map JSON file on the matrix pair")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("lemma22",
                       help="check the five component identities of a "
                            "matrix-level derivation")
    add_algebra(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--derivation", required=True)
    p.add_argument("--bypass-certify", action="store_true",
                   help="skip the Leibniz check (negative controls)")
    p.set_defaults(fn=cmd_lemma22)

    p = sub.add_parser("twolocal",
                       help="two-query reconstruction of a 2-local "
                            "derivation oracle")
    add_algebra(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--oracle", required=True,
                   help="map JSON path, or perturb:<kind>:<path> with kind "
                            f"in {PERTURBATION_KINDS}")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_twolocal)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (CliInputError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CliInputError) else 1


if __name__ == "__main__":
    sys.exit(main())
