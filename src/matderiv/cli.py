"""Command-line front end.

Commands: validate, derspace, decompose, lemma22, twolocal.  Inputs are
UTF-8 JSON files with every rational written as a string ("3", "-1/2"); an
algebra argument may also be a catalog name (field, dual_numbers,
group_algebra_C2, full_matrix_2, upper_triangular_2, direct_sum(x,y)).

Every command that computes on a pair builds it in _build_pair.

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
from typing import Any, Sequence, TextIO

from .algcore import (Algebra, Bimodule, CATALOG_NAMES, catalog_algebra,
                      past_digit_limit, regular_bimodule, validate_algebra,
                      validate_bimodule)
from .dercalc import (Derivation, LinearMap, certify, derivation_space,
                      inner_space, jordan_derivation_space)
from .exactlin import Matrix, Vector
from .matext import (MatrixAlgebra, MatrixBimodule, decompose, matrix_algebra,
                     matrix_bimodule, verify_lemma22)
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
        raise CliInputError(f"rational must be a string, got {text!r}")
    s = text.replace("−", "-")
    if not _RATIONAL_RE.match(s):
        raise CliInputError(f"not a rational: {text!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise CliInputError(f"zero denominator: {text!r}") from None
    except ValueError as exc:                # past Python's int digit limit
        raise CliInputError(f"rational has too many digits: {text[:20]!r}... "
                            f"({len(text)} characters)") from exc


def fmt_vector(v: Sequence[Fraction]) -> str:
    """Entries separated by spaces in brackets; a zero entry is "0", which
    is what str prints for it."""
    return "[" + " ".join(str(c) if c else "0" for c in v) + "]"


@past_digit_limit
def fmt_matrix(m: Matrix) -> str:
    return "\n".join(fmt_vector(m.row(r)) for r in range(m.rows))


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
    if not isinstance(mult, list):
        raise CliInputError(f"{path}: mult must be a list")
    triples: dict[tuple[int, int, int], Fraction] = {}
    for ent in mult:
        if not isinstance(ent, dict) or not {"i", "j", "k", "c"} <= set(ent):
            raise CliInputError(f"{path}: mult entries need fields i, j, k, c")
        i, j, k = ent["i"], ent["j"], ent["k"]
        for idx in (i, j, k):
            if not _is_int(idx) or not 0 <= idx < dim:
                raise CliInputError(f"{path}: mult index {idx!r} out of range")
        key = (i, j, k)
        if key in triples:
            raise CliInputError(f"{path}: duplicate mult entry at {key}")
        triples[key] = parse_rational(ent["c"])
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
    triples: dict[str, dict[tuple[int, int, int], Fraction]] = {}
    for field, ranges in (("left", (a.dim, dim, dim)), ("right", (dim, a.dim, dim))):
        entries = _require(data, field, path)
        if not isinstance(entries, list):
            raise CliInputError(f"{path}: {field} must be a list")
        keys = ("i", "p", "q") if field == "left" else ("p", "i", "q")
        found = triples[field] = {}
        for ent in entries:
            if not isinstance(ent, dict) or not set(keys) <= set(ent):
                raise CliInputError(
                    f"{path}: {field} entries need fields {', '.join(keys)}, c")
            idx = tuple(ent[k] for k in keys)
            for val, bound in zip(idx, ranges):
                if not _is_int(val) or not 0 <= val < bound:
                    raise CliInputError(
                        f"{path}: {field} index {val!r} out of range")
            if idx in found:
                raise CliInputError(f"{path}: duplicate {field} entry at {idx}")
            found[idx] = parse_rational(_require(ent, "c", path))
    return Bimodule.from_sparse(dim, a.dim, triples["left"], triples["right"])


def _require_valid(what: str, violations, labels=None) -> None:
    if violations:
        raise CliInputError(f"{what}: {_count(violations)} of the axioms, "
                            f"first: {violations[0].describe(labels)}")


def resolve_algebra(ref: str, check: bool = True) -> Algebra:
    """Catalog name, or a path to an AlgebraFile; catalog names win.  An
    algebra read from a file must satisfy the algebra axioms (input error
    otherwise) unless check=False; catalog algebras are trusted."""
    try:
        return catalog_algebra(ref)
    except ValueError as exc:
        catalog_err = exc
    if os.path.exists(ref):
        a = load_algebra_file(ref)
        if check:
            _require_valid(f"algebra {ref}", validate_algebra(a), a.labels)
        return a
    raise CliInputError(
        f"{ref!r} is neither a catalog name nor a readable file ({catalog_err})")


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
    parsed: dict[str, Fraction] = {}         # each distinct entry string once
    rows = []
    for row in matrix:
        if not isinstance(row, list) or len(row) != algebra_dim:
            raise CliInputError(
                f"{path}: matrix rows must have {algebra_dim} entries")
        entries = []
        for c in row:
            x = parsed.get(c) if isinstance(c, str) else None
            if x is None:
                x = parsed[c] = parse_rational(c)  # raises on a non-string
            entries.append(x)
        rows.append(tuple(entries))
    return LinearMap(Matrix(module_dim, algebra_dim, tuple(rows)))


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------

def _build_pair(args) -> tuple[Algebra, Bimodule, MatrixAlgebra | None,
                               MatrixBimodule | None]:
    """The one path from arguments to a validated pair: the algebra, --module
    or the regular bimodule, and with -n the extensions ma, mm.  Returns
    (a, m, ma, mm), (a, m) at the level the command computes on."""
    base = resolve_algebra(args.algebra)
    module_path = getattr(args, "module", None)
    if module_path:
        base_mod = load_bimodule_file(module_path, base)
        _require_valid(f"module {module_path}", validate_bimodule(base, base_mod))
    else:
        base_mod = regular_bimodule(base)
    if args.n is None:
        return base, base_mod, None, None
    if args.n < 2:
        raise CliInputError("-n must be at least 2")
    ma = matrix_algebra(base, args.n)
    mm = matrix_bimodule(base_mod, args.n)
    return ma.algebra, mm.bimodule, ma, mm


def _certified_map(lin: LinearMap, a: Algebra, m: Bimodule,
                   out: TextIO, bypass: bool = False) -> Derivation | None:
    """Certify a loaded map on the pair (a, m); on Leibniz failure print the
    failing pair and return None (exit 1 at the caller).  With bypass=True
    the map is wrapped unchecked (negative-control door)."""
    if bypass:
        return Derivation(lin, certified=True)
    try:
        return certify(a, m, lin)
    except ValueError as exc:
        print(f"not a derivation: {exc}", file=out)
        return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, out: TextIO) -> int:
    a = resolve_algebra(args.algebra, check=False)
    violations = validate_algebra(a)
    label = getattr(args, "module", None)
    # a module file is read before any output, and only for a valid algebra
    m = load_bimodule_file(label, a) if label and not violations else None
    print(f"algebra: {args.algebra}", file=out)
    print(f"dim: {a.dim}", file=out)
    if violations:
        print(f"algebra axioms: FAIL ({_count(violations)})", file=out)
        print(violations[0].describe(a.labels), file=out)
        return 1
    print("algebra axioms: ok", file=out)
    if m is None:
        m, label = regular_bimodule(a), "regular"
    mv = validate_bimodule(a, m)
    if mv:
        print(f"module {label} axioms: FAIL ({_count(mv)})", file=out)
        print(mv[0].describe(), file=out)
        return 1
    print(f"module {label} axioms: ok", file=out)
    return 0


def cmd_derspace(args, out: TextIO) -> int:
    a, m, ma, _ = _build_pair(args)
    print(f"algebra: {args.algebra}", file=out)
    print(f"module: {args.module or 'regular'}", file=out)
    if ma is not None:
        print(f"matrix level: n={ma.n}", file=out)
    print(f"dim: {a.dim}", file=out)
    ds = derivation_space(a, m)
    inn = inner_space(a, m)
    h1 = ds.dim - inn.image.dim
    print(f"Der={ds.dim} Inner={inn.image.dim} H1={h1}", file=out)
    if args.jordan:
        js = jordan_derivation_space(a, m)
        print(f"Jordan={js.dim}", file=out)
        basis = [lm.matrix for lm in js.basis]
        title = "jordan basis"
    else:
        basis = [d.matrix for d in ds.basis]
        title = "basis"
    for idx, mat in enumerate(basis, start=1):
        print(f"{title} {idx}:", file=out)
        print(fmt_matrix(mat), file=out)
    return 0


def cmd_decompose(args, out: TextIO) -> int:
    a, m, ma, mm = _build_pair(args)
    lin = load_map_file(args.derivation, m.dim, a.dim)
    print(f"algebra: {args.algebra}", file=out)
    print(f"matrix level: n={ma.n}", file=out)
    d = _certified_map(lin, a, m, out)
    if d is None:
        return 1
    dec = decompose(d, ma, mm)
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
        raise CliInputError(f"unknown perturbation kind {kind!r}; "
                            f"expected one of {PERTURBATION_KINDS}")
    return kind, path


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
    space = derivation_space(a, m)
    try:
        cand = reconstruct(oracle, space, ma)
    except NotTwoLocalError:
        print("queries: 2", file=out)
        print("verdict: not 2-local at (S, T)", file=out)
        return 1
    print("queries: 2", file=out)
    print("reconstructed derivation:", file=out)
    print(fmt_matrix(cand.matrix), file=out)
    if args.samples == 0:
        print("verdict: reconstructed, unverified", file=out)
        return 0
    samples = seeded_elements(a.dim, args.samples, args.seed)
    bad = agreement_failures(oracle, cand, samples)
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
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
