"""Command-line front end: file ingestion, report formats, exit codes, and
byte-for-byte determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matderiv
from matderiv import (Bimodule, basis_vec, catalog, certify, dercalc, derivation_space,
                      inner_derivation, leibniz_failures, lift, matext, matrix_pair,
                      multiply, validate_algebra, validate_bimodule, LinearMap, Matrix)
from matderiv.cli import (main, fmt_blocks, fmt_matrix, load_map_file,
                          parse_rational, CliInputError)
from conftest import (column_module, table_triples, write_algebra_file, write_map_file,
                      write_module_file)
from fractions import Fraction as F


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def inner_e11_file(tmp_path):
    f, fm = catalog("field")
    ma, mm = matrix_pair(f, fm, 2)
    d = inner_derivation(ma.algebra, mm.bimodule, basis_vec(4, 0))
    return write_map_file(tmp_path / "inner_e11.json", d.linmap)


@pytest.fixture()
def transpose_file(tmp_path):
    f, fm = catalog("field")
    ma, _ = matrix_pair(f, fm, 2)
    cols = [basis_vec(4, ma.flat(j, i, 0)) for i in range(2) for j in range(2)]
    return write_map_file(tmp_path / "transpose.json",
                          LinearMap(Matrix.from_rows(zip(*cols))), kind="linear_map")


@pytest.fixture()
def dual_lift_file(tmp_path):
    a, m = catalog("dual_numbers")
    ma, mm = matrix_pair(a, m, 2)
    base = derivation_space(a, m)
    return write_map_file(tmp_path / "dual_lift.json",
                          lift(base.basis[0], ma, mm).linmap,
                          algebra="dual_numbers")


# ---------------------------------------------------------------------------
# rational grammar
# ---------------------------------------------------------------------------

def test_parse_rational_grammar():
    assert parse_rational("3") == F(3)
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational("+4/6") == F(2, 3)
    assert parse_rational("−3/7") == F(-3, 7), "unicode minus accepted"
    for bad in ("0.5", "1/0", "1/-2", "", "a", "1 / 2", None, 3):
        with pytest.raises(CliInputError):
            parse_rational(bad)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_catalog_name(capsys):
    rc, out, _ = run_cli(capsys, "validate", "dual_numbers")
    assert rc == 0
    assert out == ("algebra: dual_numbers\n"
                   "dim: 2\n"
                   "algebra axioms: ok\n"
                   "module regular axioms: ok\n")


def test_validate_algebra_file(capsys, tmp_path):
    path = write_algebra_file(
        tmp_path / "dual.json", "dual", 2, ["1", "eps"], ["1", "0"],
        {(0, 0, 0): "1", (0, 1, 1): "1", (1, 0, 1): "1"})
    rc, out, _ = run_cli(capsys, "validate", path)
    assert rc == 0
    assert "algebra axioms: ok" in out


def test_validate_unit_law_tamper(capsys, tmp_path):
    # 1*eps = 2eps: rejected with the offending basis element named
    path = write_algebra_file(
        tmp_path / "bad.json", "bad", 2, ["1", "eps"], ["1", "0"],
        {(0, 0, 0): "1", (0, 1, 1): "2", (1, 0, 1): "1"})
    rc, out, _ = run_cli(capsys, "validate", path)
    assert rc == 1
    assert "algebra axioms: FAIL" in out
    assert "left unit law violated at (eps)" in out


def test_validate_truncated_file(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"name": "x", "dim":', encoding="utf-8")
    rc, out, err = run_cli(capsys, "validate", str(path))
    assert rc == 2
    assert "not valid JSON" in err


def test_validate_missing_file(capsys):
    rc, _, err = run_cli(capsys, "validate", "/no/such/file.json")
    assert rc == 2


def test_validate_module_file(capsys, tmp_path):
    a, m = catalog("dual_numbers")
    path = write_module_file(tmp_path / "mod.json", m)
    rc, out, _ = run_cli(capsys, "validate", "dual_numbers", "--module", path)
    assert rc == 0
    assert f"module {path} axioms: ok" in out


def test_validate_module_of_unit_action_violations_stays_small(capsys, tmp_path):
    # both actions zero on a module of dimension 1,500: 3,000 unit-action
    # violations are found and the first is printed with every coordinate,
    # but each is stored by its nonzeros, not as two 1,500-long vectors
    dim = 1500
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": dim, "left": [], "right": []}), encoding="utf-8")
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, "validate", "field", "--module", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    zeros = " ".join(["0"] * (dim - 1))
    assert (rc, err) == (1, "")
    assert out.splitlines()[-2:] == [
        f"module {path} axioms: FAIL (3000 violations)",
        f"left unit action violated at (0): lhs=[0 {zeros}] rhs=[1 {zeros}]"]
    assert peak < 4 * 2**20, f"{peak} bytes traced"


def test_validate_algebra_of_unit_law_violations_stays_small(capsys, tmp_path):
    # an algebra file of dimension 1,500 with no structure constants: every
    # e_j breaks both unit laws, and no cell of its table is stored, so no
    # 1,500 x 1,500 grid of empty cells is built
    dim = 1500
    path = write_algebra_file(tmp_path / "empty.json", "empty", dim,
                              [f"e{j}" for j in range(dim)], ["1"] + ["0"] * (dim - 1), {})
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, "validate", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    zeros = " ".join(["0"] * (dim - 1))
    assert (rc, err) == (1, "")
    assert out.splitlines()[-2:] == [
        "algebra axioms: FAIL (3000 violations)",
        f"left unit law violated at (e0): lhs=[0 {zeros}] rhs=[1 {zeros}]"]
    assert peak < 4 * 2**20, f"{peak} bytes traced"


def test_validate_rejects_bad_rational(capsys, tmp_path):
    path = write_algebra_file(
        tmp_path / "bad.json", "bad", 1, ["1"], ["1"], {(0, 0, 0): "1/0"})
    rc, _, err = run_cli(capsys, "validate", path)
    assert rc == 2
    assert "zero denominator" in err


# ---------------------------------------------------------------------------
# derspace
# ---------------------------------------------------------------------------

def test_derspace_dual_numbers(capsys):
    rc, out, _ = run_cli(capsys, "derspace", "dual_numbers")
    assert rc == 0
    assert out == ("algebra: dual_numbers\n"
                   "module: regular\n"
                   "dim: 2\n"
                   "Der=1 Inner=0 H1=1\n"
                   "basis 1:\n"
                   "[0 0]\n"
                   "[0 1]\n")


def test_derspace_full_matrix(capsys):
    rc, out, _ = run_cli(capsys, "derspace", "full_matrix_2")
    assert rc == 0
    assert "Der=3 Inner=3 H1=0" in out


def test_derspace_matrix_level(capsys):
    rc, out, _ = run_cli(capsys, "derspace", "field", "-n", "2")
    assert rc == 0
    assert "matrix level: n=2" in out
    assert "Der=3 Inner=3 H1=0" in out


def test_derspace_jordan(capsys):
    rc, out, _ = run_cli(capsys, "derspace", "dual_numbers", "--jordan")
    assert rc == 0
    assert "Jordan=1" in out
    assert "jordan basis 1:" in out


def test_derspace_rejects_regular_flag(capsys):
    # the regular bimodule is the default; the flag that named it is gone
    with pytest.raises(SystemExit) as exc:
        main(["derspace", "dual_numbers", "--regular"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_derspace_module_file_matches_regular(capsys, tmp_path):
    a, m = catalog("dual_numbers")
    path = write_module_file(tmp_path / "reg.json", m)
    rc1, out1, _ = run_cli(capsys, "derspace", "dual_numbers")
    rc2, out2, _ = run_cli(capsys, "derspace", "dual_numbers", "--module", path)
    assert rc1 == rc2 == 0
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("module:")]
    assert strip(out1) == strip(out2)


# (exit code, sha256 of the full stdout) of derspace on the catalog at n = 2
# and 3, a Jordan case, a module file case and validate of a tampered
# algebra file, recorded while every table still stored its empty cells
STDOUT_SHA256 = {
    ('derspace', 'field', '-n', '2'): (0, "890ab97cb868bfcd172fa5231f166b09d448718977a10cdbfedef4d59dca20dc"),
    ('derspace', 'field', '-n', '3'): (0, "47d3899626eaca4efda6c2aad0af9f3f9bbeb73afdd5435ea483221a2fe1966e"),
    ('derspace', 'dual_numbers', '-n', '2'): (0, "0477fbb01cd21e535b21400ecc5aa6de03b95fdc80aa2e5fa0e98532ce43c954"),
    ('derspace', 'dual_numbers', '-n', '3'): (0, "ff9b8a60d247c8f121e305e36823a433ff521b0bc93c8810bc341a7ab19a13f8"),
    ('derspace', 'group_algebra_C2', '-n', '2'): (0, "3d5b5517faa4d5480b28e7c2c046d44e1637d9dccf54cd1bb595131ff0dfa03f"),
    ('derspace', 'group_algebra_C2', '-n', '3'): (0, "bc1cfef1f4ec39cfaff8422a6be5dd924ec2da75fef87ee6d930b4823fe1cac2"),
    ('derspace', 'full_matrix_2', '-n', '2'): (0, "a7d8e4cfb64226fd63879b0b61f4511595aaeef315a5c99e7203f52965e6d98a"),
    ('derspace', 'full_matrix_2', '-n', '3'): (0, "2ed5253708bd35e0cb20689fafb8d05499a73c23a370e234f56fa1bbddd86e5b"),
    ('derspace', 'upper_triangular_2', '-n', '2'): (0, "3bc65bf92919dc2e61cf2dffb1dd7e6ee90ba6507ff768c14fbb9c01b2bf4e85"),
    ('derspace', 'upper_triangular_2', '-n', '3'): (0, "d6baec94ca104b59070f6e511fc62164baba02b3f6acb72fa327fa168bb59559"),
    ('derspace', 'direct_sum(field,field)', '-n', '2'): (0, "7291355d2cf4574a81ec0dbf3e2c0da6e8901c6c03ff532ef74664ec3af1fce2"),
    ('derspace', 'direct_sum(field,field)', '-n', '3'): (0, "b2c32dc805b44f4ba694c647a37f55d15020f56fb255d0557d18acc38ddedb99"),
    ('derspace', 'upper_triangular_2', '-n', '2', '--jordan'): (0, "edbdb51fd2d0d560009888c20cd343ff8335a59a620e1cf6964e9e050e951ae7"),
    ('derspace', 'upper_triangular_2', '-n', '2', '--module', 'column.json'): (0, "931b337e3544097fc209da693882e79cc7ca530071fd8cd557dd6d9571fcfeaf"),
    ('validate', 'tampered.json'): (1, "68006196f2e4257dff36957275b4edcbff5c44b155e15888d3ecf8a2cab01208"),
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv):
    # inputs are named relative to tmp_path, as the reports print the names
    monkeypatch.chdir(tmp_path)
    write_module_file(Path("column.json"), column_module()[1])
    a = matrix_pair(*catalog("dual_numbers"), 2)[0].algebra
    triples = {key: str(c) for key, c in table_triples(a.table).items()}
    key = min(triples)                          # one structure constant doubled
    triples[key] = str(2 * F(triples[key]))
    write_algebra_file(Path("tampered.json"), "tampered", a.dim, a.labels,
                       [str(u) for u in a.unit], triples)
    rc, out, err = run_cli(capsys, *argv)
    assert err == ""
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_SHA256[argv]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_inner_e11(capsys, inner_e11_file):
    rc, out, _ = run_cli(capsys, "decompose", "field", "-n", "2",
                         "--derivation", inner_e11_file)
    assert rc == 0
    assert out == ("algebra: field\n"
                   "matrix level: n=2\n"
                   "B[1][1] = 0\n"
                   "B[1][2] = 0\n"
                   "B[2][1] = 0\n"
                   "B[2][2] = -1\n"
                   "delta:\n"
                   "[0]\n"
                   "recomposition exact: yes\n")


def test_decompose_lift(capsys, dual_lift_file):
    rc, out, _ = run_cli(capsys, "decompose", "dual_numbers", "-n", "2",
                         "--derivation", dual_lift_file)
    assert rc == 0
    assert "B[1][1] = 0 0" in out
    assert "delta:\n[0 0]\n[0 1]\n" in out
    assert out.endswith("recomposition exact: yes\n")


def test_decompose_rejects_non_derivation(capsys, transpose_file):
    rc, out, _ = run_cli(capsys, "decompose", "field", "-n", "2",
                         "--derivation", transpose_file)
    assert rc == 1
    assert "not a derivation: map violates the Leibniz rule at basis pair (0,0)" in out


def test_decompose_shape_mismatch(capsys, tmp_path, inner_e11_file):
    rc, _, err = run_cli(capsys, "decompose", "dual_numbers", "-n", "2",
                         "--derivation", inner_e11_file)
    assert rc == 2
    assert "matrix must have 8 rows" in err


def _honest_decompose_input(tmp_path, name, n):
    """A seeded ad_W + lift(delta) of the regular pair of M_n(name), written
    as a map file, and the decompose report it must give: B_ij = W_ij -
    [i=j] W_00, and the printed delta is delta + ad_{W_00} on the base, with
    ad_w(x) = w x - x w."""
    rng = random.Random(f"decompose:{name}:{n}")
    a, m = catalog(name)
    ma, mm = matrix_pair(a, m, n)
    delta = LinearMap(Matrix.from_triples(m.dim, a.dim, ()))
    for b in derivation_space(a, m).basis:
        delta = delta + b.linmap.scale(F(rng.randint(-3, 3), rng.choice((1, 2))))
    w = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(mm.bimodule.dim))
    lin = inner_derivation(ma.algebra, mm.bimodule, w).linmap + \
        lift(certify(a, m, delta), ma, mm).linmap
    path = write_map_file(tmp_path / f"honest_{name}.json", lin, algebra=name)
    w00 = ma.entry(w, 0, 0)
    lines = [f"algebra: {name}", f"matrix level: n={n}"]
    for i in range(n):
        for j in range(n):
            blk = [x - y if i == j else x for x, y in zip(ma.entry(w, i, j), w00)]
            lines.append(f"B[{i + 1}][{j + 1}] = " + " ".join(map(str, blk)))
    cols = []
    for k in range(a.dim):
        e_k = basis_vec(a.dim, k)
        ad = [x - y for x, y in zip(multiply(a, w00, e_k), multiply(a, e_k, w00))]
        cols.append([x + delta.matrix.at(q, k) for q, x in enumerate(ad)])
    lines.append("delta:")
    lines += ["[" + " ".join(str(col[q]) for col in cols) + "]" for q in range(m.dim)]
    lines.append("recomposition exact: yes")
    return path, lin, ma, mm, "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ("dual_numbers", "full_matrix_2"))
def test_decompose_honest_map_report(capsys, tmp_path, name):
    path, _, _, _, expected = _honest_decompose_input(tmp_path, name, 3)
    assert run_cli(capsys, "decompose", name, "-n", "3", "--derivation", path) == \
        (0, expected, "")


@pytest.mark.parametrize("where", ("off_diagonal", "corner"))
def test_decompose_one_entry_change_names_the_leibniz_pair(capsys, tmp_path, where):
    # a one-entry change in the (0,1|0,1) or the (0,0|0,0) component: the
    # map does not split, and the report is certify's first failing pair
    name = "full_matrix_2"
    _, lin, ma, mm = _honest_decompose_input(tmp_path, name, 3)[:4]
    i, j = (0, 1) if where == "off_diagonal" else (0, 0)
    rows = [list(r) for r in lin.matrix.entries]
    rows[mm.flat(i, j, 2)][ma.flat(i, j, 1)] += F(-3, 2)
    bad = LinearMap(Matrix.from_rows(rows))
    assert matext.split_map(bad, ma, mm) is None
    pair = leibniz_failures(ma.algebra, mm.bimodule, bad)[0]
    path = write_map_file(tmp_path / "bad.json", bad, algebra=name)
    assert run_cli(capsys, "decompose", name, "-n", "3", "--derivation", path) == (
        1, f"algebra: {name}\nmatrix level: n=3\nnot a derivation: map violates the "
           f"Leibniz rule at basis pair ({pair[0]},{pair[1]})\n", "")


def test_decompose_runs_no_leibniz_pass_on_the_matrix_pair(capsys, tmp_path, monkeypatch):
    # the split certifies an honest map; only delta is certified, on the
    # base pair.  A map that does not split gets the matrix-level pass.
    seen = []
    real = dercalc.leibniz_failures

    def counting(a, m, f, stop_early=True):
        seen.append(a.dim)
        return real(a, m, f, stop_early)

    path, lin, ma, mm, expected = _honest_decompose_input(tmp_path, "full_matrix_2", 3)
    monkeypatch.setattr(dercalc, "leibniz_failures", counting)
    assert run_cli(capsys, "decompose", "full_matrix_2", "-n", "3", "--derivation", path)[:2] \
        == (0, expected)
    assert seen == [4]
    rows = [list(r) for r in lin.matrix.entries]
    rows[mm.flat(0, 1, 0)][ma.flat(0, 1, 3)] += 1
    path = write_map_file(tmp_path / "bad.json", LinearMap(Matrix.from_rows(rows)))
    assert run_cli(capsys, "decompose", "full_matrix_2", "-n", "3", "--derivation", path)[0] == 1
    assert ma.algebra.dim in seen


def test_decomposition_error_exits_1_without_traceback(capsys, tmp_path, monkeypatch):
    # a derivation whose split fails (forced here) is a failed check
    for module in (matext, matderiv.cli):
        monkeypatch.setattr(module, "split_map", lambda f, ma, mm: None)
    path = _honest_decompose_input(tmp_path, "dual_numbers", 2)[0]
    assert run_cli(capsys, "decompose", "dual_numbers", "-n", "2", "--derivation", path) == (
        1, "algebra: dual_numbers\nmatrix level: n=2\n",
        "error: recomposition failed: inner part plus lifted part != D\n")


# ---------------------------------------------------------------------------
# lemma22
# ---------------------------------------------------------------------------

def test_lemma22_derivation_passes(capsys, inner_e11_file):
    rc, out, _ = run_cli(capsys, "lemma22", "field", "-n", "2",
                         "--derivation", inner_e11_file)
    assert rc == 0
    assert out.endswith("(i): pass\n(ii): pass\n(iii): pass\n"
                        "(iv): pass\n(v): pass\n")


def test_lemma22_forged_bypass(capsys, transpose_file):
    rc, out, _ = run_cli(capsys, "lemma22", "field", "-n", "2",
                         "--derivation", transpose_file, "--bypass-certify")
    assert rc == 1
    assert "(i): FAIL at (0, 1, 1, 0)" in out
    assert "(ii): pass" in out
    assert "(iii): pass" in out
    assert "(iv): FAIL at (0, 0, 0)" in out
    assert "(v): FAIL at (0, 1, 0, 0)" in out


def test_lemma22_without_bypass_certifies(capsys, transpose_file):
    rc, out, _ = run_cli(capsys, "lemma22", "field", "-n", "2",
                         "--derivation", transpose_file)
    assert rc == 1
    assert "not a derivation" in out


# ---------------------------------------------------------------------------
# twolocal
# ---------------------------------------------------------------------------

def test_twolocal_wrapped_inner(capsys, inner_e11_file):
    rc, out, _ = run_cli(capsys, "twolocal", "field", "-n", "2",
                         "--oracle", inner_e11_file)
    assert rc == 0
    assert "queries: 2" in out
    assert "agreeing samples: 100/100" in out
    assert out.endswith("verdict: verified\n")


def test_twolocal_quadratic_perturbation(capsys, inner_e11_file):
    rc, out, _ = run_cli(capsys, "twolocal", "field", "-n", "2",
                         "--oracle", f"perturb:quadratic_block:{inner_e11_file}")
    assert rc == 1
    assert "agreeing samples: 1/100" in out
    assert "verdict: disagreement at sample 0" in out


def test_twolocal_unverified(capsys, inner_e11_file):
    rc, out, _ = run_cli(capsys, "twolocal", "field", "-n", "2",
                         "--oracle", inner_e11_file, "--samples", "0")
    assert rc == 0
    assert out.endswith("verdict: reconstructed, unverified\n")


def test_twolocal_bad_kind(capsys, inner_e11_file):
    rc, _, err = run_cli(capsys, "twolocal", "field", "-n", "2",
                         "--oracle", f"perturb:bogus:{inner_e11_file}")
    assert rc == 2
    assert "unknown perturbation kind" in err


def test_twolocal_rejects_negative_samples(capsys, inner_e11_file):
    rc, out, err = run_cli(capsys, "twolocal", "field", "-n", "2",
                           "--oracle", inner_e11_file, "--samples", "-5")
    assert rc == 2
    assert out == ""
    assert "--samples" in err


def test_twolocal_reports_are_byte_identical(capsys, inner_e11_file):
    args = ("twolocal", "field", "-n", "2", "--oracle", inner_e11_file,
            "--seed", "7", "--samples", "25")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_twolocal_lifted_oracle_matches_fraction_reference(capsys, tmp_path):
    # ad_w plus the lift of a non-inner derivation of the dual numbers: the
    # lift vanishes at S and T, so the reconstruction misses it and a sample
    # disagrees unless all four of its eps coordinates are zero
    a, m = catalog("dual_numbers")
    ma, mm = matrix_pair(a, m, 2)
    w = tuple(F(c) for c in (1, 0, -2, 1, 0, 3, 1, 0))
    delta = lift(derivation_space(a, m).basis[0], ma, mm)
    oracle = inner_derivation(ma.algebra, mm.bimodule, w).matrix + delta.matrix
    path = write_map_file(tmp_path / "lifted.json", LinearMap(oracle),
                          algebra="dual_numbers")
    rc, out, _ = run_cli(capsys, "twolocal", "dual_numbers", "-n", "2",
                         "--oracle", path, "--seed", "3", "--samples", "40")
    lines = out.splitlines()
    start = lines.index("reconstructed derivation:") + 1
    cand = [[F(c) for c in row.strip("[]").split()] for row in lines[start:start + 8]]

    def apply(rows, x):
        return [sum((c * v for c, v in zip(row, x)), F(0)) for row in rows]

    samples = matderiv.seeded_elements(8, 40, 3)
    want = [idx for idx, x in enumerate(samples)
            if apply(oracle.entries, x) != apply(cand, x)]
    assert want
    assert rc == 1
    assert lines[start - 2] == "queries: 2"
    assert lines[start + 8:] == [f"agreeing samples: {40 - len(want)}/40",
                                 f"verdict: disagreement at sample {want[0]}"]


# ---------------------------------------------------------------------------
# file inputs are validated before any command computes on them
# ---------------------------------------------------------------------------

def _unit_law_broken(tmp_path):
    # dim 1 with e*e = 0 although e is the unit
    return write_algebra_file(tmp_path / "z.json", "z", 1, ["e"], ["1"], {})


def _non_associative(tmp_path):
    # (xy)y = x but x(yy) = 0; both unit laws hold
    mult = {(0, 0, 0): "1", (0, 1, 1): "1", (1, 0, 1): "1", (0, 2, 2): "1",
            (2, 0, 2): "1", (1, 2, 1): "1"}
    return write_algebra_file(tmp_path / "nonassoc.json", "nonassoc", 3,
                              ["1", "x", "y"], ["1", "0", "0"], mult)


def _one_entry_map(tmp_path):
    # a 1 at row 1, column 0 of a map on the 4-dimensional M_2 level
    lin = LinearMap(Matrix.from_rows(zip(basis_vec(4, 1), *[(F(0),) * 4] * 3)))
    return write_map_file(tmp_path / "m.json", lin, algebra="z")


def test_invalid_algebra_file_is_input_error(capsys, tmp_path):
    z = _unit_law_broken(tmp_path)
    m = _one_entry_map(tmp_path)
    for argv in (("decompose", z, "-n", "2", "--derivation", m),
                 ("lemma22", z, "-n", "2", "--derivation", m),
                 ("twolocal", z, "-n", "2", "--oracle", m),
                 ("derspace", z)):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err == (f"error: algebra {z}: 2 violations of the axioms, "
                       "first: left unit law violated at (e): lhs=[0] rhs=[1]\n")


def test_derspace_rejects_non_associative_file(capsys, tmp_path):
    path = _non_associative(tmp_path)
    for argv in (("derspace", path), ("derspace", path, "-n", "2")):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "associativity violated at (x,y,y)" in err


def test_derspace_rejects_invalid_module_file(capsys, tmp_path):
    # one module coordinate on which the unit acts as zero
    path = tmp_path / "zero_mod.json"
    path.write_text(json.dumps({"dim": 1, "left": [], "right": []}),
                    encoding="utf-8")
    rc, out, err = run_cli(capsys, "derspace", "dual_numbers", "--module",
                           str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: module {path}: ")
    assert "unit action violated" in err


def test_validate_checks_a_file_once(capsys, tmp_path, monkeypatch):
    # validate reports violations itself (exit 1) and runs the check once
    import matderiv.cli as cli
    calls = []

    def counted(a):
        calls.append(a)
        return validate_algebra(a)
    monkeypatch.setattr(cli, "validate_algebra", counted)
    rc, out, _ = run_cli(capsys, "validate", _non_associative(tmp_path))
    assert rc == 1
    assert "algebra axioms: FAIL" in out
    assert len(calls) == 1


def test_regular_bimodule_is_not_checked_again(capsys, tmp_path, monkeypatch):
    # its axioms are the algebra's own, so only a module file is checked
    import matderiv.cli as cli
    calls = []

    def counted(a, m):
        calls.append(m)
        return validate_bimodule(a, m)
    monkeypatch.setattr(cli, "validate_bimodule", counted)
    for argv in (("validate", "full_matrix_2"), ("derspace", "full_matrix_2")):
        assert run_cli(capsys, *argv)[0] == 0 and calls == [], argv
    path = write_module_file(tmp_path / "field.json", catalog("field")[1])
    rc, out, _ = run_cli(capsys, "validate", "field", "--module", path)
    assert rc == 0 and f"module {path} axioms: ok" in out
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_catalog_name_takes_precedence_and_errors_inform(capsys):
    rc, _, err = run_cli(capsys, "validate", "direct_sum(field)")
    assert rc == 2
    assert "direct_sum takes two arguments" in err


@pytest.mark.parametrize("name", (
    "direct_sum(" * 1000 + "field" + ",field)" * 1000,     # past the stack
    "no_such_algebra_" * 1000,
))
def test_long_or_deeply_nested_catalog_name_is_input_error(capsys, name):
    rc, out, err = run_cli(capsys, "validate", name)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err and len(err) < 400


def test_console_entry_point():
    # the child imports the package under test, with or without PYTHONPATH
    src = str(Path(matderiv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "matderiv.cli", "derspace", "dual_numbers"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "Der=1 Inner=0 H1=1" in proc.stdout


# JSON true/false are Python ints; they are not dimensions or indices
_BOOL_ALGEBRAS = (
    ({"dim": True}, "dim must be a positive integer"),
    ({"mult": [{"i": False, "j": 0, "k": 0, "c": "1"}]},
     "mult index False out of range"),
    ({"mult": [{"i": 0, "j": 0, "k": True, "c": "1"}]},
     "mult index True out of range"),
)


@pytest.mark.parametrize("tamper,message", _BOOL_ALGEBRAS,
                         ids=("dim", "i", "k"))
def test_algebra_file_rejects_booleans(capsys, tmp_path, tamper, message):
    data = {"name": "b", "dim": 1, "basis_labels": ["e"], "unit": ["1"],
            "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}], **tamper}
    path = tmp_path / "bool_alg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (("validate", str(path)), ("derspace", str(path))):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err == f"error: {path}: {message}\n"


_BOOL_MODULES = (
    ({"dim": True}, "dim must be a positive integer"),
    ({"left": [{"i": False, "p": 0, "q": 0, "c": "1"}]},
     "left index False out of range"),
    ({"right": [{"p": 0, "i": 0, "q": False, "c": "1"}]},
     "right index False out of range"),
)


@pytest.mark.parametrize("tamper,message", _BOOL_MODULES,
                         ids=("dim", "left", "right"))
def test_module_file_rejects_booleans(capsys, tmp_path, tamper, message):
    data = {"dim": 1, "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
            "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}], **tamper}
    path = tmp_path / "bool_mod.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for cmd in ("validate", "derspace"):
        rc, out, err = run_cli(capsys, cmd, "field", "--module", str(path))
        assert rc == 2, cmd
        assert err == f"error: {path}: {message}\n"


# ---------------------------------------------------------------------------
# an input error (exit 2) prints nothing on stdout
# ---------------------------------------------------------------------------

def _zero_denominator_map(tmp_path):
    # an 8 x 8 map on M_2(dual_numbers) with one entry "1/0"
    matrix = [["0"] * 8 for _ in range(8)]
    matrix[0][0] = "1/0"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "derivation", "algebra": "dual_numbers",
                                "module": "regular", "matrix": matrix}),
                    encoding="utf-8")
    return str(path)


_LATE_INPUT_ERRORS = {
    "decompose": (("decompose", "dual_numbers", "-n", "2", "--derivation", "{m}"),
                  "zero denominator"),
    "lemma22": (("lemma22", "dual_numbers", "-n", "2", "--derivation", "{m}"),
                "zero denominator"),
    "lemma22-bypass": (("lemma22", "dual_numbers", "-n", "2", "--derivation",
                        "{m}", "--bypass-certify"), "zero denominator"),
    "twolocal": (("twolocal", "dual_numbers", "-n", "2", "--oracle", "{m}"),
                 "zero denominator"),
    "twolocal-perturb": (("twolocal", "dual_numbers", "-n", "2", "--oracle",
                          "perturb:quadratic_block:{m}"), "zero denominator"),
    "twolocal-missing": (("twolocal", "field", "-n", "2", "--oracle", "bogus"),
                         "cannot read bogus"),
    "twolocal-kind": (("twolocal", "field", "-n", "2", "--oracle",
                       "perturb:bogus:{inner}"), "unknown perturbation kind"),
    "twolocal-spec": (("twolocal", "field", "-n", "2", "--oracle",
                       "perturb:quadratic_block"), "oracle spec must be"),
    "validate-module": (("validate", "dual_numbers", "--module", "{mod}"),
                        "zero denominator"),
}


@pytest.mark.parametrize("case", sorted(_LATE_INPUT_ERRORS))
def test_input_error_leaves_stdout_empty(capsys, tmp_path, inner_e11_file, case):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"dim": 1, "left": [{"i": 0, "p": 0, "q": 0, "c": "1/0"}],
                               "right": []}), encoding="utf-8")
    files = {"m": _zero_denominator_map(tmp_path), "inner": inner_e11_file,
             "mod": str(mod)}
    argv, message = _LATE_INPUT_ERRORS[case]
    rc, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_validate_reads_module_only_for_valid_algebra(capsys, tmp_path):
    # an algebra that fails its axioms is reported (exit 1) before the
    # module file is read, as before
    rc, out, _ = run_cli(capsys, "validate", _non_associative(tmp_path),
                         "--module", str(tmp_path / "missing.json"))
    assert rc == 1
    assert "algebra axioms: FAIL" in out


# ---------------------------------------------------------------------------
# map files parse each distinct entry string once
# ---------------------------------------------------------------------------

def _map_file(tmp_path, matrix):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"kind": "linear_map", "algebra": "field",
                                "module": "regular", "matrix": matrix}),
                    encoding="utf-8")
    return str(path)


def _first_error(text):
    with pytest.raises(CliInputError) as err:
        parse_rational(text)
    return str(err.value)


@pytest.mark.parametrize("bad", ("1/0", "0.5", "x", "", 0, 1, 2.5, True, False, None, [], {}),
                         ids=repr)
def test_map_file_reports_the_first_bad_entry(tmp_path, bad):
    # 30 x 30 entries: repeats of three strings, each also equal in value to
    # the bad entry where it is a JSON number or boolean, then the bad entry
    # and a later bad string that must not be the one reported
    good = ["0", "1", "-1/2"]
    matrix = [[good[(r + c) % 3] for c in range(30)] for r in range(30)]
    matrix[20][7] = bad
    matrix[25][3] = "1/0" if bad != "1/0" else "y"
    with pytest.raises(CliInputError) as err:
        load_map_file(_map_file(tmp_path, matrix), 30, 30)
    assert str(err.value) == _first_error(bad)


def test_map_file_entries_equal_their_parse(tmp_path):
    texts = ["0", "3", "-1/2", "+4/6", "−3/7", "0", "3", "4/6"]
    matrix = [[texts[(r * 5 + c) % len(texts)] for c in range(9)] for r in range(8)]
    lin = load_map_file(_map_file(tmp_path, matrix), 8, 9)
    assert lin.matrix.entries == tuple(tuple(parse_rational(c) for c in row)
                                       for row in matrix)
    assert all(type(x) is F for row in lin.matrix.entries for x in row)


# ---------------------------------------------------------------------------
# undecodable files and oversize numbers are input errors (exit 2)
# ---------------------------------------------------------------------------

_BIG = "1" * 5000               # past Python's 4300-digit int conversion limit

# one valid file of each kind, as JSON text; "@" marks the spot a defect fills
_FILES = {
    "algebra": '{"name": "f", "dim": @, "basis_labels": ["e"], "unit": ["1"], '
               '"mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}',
    "module": '{"dim": @, "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}], '
              '"right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]}',
    "map": '{"kind": "derivation", "algebra": "field", "module": "regular", '
           '"matrix": [[@, "0", "0", "0"], ["0", "0", "0", "0"], '
           '["0", "0", "0", "0"], ["0", "0", "0", "0"]]}',
}
_VALID_FILL = {"algebra": "1", "module": "1", "map": '"0"'}
_READERS = {
    "algebra": (("validate", "{f}"), ("derspace", "{f}", "-n", "2")),
    "module": (("validate", "field", "--module", "{f}"),
               ("derspace", "field", "--module", "{f}")),
    "map": (("decompose", "field", "-n", "2", "--derivation", "{f}"),
            ("lemma22", "field", "-n", "2", "--derivation", "{f}"),
            ("twolocal", "field", "-n", "2", "--oracle", "{f}")),
}


def _defective(kind, defect):
    text = _FILES[kind]
    if defect == "deep-nesting":
        return ("[" * 100_000 + "]" * 100_000).encode()
    if defect == "json-integer":
        return text.replace("@", _BIG).encode()
    if defect == "rational":
        if kind == "map":
            return text.replace("@", f'"{_BIG}"').encode()
        text = text.replace('"c": "1"', f'"c": "{_BIG}"', 1)
    text = text.replace("@", _VALID_FILL[kind])
    return text.encode() if defect == "rational" else b"\xff\xfe" + text.encode()


@pytest.mark.parametrize("defect", ("not-utf8", "json-integer", "rational",
                                    "deep-nesting"))
@pytest.mark.parametrize("kind", sorted(_FILES))
def test_undecodable_or_oversize_file_is_input_error(capsys, tmp_path, kind, defect):
    path = tmp_path / "bad.json"
    path.write_bytes(_defective(kind, defect))
    for argv in _READERS[kind]:
        rc, out, err = run_cli(capsys, *(a.format(f=path) for a in argv))
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: "), argv
        assert "Traceback" not in err and len(err) < 400, argv


def test_oversize_rational_message_is_truncated():
    message = _first_error("-" + _BIG + "/7")
    assert message == ("rational has too many digits: '-1111111111111111111'... "
                       "(5003 characters)")


# a long value where an error message echoes it: a map file entry (its JSON
# text), a mult index of an algebra file, or a perturbation kind
_LONG_INPUTS = {
    "map-not-a-rational": ("map", json.dumps("x" * 100_000)),
    "map-zero-denominator": ("map", json.dumps("1" * 4000 + "/0")),
    "map-not-a-string": ("map", json.dumps([0] * 50_000)),
    "mult-index": ("algebra", None),
    "perturbation-kind": ("kind", None),
}


@pytest.mark.parametrize("case", sorted(_LONG_INPUTS))
def test_error_messages_clip_long_inputs(capsys, tmp_path, inner_e11_file, case):
    kind, entry = _LONG_INPUTS[case]
    path = tmp_path / "long.json"
    if kind == "map":
        path.write_text(_FILES["map"].replace("@", entry), encoding="utf-8")
        argv = ("decompose", "field", "-n", "2", "--derivation", str(path))
    elif kind == "algebra":
        path.write_text(_FILES["algebra"].replace("@", "1").replace(
            '"i": 0', '"i": ' + "9" * 4000), encoding="utf-8")
        argv = ("validate", str(path))
    else:
        argv = ("twolocal", "field", "-n", "2", "--oracle",
                f"perturb:{'k' * 50_000}:{inner_e11_file}")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err and len(err) < 400


def test_results_past_the_digit_limit_are_printed(capsys, tmp_path):
    # xy = c x with c = 10^3000, so the axiom check computes (xy)y = c^2 x:
    # inputs within the limit, a result of 6001 digits
    mult = {(0, 0, 0): "1", (0, 1, 1): "1", (1, 0, 1): "1", (0, 2, 2): "1",
            (2, 0, 2): "1", (1, 2, 1): "1" + "0" * 3000}
    path = write_algebra_file(tmp_path / "big.json", "big", 3, ["1", "x", "y"],
                              ["1", "0", "0"], mult)
    square = "1" + "0" * 6000
    limit = sys.get_int_max_str_digits()
    rc, out, _ = run_cli(capsys, "validate", path)
    assert rc == 1
    assert f"associativity violated at (x,y,y): lhs=[0 {square} 0]" in out
    rc, out, err = run_cli(capsys, "derspace", path)
    assert (rc, out) == (2, "")
    assert f"lhs=[0 {square} 0]" in err
    assert sys.get_int_max_str_digits() == limit


def test_matrix_reports_print_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = F(10 ** 5000, 3)
    assert fmt_matrix(Matrix(1, 2, ((big, F(0)),))) == (
        "[1" + "0" * 5000 + "/3 0]")
    f, fm = catalog("field")
    ma, _ = matrix_pair(f, fm, 2)
    assert fmt_blocks(ma, (F(0), big, F(1), F(-1, 2))).splitlines()[1] == (
        "B[1][2] = 1" + "0" * 5000 + "/3")
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# every command resolves its pair through one path
# ---------------------------------------------------------------------------

def _pair_commands(algebra, n, missing_map):
    return (("derspace", algebra, "-n", n),
            ("decompose", algebra, "-n", n, "--derivation", missing_map),
            ("lemma22", algebra, "-n", n, "--derivation", missing_map),
            ("twolocal", algebra, "-n", n, "--oracle", missing_map))


@pytest.mark.parametrize("bad", ("n=1", "non-associative"))
def test_pair_errors_are_the_same_for_every_command(capsys, tmp_path, bad):
    # the pair is checked before the (missing) map file is read
    missing = str(tmp_path / "missing.json")
    if bad == "n=1":
        argvs = _pair_commands("field", "1", missing)
    else:
        argvs = _pair_commands(_non_associative(tmp_path), "2", missing)
    errors = set()
    for argv in argvs:
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        errors.add(err)
    assert len(errors) == 1
    expected = ("error: -n must be at least 2\n" if bad == "n=1"
                else "associativity violated at (x,y,y)")
    assert expected in errors.pop()


def test_every_command_validates_its_base_once(capsys, tmp_path, monkeypatch):
    # a catalog base is validated as a file is, once per command, and the
    # pair commands validate it before the (missing) map file is read
    import matderiv.cli as cli
    calls = []

    def counted(a):
        calls.append(a)
        return validate_algebra(a)
    monkeypatch.setattr(cli, "validate_algebra", counted)
    missing = str(tmp_path / "missing.json")
    for argv in (("validate", "dual_numbers"), ("derspace", "dual_numbers"),
                 *_pair_commands("dual_numbers", "2", missing)):
        calls.clear()
        run_cli(capsys, *argv)
        assert [a.labels for a in calls] == [("1", "eps")], argv


def test_format_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "text", "derspace", "field"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# fmt_matrix prints from sparse rows what the dense printer printed
# ---------------------------------------------------------------------------

def _dense_fmt_matrix(m):
    """The row-by-row printer fmt_matrix replaced."""
    return "\n".join("[" + " ".join(str(c) if c else "0" for c in m.entries[r]) + "]"
                     for r in range(m.rows))


_HUGE = 10 ** 4400              # past Python's 4300-digit int conversion limit


@st.composite
def _sparse_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    value = st.one_of(st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 7)),
                      st.sampled_from((F(_HUGE + 1), F(-_HUGE, 3))))
    entries = [[F(0)] * cols for _ in range(rows)]
    for _ in range(draw(st.integers(0, rows * cols))):
        entries[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(value)
    return Matrix(rows, cols, tuple(map(tuple, entries)))


def _check_fmt_matrix(m):
    huge = any(abs(x.numerator) > _HUGE for row in m.entries for x in row)
    limit = sys.get_int_max_str_digits()
    if huge:                    # the undecorated printer meets the limit
        with pytest.raises(ValueError):
            fmt_matrix.__wrapped__(m)
    sys.set_int_max_str_digits(0)
    try:
        want = _dense_fmt_matrix(m)
    finally:
        sys.set_int_max_str_digits(limit)
    assert fmt_matrix(m) == want
    assert sys.get_int_max_str_digits() == limit
    built = Matrix.from_triples(m.rows, m.cols, ((i, c, x) for i, row in enumerate(m.nonzeros)
                                                  for c, x in row))
    assert built == m and fmt_matrix(built) == want


@settings(max_examples=150)
@given(_sparse_matrices())
def test_fmt_matrix_matches_dense_printer(m):
    _check_fmt_matrix(m)


def test_fmt_matrix_prints_past_the_digit_limit():
    # a single column with a zero row on each side of a negative huge value
    _check_fmt_matrix(Matrix(3, 1, ((F(0),), (F(-_HUGE - 1, 3),), (F(0),))))


# each check of a coefficient list, as a change to a valid list of one entry,
# and its message; {f} is the field and {k} its index fields
_COEFFICIENT_DEFECTS = {
    "not-a-list": (lambda keys, ents: {"0": ents[0]}, "{f} must be a list"),
    "not-an-object": (lambda keys, ents: ["c"], "{f} entries need fields {k}, c"),
    "no-index": (lambda keys, ents: [{keys[1]: 0, "c": "1"}], "{f} entries need fields {k}, c"),
    "no-c": (lambda keys, ents: [{k: 0 for k in keys}], "{f} entries need fields {k}, c"),
    "out-of-range": (lambda keys, ents: [dict(ents[0], **{keys[-1]: 1})],
                     "{f} index 1 out of range"),
    "duplicate": (lambda keys, ents: ents + ents, "duplicate {f} entry at (0, 0, 0)"),
}


@pytest.mark.parametrize("defect", sorted(_COEFFICIENT_DEFECTS))
@pytest.mark.parametrize("field", ("mult", "left", "right"))
def test_coefficient_lists_are_read_by_one_reader(capsys, tmp_path, field, defect):
    # a module entry without c gives the same message as an algebra entry
    keys = {"mult": ("i", "j", "k"), "left": ("i", "p", "q"), "right": ("p", "i", "q")}[field]
    kind = "algebra" if field == "mult" else "module"
    data = json.loads(_FILES[kind].replace("@", "1"))
    change, message = _COEFFICIENT_DEFECTS[defect]
    data[field] = change(keys, data[field])
    path = tmp_path / "coefficients.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = _READERS[kind][0][:-1] + (str(path),)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: {message.format(f=field, k=', '.join(keys))}\n"


def test_build_pair_builds_module_tables_only_for_a_module_file(capsys, tmp_path, monkeypatch,
                                                                inner_e11_file):
    # without --module the pair is the regular one, on the algebra's table
    calls = []
    real = matext.matrix_bimodule
    monkeypatch.setattr(matext, "matrix_bimodule", lambda m, n: calls.append(m) or real(m, n))
    assert run_cli(capsys, "derspace", "field", "-n", "2")[0] == 0
    assert run_cli(capsys, "decompose", "field", "-n", "2", "--derivation", inner_e11_file)[0] == 0
    assert calls == []
    plane = Bimodule.from_sparse(2, 1, {(0, 0, 0): F(1), (0, 1, 1): F(1)},
                                 {(0, 0, 0): F(1), (1, 0, 1): F(1)})
    path = write_module_file(tmp_path / "plane.json", plane)
    rc, out, _ = run_cli(capsys, "derspace", "field", "--module", path, "-n", "2")
    assert rc == 0 and "Der=6 Inner=6 H1=0" in out
    assert calls == [plane]
