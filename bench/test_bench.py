"""Tests of the benchmark itself (not part of the library's test suite):

    PYTHONPATH=src python3 -m pytest bench -q

The quick mode runs each workload's smallest command through the CLI and
checks it; the tamper tests show that each checker can fail.  The remaining
tests compare the benchmark's own expectation arithmetic with the library on
small matrix sizes.
"""

import dataclasses
import random
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from matderiv import (LinearMap, Matrix, agreement_failures, catalog,  # noqa: E402
                      certify, decompose, derivation_space, inner_derivation,
                      leibniz_failures, lift, matrix_pair, perturbed_oracle,
                      reconstruct, seeded_elements, validate_algebra,
                      verify_lemma22, wrap_derivation)
from matderiv.cli import load_algebra_file  # noqa: E402

BASES = ("dual_numbers", "upper_triangular_2", "full_matrix_2")


def _lin(rows):
    return LinearMap(Matrix(len(rows), len(rows[0]), tuple(tuple(r) for r in rows)))


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def quick(request, tmp_path_factory):
    """The smallest command of a workload, run through the CLI."""
    workdir = tmp_path_factory.mktemp(request.param)
    cmd = workloads.build(request.param, 7, workdir)[0]
    rc, out, _, _ = run.run_cli(cmd.argv, workdir)
    return cmd, rc, out


def test_quick_mode_reports_are_correct(quick):
    cmd, rc, out = quick
    assert cmd.expect.check(rc, out) == []


TAMPERS = {
    workloads.Derspace: {"h1": 5, "basis_digest": "0" * 64},
    workloads.Lemma22: {"fail_v": (0, 1, 0, 1)},
    workloads.TwoLocal: {"kind": "quadratic_block", "samples": 999},
}


def test_tampered_expected_value_counts_as_failure(quick):
    cmd, rc, out = quick
    for field, value in TAMPERS[type(cmd.expect)].items():
        tampered = dataclasses.replace(cmd.expect, **{field: value})
        assert tampered.check(rc, out), field


def test_checks_tolerate_added_report_lines(quick):
    cmd, rc, out = quick
    lines = out.splitlines()
    lines.insert(1, "kernel: 0")
    lines.append("stats: none")
    assert cmd.expect.check(rc, "\n".join(lines)) == []


def test_tracer_times_layers_and_restores_the_package(quick):
    from matderiv import dercalc, exactlin, twolocal

    def installed():
        return (dercalc.certify, exactlin.Subspace.__dict__["from_span"],
                twolocal.TwoLocalOracle.evaluate)

    cmd, rc, out = quick
    before = installed()
    tracer = layers.Tracer()
    with tracer:
        assert installed() != before
        assert layers.run_in_process(cmd.argv) == (rc, out)
    assert installed() == before
    assert tracer.values["dercalc.certify_s"] > 0
    assert tracer.values["cli.parse_s"] > 0


@pytest.mark.parametrize("name", BASES)
def test_inner_plus_lift_matches_library(name):
    rng = random.Random(name)
    a, m = catalog(name)
    ma, mm = matrix_pair(a, m, 2)
    w, delta, rows = workloads._honest(rng, name, 2)
    want = (inner_derivation(ma.algebra, mm.bimodule, w).matrix
            + lift(certify(a, m, _lin(delta)), ma, mm).matrix)
    assert tuple(rows) == want.entries


@pytest.mark.parametrize("name", ("dual_numbers", "full_matrix_2"))
def test_decompose_and_perturbation_expectations_match_library(name):
    rng = random.Random(name)
    a, m = catalog(name)
    ma, mm = matrix_pair(a, m, 3)
    w, delta, rows = workloads._honest(rng, name, 3)
    dec = decompose(certify(ma.algebra, mm.bimodule, _lin(rows)), ma, mm)
    exp = workloads._decompose_expect(name, 3, w, delta)
    assert [ma.entry(dec.witness, i, j) for i in range(3) for j in range(3)] == exp.witness
    assert list(dec.delta.matrix.entries) == exp.delta

    bad_rows, pair, fail_v = workloads._perturbed(rng, name, 3, rows)
    assert leibniz_failures(ma.algebra, mm.bimodule, _lin(bad_rows))[0] == pair
    forged = dataclasses.replace(dec.inner_part, linmap=_lin(bad_rows))
    results = verify_lemma22(forged, ma, mm).results
    assert [r.counterexample for r in results] == [None] * 4 + [fail_v]


def test_twolocal_expectations_match_library(tmp_path):
    for cmd in workloads.build("twolocal-verify", 7, tmp_path):
        exp = dataclasses.replace(cmd.expect, samples=60)
        name, n = cmd.argv[1], exp.n
        a, m = catalog(name)
        ma, mm = matrix_pair(a, m, n)
        d = certify(ma.algebra, mm.bimodule, _lin(exp.oracle))
        oracle = (wrap_derivation(d) if exp.kind == "honest"
                  else perturbed_oracle(d, exp.kind, ma, mm))
        cand = reconstruct(oracle, derivation_space(ma.algebra, mm.bimodule), ma)
        if exp.cand is not None:
            assert list(cand.matrix.entries) == exp.cand
        samples = seeded_elements(ma.algebra.dim, exp.samples, exp.seed)
        assert exp._disagreements(list(cand.matrix.entries)) == \
            agreement_failures(oracle, cand, samples)


def test_algebra_file_is_a_valid_relabelling(tmp_path):
    path = tmp_path / "alg.json"
    dim = workloads.algebra_file(random.Random(3), path, "upper_triangular_2", 2)
    alg = load_algebra_file(str(path))
    assert dim == alg.dim == 12
    assert validate_algebra(alg) == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "derspace-ladder", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
