"""Traced in-process replay: where a workload's time goes, layer by layer.

The replay calls `matderiv.cli.main` once per command with stdout captured,
first untraced and then with timing wrappers installed around the public
functions of each module.  A wrapper records inclusive wall time per metric;
a call nested inside another call of the same metric is covered by the outer
span and not counted twice.  Counts are read from arguments and results.
Wrappers replace the function in every `matderiv` module namespace that
holds it (the modules import each other's functions by name) and are
removed when the replay ends.  The pair-construction memory peak is measured
afterwards, in its own pass under tracemalloc, by rebuilding the matrix
algebras and bimodules each command built.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

from matderiv import algcore, cli, dercalc, exactlin, matext, twolocal

# (metric, owner, attribute): time spent in owner.attribute, inclusive
TIMED = (
    ("exactlin.nullspace_sparse_s", exactlin, "nullspace_sparse"),
    ("exactlin.span_s", exactlin.Subspace, "from_span"),
    ("exactlin.span_s", exactlin, "nullspace"),
    ("exactlin.solve_s", exactlin, "solve"),
    ("dercalc.derivation_space_s", dercalc, "derivation_space"),
    ("dercalc.inner_space_s", dercalc, "inner_space"),
    ("dercalc.certify_s", dercalc, "certify"),
    ("dercalc.inner_derivation_s", dercalc, "inner_derivation"),
    ("matext.matrix_pair_s", matext, "matrix_algebra"),
    ("matext.matrix_pair_s", matext, "matrix_bimodule"),
    ("matext.matrix_pair_s", matext, "matrix_pair"),
    ("matext.decompose_s", matext, "decompose"),
    ("matext.lift_s", matext, "lift"),
    ("matext.lemma22_s", matext, "verify_lemma22"),
    ("algcore.validate_s", algcore, "validate_algebra"),
    ("algcore.validate_s", algcore, "validate_bimodule"),
    ("algcore.catalog_s", algcore, "catalog_algebra"),
    ("algcore.catalog_s", algcore, "catalog"),
    ("twolocal.agreement_s", twolocal, "agreement_failures"),
    ("twolocal.reconstruct_s", twolocal, "reconstruct"),
    ("twolocal.sampling_s", twolocal, "seeded_elements"),
    ("cli.parse_s", cli, "resolve_algebra"),
    ("cli.parse_s", cli, "load_algebra_file"),
    ("cli.parse_s", cli, "load_bimodule_file"),
    ("cli.parse_s", cli, "load_map_file"),
    ("cli.format_s", cli, "fmt_matrix"),
)

UNITS = {"exactlin.rank": "count", "dercalc.certify_calls": "count",
         "dercalc.der_dim": "count", "matext.matrix_pair_peak_mb": "MB",
         "algcore.nnz": "count", "algcore.dense_cells": "count",
         "twolocal.queries": "count", "twolocal.eval_us": "us",
         "cli.stdout_bytes": "B", "trace.overhead_frac": "ratio"}

# The layers each workload calls.  A layer a workload never calls would read
# exactly 0 on every run, so it is not reported for that workload.
EXERCISED = {
    "derspace-ladder": (
        "exactlin.nullspace_sparse_s", "exactlin.span_s", "exactlin.rank",
        "dercalc.derivation_space_s", "dercalc.inner_space_s", "dercalc.certify_s",
        "dercalc.certify_calls", "dercalc.inner_derivation_s", "dercalc.der_dim",
        "matext.matrix_pair_s", "matext.matrix_pair_peak_mb", "algcore.catalog_s",
        "algcore.nnz", "algcore.dense_cells", "cli.parse_s", "cli.format_s",
        "cli.stdout_bytes"),
    "certify-large": (
        "dercalc.certify_s", "dercalc.certify_calls", "dercalc.inner_derivation_s",
        "matext.matrix_pair_s", "matext.matrix_pair_peak_mb", "matext.decompose_s",
        "matext.lift_s", "matext.lemma22_s", "algcore.validate_s", "algcore.catalog_s",
        "algcore.nnz", "algcore.dense_cells", "cli.parse_s", "cli.format_s",
        "cli.stdout_bytes"),
    "twolocal-verify": (
        "exactlin.nullspace_sparse_s", "exactlin.solve_s", "exactlin.rank",
        "dercalc.derivation_space_s", "dercalc.certify_s", "dercalc.certify_calls",
        "dercalc.der_dim", "matext.matrix_pair_s", "matext.matrix_pair_peak_mb",
        "algcore.catalog_s", "algcore.nnz", "algcore.dense_cells",
        "twolocal.agreement_s", "twolocal.queries", "twolocal.eval_us",
        "twolocal.reconstruct_s", "twolocal.sampling_s", "cli.parse_s",
        "cli.format_s", "cli.stdout_bytes"),
}
WHOLE_RUN = ("cli.startup_s", "trace.overhead_frac", "trace.traced_wall_s",
             "trace.untraced_wall_s")


# per_layer metrics in BENCHMARK.json order, with units
METRICS = ([(f"{w}.{m}", UNITS.get(m, "s")) for w, layer in EXERCISED.items() for m in layer]
           + [(m, UNITS.get(m, "s")) for m in WHOLE_RUN])


def _nonzeros(a) -> int:
    return sum(1 for plane in a.mult for row in plane for c in row if c)


class Tracer:
    """Timing and counting wrappers, installed for the life of a `with`."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.builds: list[tuple] = []          # matrix_* calls of this command
        self._open: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    def _timed(self, metric, fn):
        def wrapper(*args, **kwargs):
            if self._open[metric]:
                result = fn(*args, **kwargs)
            else:
                self._open[metric] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.values[metric] += perf_counter() - start
                    self._open[metric] -= 1
            self._count(fn.__name__, args, result)
            return result
        return wrapper

    def _count(self, name, args, result) -> None:
        v = self.values
        if name in ("nullspace_sparse", "nullspace"):
            v["exactlin.rank"] += result.ambient_dim - result.dim
        elif name == "from_span":
            v["exactlin.rank"] += result.dim
        elif name == "certify":
            v["dercalc.certify_calls"] += 1
        elif name == "derivation_space":
            v["dercalc.der_dim"] += result.dim
        elif name == "matrix_algebra":
            base, n = args
            # computed: M_n(A) has n^3 * nnz(A) nonzero products in a dim^3 cube
            v["algcore.nnz"] += n ** 3 * _nonzeros(base)
            v["algcore.dense_cells"] += result.algebra.dim ** 3
            self.builds.append((name, base, n))
        elif name == "matrix_bimodule":
            self.builds.append((name, *args))

    def _replace(self, owner, attr, new) -> None:
        """Install `new` wherever owner.attr is referenced in the package."""
        old = owner.__dict__[attr]
        target = old.__func__ if isinstance(old, classmethod) else old
        if isinstance(owner, type):
            self._undo.append((owner, attr, old))
            setattr(owner, attr, staticmethod(new) if isinstance(old, classmethod) else new)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("matderiv") and \
                    getattr(mod, attr, None) is target:
                self._undo.append((mod, attr, target))
                setattr(mod, attr, new)

    def __enter__(self):
        for metric, owner, attr in TIMED:
            self._replace(owner, attr, self._timed(metric, getattr(owner, attr)))
        evaluate = twolocal.TwoLocalOracle.evaluate

        def counted(oracle, x):
            self.values["twolocal.queries"] += 1
            if self._open["twolocal.agreement_s"]:
                self.values["twolocal.agreement_evals"] += 1
            return evaluate(oracle, x)
        self._replace(twolocal.TwoLocalOracle, "evaluate", counted)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def run_in_process(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _pair_peak_mb(builds: list[tuple]) -> float:
    """Peak traced memory of rebuilding one command's matrix pair."""
    tracemalloc.start()
    try:
        keep = [getattr(matext, name)(base, n) for name, base, n in builds]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del keep
    return peak / 2 ** 20


def startup_s(python: str, env: dict, cwd: str, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing matderiv.cli."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([python, "-c", "import matderiv.cli"], env=env, cwd=cwd,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _replay(commands, check, tracer=None) -> tuple[float, int, int, list]:
    """Run each command in-process; returns (wall s of the CLI calls alone,
    failures, stdout bytes, matrix builds per command)."""
    wall, failed, out_bytes, builds = 0.0, 0, 0, []
    for cmd in commands:
        if tracer:
            tracer.builds = []
        start = perf_counter()
        rc, out = run_in_process(cmd.argv)
        wall += perf_counter() - start
        out_bytes += len(out.encode())
        builds.append(tracer.builds if tracer else [])
        failed += not check(cmd, rc, out)
    return wall, failed, out_bytes, builds


def traced_replay(commands: dict, check) -> tuple[dict[str, float], int, int]:
    """Replay every workload's commands untraced, then each workload traced
    on its own, then rebuild its pairs under tracemalloc.  check(command, rc,
    out) reports whether an output is correct.  Returns (per-layer values
    named <workload>.<layer metric>, attempted, failed)."""
    values: dict[str, float] = {}
    untraced = traced = 0.0
    attempted = failed = 0
    for workload, cmds in commands.items():
        wall, bad, _, _ = _replay(cmds, check)
        untraced += wall
        tracer = Tracer()
        with tracer:
            wall, bad_traced, out_bytes, builds = _replay(cmds, check, tracer)
        traced += wall
        attempted += 2 * len(cmds)
        failed += bad + bad_traced
        v = tracer.values
        evals = v.pop("twolocal.agreement_evals", 0)
        v["twolocal.eval_us"] = v["twolocal.agreement_s"] / evals * 1e6 if evals else 0.0
        v["matext.matrix_pair_peak_mb"] = max(
            (_pair_peak_mb(b) for b in {tuple(b) for b in builds if b}), default=0.0)
        v["cli.stdout_bytes"] = out_bytes
        values.update((f"{workload}.{m}", v[m]) for m in EXERCISED[workload])
    values["trace.traced_wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_frac"] = traced / untraced - 1
    return values, attempted, failed
