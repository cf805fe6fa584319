"""matderiv benchmark: CLI wall time on seeded workloads, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The CLI runs from the checkout's src/
directory as `python -m matderiv.cli`; nothing needs building.

--trace 0 is a closed loop with one client: each pass runs every command of
the workload once, one at a time, in a seeded order, as a subprocess, timing
it from spawn to exit and reading the child's own peak RSS from wait4.
Passes repeat until S seconds have gone.  Every report is checked.
--trace 1 replays one pass of every workload in-process, untraced and then
traced, and reports the per-layer metrics of layers.py, named by workload.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it are a readable table.  Without the
checkout's src/matderiv or tests/oracles.py the script exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120

E2E_UNITS = {"wall_s": "s", "cmd_p50_s": "s", "cmd_max_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv: list[str], workdir: Path) -> tuple[int, str, float, float]:
    """Run one CLI command; returns (exit code, stdout, wall s, peak RSS MB)."""
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "matderiv.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=cli_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, not RUSAGE_CHILDREN: the peak RSS of this child alone
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024


def check(cmd, rc: int, out: str) -> bool:
    problems = cmd.expect.check(rc, out)
    for p in problems:
        print(f"FAIL {cmd.label}: {p}", file=sys.stderr)
    return not problems


def setup(workloads, name: str, seed: int, workdir: Path):
    """Seeded input generation plus one warm-up CLI call."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    commands = workloads.build(name, seed, workdir)
    run_cli(commands[0].argv, workdir)      # its report is checked in the passes
    return commands


def measure(commands, seed: int, seconds: float, workdir: Path):
    """Closed-loop passes until `seconds` have gone; returns per-pass
    {label: (wall, rss)} and the failure count."""
    rng = random.Random(seed)
    passes, failed = [], 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        order = list(commands)
        rng.shuffle(order)
        results = {}
        for cmd in order:
            rc, out, wall, rss = run_cli(cmd.argv, workdir)
            results[cmd.label] = (wall, rss)
            failed += not check(cmd, rc, out)
        passes.append(results)
    return passes, failed


def end_to_end(passes, setups: list[float]) -> dict[str, float]:
    labels = passes[0].keys()
    per_cmd = {k: statistics.median(p[k][0] for p in passes) for k in labels}
    return {
        "wall_s": statistics.median(sum(w for w, _ in p.values()) for p in passes),
        "cmd_p50_s": statistics.median(w for p in passes for w, _ in p.values()),
        "cmd_max_s": max(per_cmd.values()),
        "peak_rss_mb": max(statistics.median(p[k][1] for p in passes) for k in labels),
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "matderiv" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: not a matderiv checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if args.trace:
            import layers
            commands = {}
            for w in workloads.WORKLOADS:
                order = setup(workloads, w, args.seed, workdir / w)
                random.Random(args.seed).shuffle(order)
                commands[w] = order
            values, attempted, failed = layers.traced_replay(commands, check)
            values["cli.startup_s"] = layers.startup_s(sys.executable, cli_env(), str(ROOT))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.METRICS}
            print(f"traced replay of every workload ({attempted // 2} commands)")
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = perf_counter()
                commands = setup(workloads, args.workload, args.seed, workdir / "inputs")
                setups.append(perf_counter() - start)
            passes, failed = measure(commands, args.seed, args.seconds, workdir)
            attempted = sum(len(p) for p in passes)
            metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                       for name, value in end_to_end(passes, setups).items()}
            print(f"{args.workload}: {len(passes)} passes of {len(commands)} commands, "
                  f"fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
