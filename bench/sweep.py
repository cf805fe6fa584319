"""Run the benchmark over several seeds and write BENCH_<label>.json.

    python3 bench/sweep.py --label baseline --seeds 1-10

Workloads and run length come from BENCHMARK.json.  For each workload it
makes one --trace 0 run per seed and records every end-to-end value with its
median, quartiles and spread (the quartile distance as a share of the
median, from statistics.quantiles(n=4)).  Then one --trace 1 run with the
first seed gives the per-layer values of every workload.  The file is
written next to this script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    out = {"label": args.label, "seconds": SECONDS, "seeds": seeds, "workloads": {}}
    for w in WORKLOADS:
        runs = [one_run(w, s, 0) for s in seeds]
        e2e = {}
        for name, m in runs[0]["metrics"].items():
            e2e[name] = {"unit": m["unit"],
                         **summary([r["metrics"][name]["value"] for r in runs])}
            print(f"{w:16s} {name:12s} median {e2e[name]['median']:10.4f} "
                  f"{m['unit']:3s} spread {e2e[name]['spread']:.4f}", flush=True)
        out["workloads"][w] = {"attempted": sum(r["attempted"] for r in runs),
                               "failed": sum(r["failed"] for r in runs),
                               "end_to_end": e2e}
    traced = one_run(WORKLOADS[0], seeds[0], 1)
    out["per_layer"] = {"attempted": traced["attempted"], "failed": traced["failed"],
                        "metrics": traced["metrics"]}
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
