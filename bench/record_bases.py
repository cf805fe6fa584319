"""Record the canonical derspace bases that the derspace-ladder checks use.

    python3 bench/record_bases.py

Runs `derspace <base> -n <n>` for every pair on the ladder and writes the
digest of each printed basis to expected_bases.json.  Run it only on a
commit whose bases are known to be right; the checks compare later commits
against it.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

bases = {}
with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as tmp:
    for name, n, _ in workloads.LADDER:
        rc, out, _, _ = run.run_cli(["derspace", name, "-n", str(n)], Path(tmp))
        if rc:
            sys.exit(f"derspace {name} -n {n} exited {rc}")
        bases[f"{name} -n {n}"] = workloads.basis_digest(
            workloads.blocks(out.splitlines(), "basis"))
workloads.EXPECTED_BASES.write_text(json.dumps(bases, indent=1, sort_keys=True) + "\n")
print(f"wrote {len(bases)} digests to {workloads.EXPECTED_BASES}")
