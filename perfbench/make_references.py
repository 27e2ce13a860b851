"""Write references.json from the current program.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs every workload at SIZES and SMALL_SIZES once, at the reference seed,
and stores what checks.py compares against: exact laws and verify-llt
rows in full, Monte Carlo outputs as SHA-256 digests (plus the verify-lt
report, for the sampling-error comparison at other seeds).  Regenerate only
when an output change is intended; the benchmark then reports the new
bytes as correct.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gegwalk.cli as cli  # noqa: E402

from checks import REFERENCES, verdict_from_stderr  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, SMALL_SIZES, WORKLOADS, invocations  # noqa: E402


def reference_entry(inv) -> dict:
    err = io.StringIO()
    with redirect_stderr(err):
        rc = cli.main(inv.argv)
    text = Path(inv.output).read_text()
    entry = {"rc": rc}
    if inv.kind == "law":
        rows = [ln.split(",") for ln in text.splitlines()[1:]]
        entry["law"] = {s: float(m) for s, m in rows}
    elif inv.kind == "llt":
        rows = [ln.split(",") for ln in text.splitlines()[1:]]
        entry["rows"] = [[int(n), float(v), float(p)] for n, v, p, _ in rows]
        entry["verdict"] = verdict_from_stderr(err.getvalue())
    else:
        entry["seed"] = inv.seed
        entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        if inv.kind == "verify_lt":
            entry["report"] = json.loads(text)
    return entry


def main() -> int:
    refs = {}
    threads = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for sizes in (SIZES, SMALL_SIZES):
            for workload in WORKLOADS:
                for inv in invocations(workload, DEFAULT_SEED, tmp, threads, sizes):
                    refs[inv.key] = reference_entry(inv)
                    print(f"{inv.key}: exit {refs[inv.key]['rc']}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
