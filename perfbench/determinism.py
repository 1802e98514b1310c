"""Exact-count determinism check: two traced runs on one seed must report
identical counts (IR nodes after expansion, trace events, dump bytes,
calls, trials and cases) and identical attempted/failed totals.  A
difference is a benchmark failure, not noise.

    python3 perfbench/determinism.py --seed 1 --seconds 2

Runs are sequential, one process at a time; each is waited for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("ct-corpus", "difftest-long", "analyze-cold")
COUNT_UNITS = ("count", "bytes")


def traced(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=RUN.parent.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def counts(out: dict) -> dict:
    c = {k: m["value"] for k, m in out["metrics"].items() if m["unit"] in COUNT_UNITS}
    c["attempted"] = out["attempted"]
    c["failed"] = out["failed"]
    return c


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        first = counts(traced(workload, args.seed, args.seconds))
        second = counts(traced(workload, args.seed, args.seconds))
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        if diff:
            status = 1
            print(f"{workload}: counts differ: {diff}")
        else:
            print(f"{workload}: {len(first)} counts identical on seed {args.seed}")
    return status


if __name__ == "__main__":
    sys.exit(main())
