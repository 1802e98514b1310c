"""Run one workload untraced on several seeds and report each end-to-end
metric's median and spread (quartile distance over median, as the
acceptance rule takes it).

    python3 perfbench/spread.py --workload ct-corpus --seeds 1-10 --seconds 10

Runs are sequential, one process at a time; each is waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args(argv)
    values: dict = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                              cwd=RUN.parent.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        out = json.loads(proc.stdout.splitlines()[-1])
        if not out["correct"]:
            print(f"seed {seed}: {out['failed']} of {out['attempted']} failed", file=sys.stderr)
            return 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in out["metrics"].items()), flush=True)
        for k, m in out["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"{k:45s} median {med:12.5g}  spread {(q3 - q1) / med:7.2%}")
        else:
            print(f"{k:45s} median {med:12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
