"""Benchmark entry point.

    python3 perfbench/run.py --workload ct-corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; jamin is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  Exit code 0 when a result was printed (wrong answers show as
`failed`), 1 when the benchmark's own self-checks fail, 2 when jamin
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ct-corpus", "difftest-long", "analyze-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_jamin():
    """Import jamin from this checkout only; None when it is not there."""
    if not (SRC / "jamin" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import jamin

    if Path(jamin.__file__).resolve().parent != (SRC / "jamin").resolve():
        return None
    return jamin


def declared_metrics() -> tuple[list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_jamin() is None:
        print(f"perfbench: no jamin sources under {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import BenchmarkError

    end_to_end, per_layer = declared_metrics()
    try:
        if args.trace:
            tally, tracer, traced, plain = workloads.run_traced(
                args.workload, args.seed, args.seconds)
            out = workloads.result(tally, layers.layer_metrics(tracer, traced, plain))
            want = per_layer
        else:
            out = workloads.run_untraced(args.workload, args.seed, args.seconds)
            want = end_to_end
        got = [(n, m["unit"]) for n, m in out["metrics"].items()]
        if sorted(got) != sorted(want):
            raise BenchmarkError(
                f"metrics differ from BENCHMARK.json: "
                f"extra {sorted(set(got) - set(want))}, missing {sorted(set(want) - set(got))}"
            )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
