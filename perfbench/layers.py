"""Per-layer metrics, computed from the spans of one traced run.

`.ms` is busy self time (a span's duration minus its wrapped children),
summed over everything the run does; `.calls`, `.nodes`, `.bytes`,
`.trials`, `.cases` and `trace_events` are counts, which repeat exactly
on one seed.  A layer that a workload does not exercise itself shows
the work of the fixed slices that measure the other workloads' metrics.
README.md names the end-to-end metric each one should move, and on
which workload.
"""

from __future__ import annotations

import statistics

from jamin import isa
from jamin.primitives.corpus import PROGRAMS

from spans import BenchmarkError, Tracer
from workloads import VECTORIZED

NAMES = list(PROGRAMS)

PER_LAYER = (
    [("parser.parse.ms", "ms"), ("typecheck.typecheck.ms", "ms"),
     ("expand.expand.ms", "ms")]
    + [(f"expand.nodes.{p}", "count") for p in NAMES]
    + [("interp.cold_run.ms", "ms"), ("interp.run.ms", "ms"),
       ("interp.run.calls", "count")]
    + [(f"interp.run.{p}.ns_per_byte", "ns/B") for p in NAMES]
    + [("interp.run_traced.ms", "ms")]
    + [m for p in VECTORIZED for m in ((f"isa.ops_over_opsv.{p}", "ratio"),
                                       (f"isa.ops.{p}.ms", "ms"),
                                       (f"isa.opsv.{p}.ms", "ms"))]
    + [("leakage.run_instrumented.self_ms", "ms"), ("leakage.first_divergence.ms", "ms"),
       ("leakage.build_inputs.ms", "ms"), ("leakage.ct_check.self_ms", "ms"),
       ("leakage.ct_check.trials", "count")]
    + [(f"leakage.trace_events.{p}", "count") for p in NAMES]
    + [("leakage.infer_public.ms", "ms"),
       ("memory.dump.ms", "ms"), ("memory.dump.calls", "count"),
       ("memory.dump.bytes", "bytes"),
       ("primitives.build_memory.ms", "ms"), ("primitives.expected_memory.ms", "ms"),
       ("primitives.spec_output.ms", "ms"), ("primitives.hop_difftest.self_ms", "ms"),
       ("primitives.hop_difftest.cases", "count")]
    + [(f"safety.analyze.{p}.ms", "ms") for p in NAMES]
    + [(f"safety.check_safety.{p}.ms", "ms") for p in NAMES]
    + [("bench.trace_overhead", "ratio"), ("bench.probe.ms", "ms")]
)


def layer_metrics(tr: Tracer, traced: dict, plain: dict) -> dict:
    """name -> (value, unit) for every PER_LAYER metric."""
    v: dict = {}
    work = {"phase": "workload"}

    for name in ("parser.parse", "typecheck.typecheck", "expand.expand"):
        v[f"{name}.ms"] = tr.self_ms(name)
    for label, counts in _distinct_extras(tr, "expand.expand").items():
        if label in PROGRAMS:
            v[f"expand.nodes.{label}"] = counts

    v["interp.cold_run.ms"] = tr.self_ms("interp.run", phase="setup")
    untraced = lambda s: not s.tag[3]  # noqa: E731
    v["interp.run.ms"] = tr.self_ms("interp.run", where=untraced, **work)
    v["interp.run.calls"] = tr.calls("interp.run", where=untraced, **work)
    v["interp.run_traced.ms"] = tr.self_ms("interp.run", parent="leakage.run_instrumented",
                                           **work)
    per_run = tr.by_tag("interp.run", lambda s: (s.tag[0], s.tag[1]),
                        where=untraced, **work)
    nbytes: dict = {}
    for s in tr.select("interp.run", where=untraced, **work):
        if s.tag[1] == isa.OPSV:
            nbytes[s.tag[0]] = nbytes.get(s.tag[0], 0) + s.tag[2]
    for p in NAMES:
        secs = per_run[(p, isa.OPSV)][0] if (p, isa.OPSV) in per_run else 0.0
        v[f"interp.run.{p}.ns_per_byte"] = 1e9 * secs / nbytes[p] if nbytes.get(p) else 0
    for p in VECTORIZED:
        ops = 1e3 * per_run[(p, isa.OPS)][0] if (p, isa.OPS) in per_run else 0.0
        opsv = 1e3 * per_run[(p, isa.OPSV)][0] if (p, isa.OPSV) in per_run else 0.0
        v[f"isa.ops.{p}.ms"] = ops
        v[f"isa.opsv.{p}.ms"] = opsv
        v[f"isa.ops_over_opsv.{p}"] = ops / opsv if opsv else 0

    v["leakage.run_instrumented.self_ms"] = tr.self_ms("leakage.run_instrumented")
    v["leakage.first_divergence.ms"] = tr.self_ms("leakage.first_divergence")
    v["leakage.build_inputs.ms"] = tr.self_ms("leakage.build_inputs")
    v["leakage.ct_check.self_ms"] = tr.self_ms("leakage.ct_check")
    v["leakage.ct_check.trials"] = tr.calls("leakage.build_inputs")
    for label, (_, events, _) in tr.by_tag("leakage.run_instrumented",
                                           lambda s: s.label).items():
        if label in PROGRAMS:
            v[f"leakage.trace_events.{label}"] = events
    v["leakage.infer_public.ms"] = tr.self_ms("leakage.infer_public")

    v["memory.dump.ms"] = tr.self_ms("memory.dump")
    v["memory.dump.calls"] = tr.calls("memory.dump")
    v["memory.dump.bytes"] = sum(s.tag for s in tr.select("memory.dump"))
    v["primitives.build_memory.ms"] = tr.self_ms("primitives.build_memory", **work)
    v["primitives.expected_memory.ms"] = tr.self_ms("primitives.expected_memory")
    v["primitives.spec_output.ms"] = tr.self_ms("primitives.spec_output")
    v["primitives.hop_difftest.self_ms"] = tr.self_ms("primitives.hop_difftest")
    v["primitives.hop_difftest.cases"] = tr.calls("primitives.spec_output")

    for name in ("safety.analyze", "safety.check_safety"):
        for label, (secs, _, _) in tr.by_tag(name, lambda s: s.label).items():
            v[f"{name}.{label}.ms"] = 1e3 * secs

    v["bench.trace_overhead"] = traced["elapsed"] / plain["elapsed"]
    v["bench.probe.ms"] = 1e3 * statistics.median(
        p for s in traced["timings"].times.values() for _, p in s)
    return {name: (v.get(name, 0), unit) for name, unit in PER_LAYER}


def _distinct_extras(tr: Tracer, name: str) -> dict:
    """label -> the one count every span of that label reported."""
    seen: dict = {}
    for s in tr.select(name):
        seen.setdefault(s.label, set()).add(s.extra)
    out = {}
    for label, values in seen.items():
        if len(values) != 1 and label in PROGRAMS:
            raise BenchmarkError(f"{name} of {label} gave different counts: {values}")
        out[label] = next(iter(values))
    return out
