"""The benchmark's three workloads and the metrics taken from them.

Each workload drives the public functions behind one `jamin`
subcommand on the seven corpus programs:

  ct-corpus      leakage.ct_check (jamin ct): short messages, traces on
  difftest-long  primitives.difftest.hop_difftest (jamin difftest):
                 messages up to 4 KiB, no traces, Ops and OpsV
  analyze-cold   parse -> typecheck -> expand -> infer_public ->
                 safety.analyze -> safety.check_safety (jamin safety),
                 from source text, nothing interpreted

Why each one exists, and which metric each layer should move, is in
README.md next to this file.

Work is cut into chunks (one ct_check call, one hop_difftest call, one
stage of one program's analysis, or one program's set-up).  The speed
probe of speed.py runs next to every chunk, and times are reported at
the probe's reference speed.  On a shared host, co-tenants slow a core down
for a few milliseconds at a time, for 0 to 100% of the time:

  - ct chunks last 5 to 30 ms, so some of the PASSES passes over them
    runs undisturbed: a chunk counts at its fastest pass over the
    fastest probe right before it (Timings.fastest);
  - difftest chunks, analysis stages and set-up steps last 30 ms to 2 s
    and are never undisturbed: each is followed by probes for a tenth of
    its time, which are disturbed in the same proportion, and counts at
    its time over their mean (Timings.typical).  difftest-long runs each
    chunk once, after one untimed call per family on the boundary
    lengths.  Set-up counts each program at its fastest of SETUP_REPEATS
    builds (Timings.fastest_ratio).

The number of chunks and passes is a fixed function of --seconds, so
two runs on one seed do identical work, and chunk seeds are stratified
by the message bytes they imply (stratified_seeds), so two seeds do
nearly the same amount of work.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import random
import resource
import statistics
import sys
import time
import traceback
import zlib
from pathlib import Path

import jamin.expand as expand_mod
import jamin.parser as parser_mod
import jamin.typecheck as typecheck_mod
from jamin import interp, isa, leakage, memory, safety
from jamin.primitives import difftest
from jamin.primitives.corpus import PROGRAMS

import planted
import speed
from spans import BenchmarkError, SpanCheck, Tracer, check_originals

HERE = Path(__file__).resolve().parent
CORPUS_DIR = Path(interp.__file__).resolve().parent / "corpus"

FAMILIES = {
    "poly1305": ("poly1305_ref", "poly1305_avx2"),
    "chacha20": ("chacha20_scalar", "chacha20_avx2_small", "chacha20_avx2_big"),
    "gimli": ("gimli_ref", "gimli_sse"),
}
VECTORIZED = ("poly1305_avx2", "chacha20_avx2_small", "chacha20_avx2_big", "gimli_sse")

# Chunk sizes and counts.  With --seconds S, ct-corpus runs 1.4*S
# chunks per program PASSES times, and difftest-long
# DIFF_CHUNKS_PER_S[family]*S chunks per family once, which takes about
# S seconds on the reference host of speed.py.  An analyze-cold pass
# over the corpus takes about 10 s there, so that workload runs
# ANALYZE_PASSES passes whatever S is.
PASSES = 5
CT_CHUNK_TRIALS = {"poly1305": 4, "chacha20": 2, "gimli": 5}
# `jamin difftest` runs 100 cases by default: the 11 boundary lengths,
# then 89 random lengths up to 4096 B.  A timed difftest chunk is one
# hop_difftest call on random lengths only (RANDOM_SHAPES): one case for
# Poly1305 and ChaCha20, ten for Gimli, whose input is always 48 B.  The
# boundary lengths run once per family, untimed; they are under 1% of
# the default call's message bytes.
DIFF_CHUNK_CASES = {"poly1305": 1, "chacha20": 1, "gimli": 10}
DIFF_CHUNKS_PER_S = {"poly1305": 4, "chacha20": 2.5, "gimli": 4}
ANALYZE_PASSES = 2
REFERENCE_DRAWS = 500  # chunk draws that fix the bands of stratified_seeds

# Every run reports every end-to-end metric.  Those of the other two
# workloads come from a small slice with fixed inputs, run after the
# workload's own part (and after peak_rss_mb is read): CROSS_CT_CHUNKS
# ct chunks per program, CROSS_DIFF_CHUNKS difftest chunks per family
# and one analyze pass.
CROSS_SEED = 0
CROSS_CT_CHUNKS = 6
CROSS_DIFF_CHUNKS = {"poly1305": 12, "chacha20": 8, "gimli": 12}

SETUP_REPEATS = 3
PROBE_SHARE = 0.1  # probe time after a long chunk, as a share of the chunk's time
WARM_LEN = 1000  # bytes; long enough to take every block-loop path once

clock = time.perf_counter


def subseed(seed: int, label: str) -> int:
    return zlib.crc32(f"{seed}/{label}".encode())


def stratified_seeds(seed: int, label: str, n: int, work) -> list:
    """n chunk seeds derived from (seed, label): the c-th is the first
    whose work, `work(chunk seed)` (the message bytes the chunk will
    hold), falls in the c-th n-quantile band of the work's distribution.

    The bands are the quantiles of REFERENCE_DRAWS draws that do not
    depend on `seed`, so every seed gets one chunk from each band and
    nearly the same amount of work, while the lengths and contents still
    come from the seed.  `work` draws with the sampler the chunk's own
    call uses."""
    ref = sorted(work(subseed(-1, f"{label}/reference/{i}")) for i in range(REFERENCE_DRAWS))
    out = []
    for c in range(n):
        lo, hi = ref[c * len(ref) // n], ref[((c + 1) * len(ref) - 1) // n]
        for attempt in range(100 * n):
            s = subseed(seed, f"{label}/{c}/{attempt}")
            if lo <= work(s) <= hi:
                out.append(s)
                break
        else:
            raise BenchmarkError(f"no {label} chunk seed in band {c} of {n}")
    return out


class Tally:
    """Operations attempted and failed; a failure is a wrong answer or
    an exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str, n: int = 1, failed: int | None = None):
        self.attempted += n
        bad = (0 if ok else n) if failed is None else failed
        self.failed += bad
        if bad:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def crashed(self, what: str, n: int = 1):
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{what} raised", n)


class Timings:
    """(seconds, probe seconds) per chunk and pass, reported at the
    reference speed of speed.py."""

    def __init__(self):
        self.times: dict = {}

    def add(self, chunk, seconds: float, probe_s: float):
        self.times.setdefault(chunk, []).append((seconds, probe_s))

    def fastest(self, chunks) -> float:
        """Sum over chunks of the fastest pass over the fastest probe."""
        return sum(
            min(t for t, _ in s) / min(p for _, p in s) * speed.REFERENCE_S
            for s in (self.times[c] for c in chunks if c in self.times)
        )

    def fastest_ratio(self, chunks) -> float:
        """Sum over chunks of the smallest time over probe of any pass."""
        return sum(
            min(t / p for t, p in s) * speed.REFERENCE_S
            for s in (self.times[c] for c in chunks if c in self.times)
        )

    def typical(self, chunks) -> float:
        """Sum over chunks of the mean over passes of time over probe."""
        return sum(
            statistics.mean(t / p for t, p in s) * speed.REFERENCE_S
            for s in (self.times[c] for c in chunks if c in self.times)
        )

    def total(self) -> float:
        """All passes of all chunks, each scaled by its own probe."""
        return sum(t / p * speed.REFERENCE_S for s in self.times.values() for t, p in s)


# ------------------------------------------------------------- set-up


def read_sources() -> dict:
    return {name: (CORPUS_DIR / f"{name}.jz").read_text() for name in PROGRAMS}


def build(text: str):
    """Source text to an expanded program, through the module attributes
    that the spans wrap."""
    return expand_mod.expand(typecheck_mod.typecheck(parser_mod.parse(text)))


def warm_inputs() -> dict:
    """One fixed input per family for the warm-up runs: (memory, args)."""
    out = {}
    for kind in FAMILIES:
        shape = difftest.SHAPES[kind]
        rng = random.Random(0)
        case = shape.sample(rng, len(difftest.BOUNDARY_LENGTHS))
        if "msg" in case:
            case["msg"] = rng.randbytes(WARM_LEN)
        out[kind] = shape.build_memory(case)
    return out


def build_corpus(sources: dict, warm: dict, tracer: Tracer | None = None,
                 timings: Timings | None = None) -> dict:
    """Parse, typecheck and expand every program, then run it once so the
    interpreter's lazily compiled closures exist."""
    progs = {}
    for name, info in PROGRAMS.items():
        if tracer is not None:
            tracer.label = name
        t0 = clock()
        p = build(sources[name])
        m, args = warm[info.kind]
        interp.run(p, info.entry, args, m)
        if timings is not None:
            dt = clock() - t0
            timings.add(name, dt, speed.probe_for(PROBE_SHARE * dt))
        progs[name] = p
    return progs


def build_planted(tracer: Tracer | None = None) -> list:
    if tracer is not None:
        tracer.label = "planted"
    return [build(src) for _, src, _, _ in planted.PLANTED]


def timed_setup(sources: dict):
    """Set-up time: each program at its fastest of SETUP_REPEATS builds
    (Timings.fastest_ratio); the last build's programs are the warm ones
    the workload runs.  Each build starts after a full garbage
    collection, so the garbage of earlier work is not collected on its
    time; the collections its own allocations trigger are."""
    warm = warm_inputs()
    timings = Timings()
    progs = None
    for _ in range(SETUP_REPEATS):
        progs = None  # free the previous build before the next one
        gc.collect()
        progs = build_corpus(sources, warm, timings=timings)
    return timings.fastest_ratio(list(PROGRAMS)), progs


def count_nodes(root) -> int:
    """IR nodes reachable from `root` (types are not nodes)."""
    n = 0
    todo = [root]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x) and not type(x).__dataclass_params__.frozen:
            n += 1
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return n


# ------------------------------------------------------------ ct-corpus


def ct_plan(progs: dict, seed: int, chunks: int) -> list:
    """(program, chunk seed, trials) for every ct chunk, seeds stratified
    by the message bytes of the chunk's trials."""
    plan = []
    for name, info in PROGRAMS.items():
        trials = CT_CHUNK_TRIALS[info.kind]
        work = functools.partial(_ct_bytes, progs[name], info, trials)
        plan += [(name, s, trials) for s in stratified_seeds(seed, f"ct/{name}", chunks, work)]
    return plan


def _ct_bytes(p, info, trials: int, chunk_seed: int) -> int:
    """Message bytes of a ct_check call's trials, drawn as ct_check
    draws them: build_inputs once per trial on one generator."""
    lens = [q for q, s in info.shape.items() if isinstance(s, leakage.Len)]
    rng = random.Random(chunk_seed)
    total = 0
    for _ in range(trials):
        public, _, _, secret, _ = leakage.build_inputs(p, info.entry, info.shape,
                                                       info.public, rng)
        total += sum(public.get(q, secret.get(q, 0)) for q in lens)
    return total


def ct_measure(progs, planted_progs, plan, seed, tally, tracer=None) -> dict:
    """ct_check on every corpus chunk (must be secure), PASSES times, then
    once on each planted program (must be insecure)."""
    timings = Timings()
    counts = {}
    for _ in range(PASSES):
        for name, chunk_seed, trials in plan:
            speed.settle()
            info = PROGRAMS[name]
            if tracer is not None:
                tracer.label = name
            try:
                probe_s = speed.probe()
                t0 = clock()
                v = leakage.ct_check(progs[name], info.entry, info.public, trials=trials,
                                     seed=chunk_seed, shape=info.shape)
                dt = clock() - t0
            except Exception:
                tally.crashed(f"ct_check {name} seed {chunk_seed}")
                continue
            tally.check(v.kind == "secure",
                        f"ct_check {name} seed {chunk_seed}: {v.kind} {v.error or ''}")
            timings.add((name, chunk_seed), dt, probe_s)
            counts[(name, chunk_seed)] = (v.kind, v.trials)
    for (desc, _, shape, spec), p in zip(planted.PLANTED, planted_progs):
        if tracer is not None:
            tracer.label = "planted"
        try:
            v = leakage.ct_check(p, planted.ENTRY, spec, trials=planted.TRIALS,
                                 seed=subseed(seed, desc), shape=shape)
        except Exception:
            tally.crashed(f"ct_check planted {desc!r}")
            continue
        tally.check(v.kind == "insecure", f"planted {desc!r}: {v.kind}")
        counts[desc] = (v.kind, v.trials)
    executed = [(n, s) for n, s, _ in plan] * PASSES + [d for d, *_ in planted.PLANTED]
    return {"timings": timings, "counts": counts, "elapsed": timings.total(),
            "executed": executed}


def ct_rates(plan, measured) -> dict:
    """Two-run trials per second per family: the trials run over the
    chunks' times (Timings.fastest)."""
    out = {}
    for kind in FAMILIES:
        chunks = [(n, s) for n, s, _ in plan if PROGRAMS[n].kind == kind]
        trials = sum(measured["counts"][c][1] for c in chunks)
        out[f"ct.{kind}.trials_per_s"] = trials / measured["timings"].fastest(chunks)
    return out


# -------------------------------------------------------- difftest-long


def chain_for(kind: str, progs: dict) -> list:
    """spec -> reference -> vectorized, each vectorized program twice
    (OpsV then Ops) so the pair checks Ops == OpsV on whole programs."""
    shape = difftest.SHAPES[kind]
    chain = [difftest.SpecEntry(f"{kind}_spec", shape.spec_output)]
    for name in FAMILIES[kind]:
        entry = PROGRAMS[name].entry
        if name in VECTORIZED:
            for mode in (isa.OPSV, isa.OPS):
                chain.append(difftest.DslEntry(f"{name}[{mode}]", progs[name], entry, mode))
        else:
            chain.append(difftest.DslEntry(name, progs[name], entry, isa.OPSV))
    return chain


def _random_only(shape):
    """The shape, except that case i gets the length hop_difftest draws
    for case 11 + i: always a random one, never a boundary length."""

    class RandomOnly(type(shape)):
        def _length(self, rng, index):
            return super()._length(rng, len(difftest.BOUNDARY_LENGTHS) + index)

    return RandomOnly()


# The timed chunks' input shapes, registered under their own names so
# that hop_difftest can be asked for them.
RANDOM_SHAPES = {kind: f"{kind}.random" for kind in FAMILIES}
difftest.SHAPES.update(
    {key: _random_only(difftest.SHAPES[kind]) for kind, key in RANDOM_SHAPES.items()})


def diff_plan(seed: int, chunks: dict) -> list:
    """(family, chunk seed, cases) for every timed difftest chunk, seeds
    stratified by the message bytes of the chunk's cases.

    The families' chunks are interleaved, each family's in an order drawn
    from the seed, so that each family's time is sampled across the whole
    part rather than in one stretch of the host's changing contention."""
    rng = random.Random(subseed(seed, "diff/order"))
    placed = []
    for kind, n in chunks.items():
        cases = DIFF_CHUNK_CASES[kind]
        work = functools.partial(_diff_bytes, kind, cases)
        seeds = stratified_seeds(seed, f"diff/{kind}", n, work)
        rng.shuffle(seeds)
        placed += [((c + 0.5) / n, kind, s, cases) for c, s in enumerate(seeds)]
    return [(kind, s, cases) for _, kind, s, cases in sorted(placed)]


def _diff_bytes(kind: str, cases: int, chunk_seed: int) -> int:
    """Message bytes of a timed hop_difftest call, drawn as it draws them."""
    shape = difftest.SHAPES[RANDOM_SHAPES[kind]]
    rng = random.Random(chunk_seed)
    return sum(len(shape.sample(rng, i).get("msg", b"")) for i in range(cases))


def diff_measure(progs, seed, plan, tally, tracer=None) -> dict:
    """hop_difftest once per family on the boundary lengths, untimed (it
    also pays for the first Ops runs, spec and dump calls of the
    process), then once on every timed chunk; every pair must match."""
    timings = Timings()
    counts = {}
    chains = {}
    boundary = [(kind, kind, subseed(seed, f"diff/{kind}/boundary"),
                 len(difftest.BOUNDARY_LENGTHS)) for kind in FAMILIES]
    executed = boundary + [(kind, RANDOM_SHAPES[kind], s, n) for kind, s, n in plan]
    for i, (kind, shape, chunk_seed, runs) in enumerate(executed):
        speed.settle()
        if tracer is not None:
            tracer.label = kind
        if kind not in chains:
            chains[kind] = chain_for(kind, progs)
        chain = chains[kind]
        try:
            t0 = clock()
            rep = difftest.hop_difftest(chain, runs=runs, seed=chunk_seed, input_shape=shape)
            dt = clock() - t0
        except Exception:
            tally.crashed(f"hop_difftest {shape} seed {chunk_seed}",
                          runs * (len(chain) - 1))
            continue
        fails = sum(pr.failures for pr in rep.pairs)
        tally.check(rep.ok, f"hop_difftest {shape} seed {chunk_seed}: " + "; ".join(
            f"{pr.left} vs {pr.right}: {pr.first_counterexample}"
            for pr in rep.pairs if pr.failures),
            n=sum(pr.runs for pr in rep.pairs), failed=fails)
        if i >= len(boundary):
            timings.add((shape, chunk_seed), dt, speed.probe_for(PROBE_SHARE * dt))
        counts[(shape, chunk_seed)] = (rep.runs, len(chain), fails)
    return {"timings": timings, "counts": counts, "elapsed": timings.total(),
            "executed": [(shape, s) for _, shape, s, _ in executed]}


def diff_rates(plan, measured) -> dict:
    """Chain cases per second per family."""
    timings = measured["timings"]
    out = {}
    for kind in FAMILIES:
        chunks = [(RANDOM_SHAPES[kind], s) for k, s, _ in plan if k == kind]
        cases = sum(measured["counts"][c][0] for c in chunks if c in measured["counts"])
        out[f"difftest.{kind}.cases_per_s"] = cases / timings.typical(chunks)
    return out


# --------------------------------------------------------- analyze-cold


def read_contracts() -> dict:
    out: dict = {}
    for line in (HERE / "contracts.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, text = line.partition(": ")
            out.setdefault(name, []).append(text)
    return out


def analyze_measure(sources, seed, passes, tally, tracer=None) -> dict:
    """Every program from source text through the analyzers, `passes`
    times; the order of programs in each pass is drawn from the seed.
    Nothing carries over from one pass to the next: every pass
    re-parses.  Each program starts after a full garbage collection, as
    in timed_setup."""
    contracts = read_contracts()
    rng = random.Random(subseed(seed, "analyze"))
    timings = Timings()
    counts = {}
    executed = []
    for _ in range(passes):
        order = list(PROGRAMS)
        rng.shuffle(order)
        executed += order
        for name in order:
            if tracer is not None:
                tracer.label = name
            info = PROGRAMS[name]
            stages = (
                ("build", lambda _: build(sources[name])),
                ("infer_public", lambda p: leakage.infer_public(p, info.entry)),
                ("analyze", lambda p: safety.analyze(p, info.entry, info.pointers,
                                                     info.tracked)),
                ("check_safety", lambda p: safety.check_safety(p, info.entry, info.pointers,
                                                               info.tracked)),
            )
            out = {}
            gc.collect()
            try:
                for stage, fn in stages:
                    speed.settle()
                    t0 = clock()
                    out[stage] = fn(out.get("build"))
                    dt = clock() - t0
                    timings.add((name, stage), dt, speed.probe_for(PROBE_SHARE * dt))
            except Exception:
                tally.crashed(f"analyze {name}")
                continue
            inferred, rep, findings = out["infer_public"], out["analyze"], out["check_safety"]
            problems = []
            if not leakage.covered_by(inferred, info.public):
                problems.append(f"inferred public {sorted(inferred)} not covered")
            if rep.failures or findings:
                problems.append(f"failures {rep.failures}, findings {list(map(str, findings))}")
            if rep.machine_lines() != contracts.get(name):
                problems.append(f"ranges {rep.machine_lines()}")
            tally.check(not problems, f"analyze {name}: {'; '.join(problems)}")
            counts[name] = (sorted(inferred), rep.machine_lines())
    return {"timings": timings, "counts": counts, "elapsed": timings.total(),
            "executed": executed}


def analyze_rates(measured) -> dict:
    """One full pass over the corpus: each stage of each program at its
    mean over passes."""
    timings = measured["timings"]
    return {"analyze.corpus_s": timings.typical(list(timings.times))}


# --------------------------------------------------------- entry points


END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ct.poly1305.trials_per_s", "1/s"),
    ("ct.chacha20.trials_per_s", "1/s"),
    ("ct.gimli.trials_per_s", "1/s"),
    ("difftest.poly1305.cases_per_s", "1/s"),
    ("difftest.chacha20.cases_per_s", "1/s"),
    ("difftest.gimli.cases_per_s", "1/s"),
    ("analyze.corpus_s", "s"),
]


class Corpus:
    """What a run works on: the source texts and, once set up, the warm
    corpus programs and the planted programs."""

    def __init__(self):
        self.sources = read_sources()
        self.progs = None
        self.planted = None
        self.names: dict = {}  # id(program) -> corpus name

    def set_up(self, tracer: Tracer | None = None) -> float:
        """Build from source; returns the set-up time of timed_setup
        (traced: one build, time not reported)."""
        if tracer is None:
            setup_s, self.progs = timed_setup(self.sources)
        else:
            setup_s, self.progs = 0.0, build_corpus(self.sources, warm_inputs(), tracer)
        self.planted = build_planted(tracer)
        self.names = {id(p): name for name, p in self.progs.items()}
        return setup_s


def make_plan(workload, corpus: Corpus, seed: int, seconds: int | None):
    """The chunks of one workload: its own part on inputs from `seed`
    with `seconds`, or (seconds None) the fixed slice that measures its
    metrics in another workload's run.  analyze-cold's plan is its
    number of passes."""
    if workload == "ct-corpus":
        chunks = CROSS_CT_CHUNKS if seconds is None else max(1, round(1.4 * seconds))
        return ct_plan(corpus.progs, seed, chunks)
    if workload == "difftest-long":
        chunks = CROSS_DIFF_CHUNKS if seconds is None else {
            kind: max(1, round(n * seconds)) for kind, n in DIFF_CHUNKS_PER_S.items()}
        return diff_plan(seed, chunks)
    return 1 if seconds is None else ANALYZE_PASSES


def measure(workload, corpus: Corpus, seed: int, plan, tally, tracer=None) -> dict:
    if workload == "ct-corpus":
        return ct_measure(corpus.progs, corpus.planted, plan, seed, tally, tracer)
    if workload == "difftest-long":
        return diff_measure(corpus.progs, seed, plan, tally, tracer)
    return analyze_measure(corpus.sources, seed, plan, tally, tracer)


def rates(workload, plan, measured) -> dict:
    if workload == "ct-corpus":
        return ct_rates(plan, measured)
    if workload == "difftest-long":
        return diff_rates(plan, measured)
    return analyze_rates(measured)


WORKLOADS = ("ct-corpus", "difftest-long", "analyze-cold")


def execute(workload: str, corpus: Corpus, seed: int, seconds: int, tally,
            tracer: Tracer | None = None, plans: dict | None = None) -> dict:
    """Everything one run does, in order: corpus set-up, the workload's
    own part, then the other workloads' slices.  analyze-cold starts
    from source text and needs no set-up; it sets the corpus up after
    its own part, for the slices.  Plans are made untraced, before the
    part they describe, unless `plans` already holds them."""
    out: dict = {"parts": {}, "plans": {} if plans is None else plans}

    def part(name, own: bool):
        part_seed = seed if own else CROSS_SEED
        if name not in out["plans"]:
            out["plans"][name] = make_plan(name, corpus, part_seed, seconds if own else None)
        plan = out["plans"][name]
        out["parts"][name] = (plan, measure(name, corpus, part_seed, plan, tally, tracer))

    def set_up():
        if tracer is not None:
            tracer.phase = "setup"
        out["setup_s"] = corpus.set_up(tracer)
        if tracer is not None:
            tracer.phase = "workload"

    if workload != "analyze-cold":
        set_up()
    elif tracer is not None:
        tracer.phase = "workload"
    part(workload, own=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if corpus.progs is None:
        set_up()
    for other in WORKLOADS:
        if other != workload:
            part(other, own=False)
    return out


def run_untraced(workload: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics, with every wrapped target checked to be the
    original function."""
    check_originals((o, a) for o, a, *_ in _targets())
    tally = Tally()
    corpus = Corpus()
    run = execute(workload, corpus, seed, seconds, tally)
    metrics = {"setup_s": run["setup_s"], "peak_rss_mb": run["peak_rss_mb"]}
    for name, (plan, measured) in run["parts"].items():
        metrics.update(rates(name, plan, measured))
    return result(tally, {n: (metrics[n], u) for n, u in END_TO_END if n in metrics})


def run_traced(workload: str, seed: int, seconds: int):
    """Everything a run does, once untraced and once more from source
    with every target wrapped; both must agree on every verdict and
    count.  Returns (tally, tracer, traced own part, untraced own part)."""
    check_originals((o, a) for o, a, *_ in _targets())
    tally = Tally()
    plain = execute(workload, Corpus(), seed, seconds, tally)

    corpus = Corpus()
    targets = _targets(corpus)
    tracer = Tracer()
    for owner, attr, name, tag, extra in targets:
        tracer.install(owner, attr, name, tag, extra)
    try:
        traced = execute(workload, corpus, seed, seconds, tally, tracer, plain["plans"])
    finally:
        tracer.uninstall()
    check_originals((o, a) for o, a, *_ in targets)

    def counts(run):
        return {name: m["counts"] for name, (_, m) in run["parts"].items()}

    if counts(plain) != counts(traced):
        raise BenchmarkError(
            f"traced and untraced runs disagree: {counts(plain)} vs {counts(traced)}"
        )
    if not tally.failed:
        _check_spans(tracer, traced["parts"])
    return tally, tracer, traced["parts"][workload][1], plain["parts"][workload][1]


# -------------------------------------------------------------- tracing


def _targets(corpus: Corpus | None = None):
    """(owner, attribute, span name, tag, extra) for every wrapped function;
    interp.run spans name their program through `corpus`."""
    shapes = [type(difftest.SHAPES[kind]) for kind in FAMILIES]

    def run_tag(args, kwargs):
        """interp.run(p, entry, args, mem, ...): (program, mode, bytes, traced)."""
        name = corpus.names.get(id(args[0]), "other") if corpus is not None else "other"
        kind = PROGRAMS[name].kind if name in PROGRAMS else None
        nbytes = 48 if kind == "gimli" else (args[2][2] if kind else 0)
        return (name, kwargs.get("vector_mode") or isa.OPSV, nbytes,
                kwargs.get("trace") is not None)

    return (
        [
            (parser_mod, "parse", "parser.parse", None, None),
            (typecheck_mod, "typecheck", "typecheck.typecheck", None, None),
            (expand_mod, "expand", "expand.expand", None, count_nodes),
            (interp, "run", "interp.run", run_tag, None),
            (leakage, "ct_check", "leakage.ct_check", None, None),
            (leakage, "build_inputs", "leakage.build_inputs", None, None),
            (leakage, "run_instrumented", "leakage.run_instrumented", None,
             lambda r: len(r[2].events)),
            (leakage.LeakTrace, "first_divergence", "leakage.first_divergence", None, None),
            (leakage, "infer_public", "leakage.infer_public", None, None),
            (memory, "dump", "memory.dump", _region_bytes, None),
            (difftest, "hop_difftest", "primitives.hop_difftest", None, None),
            (safety, "analyze", "safety.analyze", None, None),
            (safety, "check_safety", "safety.check_safety", None, None),
        ]
        + [(c, "build_memory", "primitives.build_memory", None, None) for c in shapes]
        + [(c, "expected_memory", "primitives.expected_memory", None, None) for c in shapes]
        + [(c, "spec_output", "primitives.spec_output", None, None) for c in shapes]
    )


def _region_bytes(args, kwargs) -> int:
    """memory.dump(m): the bytes of the regions it dumps."""
    return sum(end - base for base, end in args[0].regions())


def _check_spans(tracer: Tracer, parts: dict):
    """Span counts must equal the counts the run's inputs imply; a
    wrapper on a name some caller bound directly records too few."""
    trials = ct_calls = hop_calls = cases = entries = analyses = 0
    for name, (_, m) in parts.items():
        counts, executed = m["counts"], m["executed"]
        if name == "ct-corpus":
            ct_calls += len(executed)
            trials += sum(counts[c][1] for c in executed)
        elif name == "difftest-long":
            hop_calls += len(executed)
            cases += sum(counts[c][0] for c in executed)
            entries += sum(counts[c][0] * counts[c][1] for c in executed)
        else:
            analyses += len(executed)
    n_corpus = len(PROGRAMS)
    chk = SpanCheck(tracer)
    for name in ("parser.parse", "typecheck.typecheck", "expand.expand"):
        chk.expect(name, n_corpus + len(planted.PLANTED), phase="setup")
        chk.expect(name, analyses, phase="workload")
    chk.expect("interp.run", n_corpus, phase="setup")
    chk.expect("leakage.ct_check", ct_calls)
    chk.expect("leakage.build_inputs", trials)
    chk.expect("leakage.first_divergence", trials)
    chk.expect("leakage.run_instrumented", 2 * trials)
    chk.expect("interp.run", 2 * trials, phase="workload", parent="leakage.run_instrumented")
    chk.expect("primitives.hop_difftest", hop_calls)
    chk.expect("primitives.spec_output", cases)
    chk.expect("primitives.expected_memory", cases)
    chk.expect("memory.dump", entries)
    chk.expect("interp.run", entries - cases, phase="workload",
               parent="primitives.hop_difftest")
    chk.expect("interp.run", 2 * trials + entries - cases, phase="workload")
    for name in ("leakage.infer_public", "safety.analyze", "safety.check_safety"):
        chk.expect(name, analyses)
    chk.raise_if_failed()


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
