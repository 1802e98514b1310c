"""Command-line front end.

Subcommands: run, ct, safety, difftest, isa, bench.  Exit codes are a
stable interface: 0 success (or secure/safe verdicts), 1 verdict
failure (insecure, unsafe, mismatch), 2 usage or input errors.  Every
randomized command takes a seed (defaulted deterministically) and
prints it in its report; --json emits machine-readable reports with a
versioned schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import interp, isa, leakage, memory, safety
from .expand import ExpandError, expand
from .parser import ParseError, parse
from .typecheck import TypecheckError, typecheck
from .words import Word

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _load_program(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path}: not UTF-8 text") from None
    try:
        return expand(typecheck(parse(text)))
    except (ParseError, TypecheckError, ExpandError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _entry(p, entry: str, path: str):
    """The function `entry` of expanded program p, read from `path`; an
    inline function, which expansion leaves out, is absent too."""
    if entry not in p.func_names():
        raise CliError(f"no function {entry!r} in {path}")
    return p.func(entry)


def _int(text: str, least: int | None = None) -> int:
    try:
        n = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if least is not None and n < least:
        raise argparse.ArgumentTypeError(f"{text} is below {least}")
    return n


def _positive(text: str) -> int:
    return _int(text, 1)


def _sizes(text: str) -> list:
    return [_int(s, 0) for s in text.split(",")]


def _length(text: str) -> tuple:
    name, _, mx = text.partition(":")
    return name, _int(mx, 0)


def _parse_regions(specs):
    out = []
    for spec in specs or ():
        try:
            base, length = spec.split(":")
            out.append((int(base, 0), int(length, 0)))
        except ValueError as exc:
            raise CliError(f"bad region {spec!r}; expected base:len") from exc
    return out


def _emit(report: dict, as_json: bool, text_lines):
    if as_json:
        report["schema_version"] = SCHEMA_VERSION
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------- run


def cmd_run(args) -> int:
    p = _load_program(args.file)
    if args.mem_in:
        try:
            text = Path(args.mem_in).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise CliError(f"cannot read {args.mem_in}: not UTF-8 text") from None
        except OSError as exc:
            raise CliError(f"cannot load memory dump: {exc}") from exc
        try:
            mem = memory.parse_dump(text)
        except ValueError as exc:
            raise CliError(f"cannot load memory dump: {exc}") from exc
    else:
        mem = memory.Memory()
    for base, length in _parse_regions(args.region):
        try:
            mem = memory.add_region(mem, base, length)
        except ValueError as exc:  # negative, past 2^64 or past memory.MAX_BYTES
            raise CliError(f"bad region 0x{base:x}:{length}: {exc}") from exc
    fn = _entry(p, args.entry, args.file)
    vals = args.u64 or []
    if len(vals) != len(fn.params):
        raise CliError(
            f"{args.entry} takes {len(fn.params)} arguments, got {len(vals)} --u64 values"
        )
    try:
        results, final, _ = interp.run(
            p, args.entry, vals, mem, budget=args.budget,
            vector_mode=args.vector_mode,
        )
    except interp.SafetyError as exc:
        _emit(
            {"verdict": "safety-error", "error": str(exc), "kind": type(exc).__name__},
            args.json,
            [f"safety error: {exc}"],
        )
        return EXIT_VERDICT
    lines = []
    out_words = []
    for i, r in enumerate(results):
        if isinstance(r, Word):
            lines.append(f"result[{i}] = 0x{r.value:0{r.width // 4}x}")
            out_words.append({"width": r.width, "value": hex(r.value)})
        else:
            lines.append(f"result[{i}] = {r}")
            out_words.append({"value": str(r)})
    if args.mem_out:
        Path(args.mem_out).write_text(memory.dump(final))
        lines.append(f"memory written to {args.mem_out}")
    _emit({"verdict": "ok", "results": out_words}, args.json, lines)
    return EXIT_OK


# ------------------------------------------------------------------ ct


def _build_shape(fn, args, public, public_regions) -> dict:
    """The input shape of entry fn from --ptr and --len, after checking
    that every name these and the public sets give is a parameter."""
    from .ir import WordTy

    shape: dict = {}
    ptrs = {}
    for spec in args.ptr or ():
        name, _, size = spec.partition(":")
        ptrs[name] = size
    lens = dict(args.len or ())
    params = {q.name for q in fn.params}
    for name in [*ptrs, *lens, *sorted(public), *sorted(public_regions)]:
        if name not in params:
            raise CliError(f"{name!r} is not a parameter of {fn.name}")
    for q in fn.params:
        if q.name in ptrs:
            size = ptrs[q.name]
            if size not in lens:
                if not size.isdigit():
                    raise CliError(f"--ptr {q.name}:{size}: LEN must be a byte count "
                                   "or a --len name")
                size = int(size)
            shape[q.name] = leakage.Ptr(size)
        elif q.name in lens:
            shape[q.name] = leakage.Len(max=lens[q.name])
        elif isinstance(q.ty, WordTy):
            shape[q.name] = leakage.Val(q.ty.bits)
        else:
            raise CliError(f"parameter {q.name!r} needs a --ptr or --len shape")
    return shape


def cmd_ct(args) -> int:
    p = _load_program(args.file)
    fn = _entry(p, args.entry, args.file)
    public = frozenset(args.public.split(",")) - {""}
    public_regions = frozenset((args.public_region or "").split(",")) - {""}
    spec = leakage.PublicSpec(public, public_regions)
    shape = _build_shape(fn, args, public, public_regions)
    inferred = sorted(leakage.infer_public(p, args.entry))
    verdict = leakage.ct_check(
        p, args.entry, spec, trials=args.trials, seed=args.seed, shape=shape
    )
    report = {
        "verdict": verdict.kind,
        "trials": verdict.trials,
        "seed": verdict.seed,
        "inferred_public": inferred,
    }
    lines = [
        f"constant-time verdict: {verdict.kind} ({verdict.trials} trials, seed {verdict.seed})",
        f"inferred public inputs: {', '.join(inferred) if inferred else '(none)'}",
    ]
    if verdict.witness is not None:
        w = verdict.witness
        report["witness"] = {
            "trial": w.trial,
            "position": w.position,
            "events": [str(e) for e in w.events],
            "public_inputs": {k: str(v) for k, v in w.public_inputs.items()},
            "secret_inputs": [
                {k: (v.hex() if isinstance(v, bytes) else str(v)) for k, v in s.items()}
                for s in w.secret_inputs
            ],
        }
        lines.append(
            f"witness: trial {w.trial}, first divergence at event {w.position}: "
            f"{w.events[0]} vs {w.events[1]}"
        )
    if verdict.error:
        report["error"] = verdict.error
        lines.append(f"error: {verdict.error}")
    _emit(report, args.json, lines)
    return EXIT_OK if verdict.secure else EXIT_VERDICT


# -------------------------------------------------------------- safety


def cmd_safety(args) -> int:
    p = _load_program(args.file)
    _entry(p, args.entry, args.file)
    pointers = [s for s in (args.pointer or "").split(",") if s]
    tracked = [s for s in (args.track or "").split(",") if s]
    if not tracked and args.suggest:
        tracked = sorted(safety.preanalyze(p, args.entry))
    try:
        rep = safety.analyze(p, args.entry, pointers, tracked)
    except safety.AnalysisFailure as exc:
        raise CliError(str(exc)) from exc
    lines = rep.text_lines() + [""] + rep.machine_lines()
    for f in rep.failures:
        lines.append(f"analysis failure: {f}")
    for f in rep.findings:
        lines.append(str(f))
    report = {
        "ranges": rep.machine_lines(),
        "failures": list(rep.failures),
        "findings": [str(f) for f in rep.findings],
        "tracked": tracked,
    }
    _emit(report, args.json, lines)
    return EXIT_OK if not rep.failures and not rep.findings else EXIT_VERDICT


# ------------------------------------------------------------ difftest


def cmd_difftest(args) -> int:
    from .primitives.difftest import DslEntry, SHAPES, SpecEntry, hop_difftest

    if args.shape not in SHAPES:
        raise CliError(f"unknown shape {args.shape!r}")
    shape = SHAPES[args.shape]
    chain = [SpecEntry(f"{args.shape}_spec", shape.spec_output)]
    for path in args.files:
        p = _load_program(path)
        _entry(p, args.entry, path)
        chain.append(DslEntry(Path(path).stem, p, args.entry))
    rep = hop_difftest(chain, runs=args.runs, seed=args.seed, input_shape=args.shape)
    lines = [f"difftest shape={rep.shape} runs={rep.runs} seed={rep.seed}"]
    pair_rows = []
    for pr in rep.pairs:
        lines.append(
            f"  {pr.left} vs {pr.right}: {pr.runs - pr.failures}/{pr.runs} matching"
        )
        row = {"left": pr.left, "right": pr.right, "runs": pr.runs,
               "failures": pr.failures}
        if pr.first_counterexample:
            row["counterexample"] = pr.first_counterexample
            lines.append(f"    first counterexample: {pr.first_counterexample}")
        pair_rows.append(row)
    _emit(
        {"verdict": "match" if rep.ok else "mismatch", "runs": rep.runs,
         "seed": rep.seed, "pairs": pair_rows},
        args.json,
        lines,
    )
    return EXIT_OK if rep.ok else EXIT_VERDICT


# ----------------------------------------------------------------- isa


def cmd_isa(args) -> int:
    rows = []
    for name in sorted(isa.registry()):
        d = isa.lookup(name)
        srcs = " ".join(_argloc(a) for a in d.sources) or "-"
        dsts = " ".join(_argloc(a) for a in d.destinations)
        rows.append(
            {"name": name, "sources": srcs, "destinations": dsts,
             "mnemonic": d.mnemonic, "vector": d.is_vector}
        )
    lines = [
        f"{r['name']:24s} {r['sources']:28s} -> {r['destinations']:44s} {r['mnemonic']}"
        for r in rows
    ]
    _emit({"instructions": rows}, args.json, lines)
    return EXIT_OK


def _argloc(a) -> str:
    from .isa import E, F, R

    if isinstance(a, F):
        return f"F:{a.flag}"
    if isinstance(a, R):
        return f"R:{a.reg}"
    return f"E:u{a.width}@{a.index}"


# ---------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    from .primitives.corpus import PROGRAMS, load_program
    from .primitives.difftest import SHAPES

    if args.program not in PROGRAMS:
        raise CliError(f"unknown corpus program {args.program!r}")
    info = PROGRAMS[args.program]
    p = load_program(args.program)
    shape = SHAPES[info.kind]
    import random

    rng = random.Random(args.seed)
    rows = []
    lines = [f"interpreted steps per byte for {args.program} (seed {args.seed});"]
    lines.append("this is an interpreter proxy metric, not hardware timing")
    lines.append(f"{'bytes':>8s} {'steps':>12s} {'steps/byte':>12s}")
    for size in args.sizes:
        total = 0
        for _ in range(args.repetitions):
            case = shape.sample(rng, 10**6)  # large index: random-length regime
            if "msg" in case:
                case["msg"] = rng.randbytes(size)
            m, argv = shape.build_memory(case)
            total += interp.run(p, info.entry, argv, m).steps
        steps = total / args.repetitions
        per_byte = steps / size if size else None  # JSON null, "-" in text
        rows.append({"bytes": size, "steps": steps, "steps_per_byte": per_byte})
        lines.append(f"{size:8d} {steps:12.0f} "
                     + (f"{per_byte:12.2f}" if size else f"{'-':>12s}"))
    _emit({"program": args.program, "seed": args.seed, "rows": rows}, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jamin",
        description="Toolchain for the assembly-in-the-head DSL: run, "
        "constant-time check, range analysis, differential testing.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="interpret a program")
    pr.add_argument("file")
    pr.add_argument("--entry", required=True)
    pr.add_argument("--u64", action="append", type=_int, metavar="VALUE",
                    help="64-bit argument (repeatable, in order)")
    pr.add_argument("--region", action="append", metavar="BASE:LEN",
                    help="declare a valid memory region")
    pr.add_argument("--mem-in", help="hex dump to preload")
    pr.add_argument("--mem-out", help="write the final memory dump here")
    pr.add_argument("--budget", type=_positive, default=interp.DEFAULT_BUDGET)
    pr.add_argument("--vector-mode", choices=(isa.OPS, isa.OPSV), default=isa.OPSV)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(fn=cmd_run)

    pc = sub.add_parser("ct", help="two-run constant-time check")
    pc.add_argument("file")
    pc.add_argument("--entry", required=True)
    pc.add_argument("--public", default="", metavar="a,b,...")
    pc.add_argument("--ptr", action="append", metavar="NAME:LEN",
                    help="pointer parameter; LEN is bytes or a length parameter")
    pc.add_argument("--len", action="append", type=_length, metavar="NAME:MAX",
                    help="length parameter sampled in [0, MAX]")
    pc.add_argument("--public-region", default="", metavar="a,b",
                    help="pointer parameters whose pointees are public")
    pc.add_argument("--trials", type=_positive, default=1000)
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_ct)

    ps = sub.add_parser("safety", help="static memory-range analysis")
    ps.add_argument("file")
    ps.add_argument("--entry", required=True)
    ps.add_argument("--pointer", default="", metavar="a,b,...")
    ps.add_argument("--track", default="", metavar="a,b,...")
    ps.add_argument("--suggest", action="store_true",
                    help="derive the tracked set with the pre-analysis")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(fn=cmd_safety)

    pd = sub.add_parser("difftest", help="differential equivalence test")
    pd.add_argument("files", nargs="+", help="DSL programs, compared in order "
                    "after the functional specification")
    pd.add_argument("--entry", required=True)
    pd.add_argument("--shape", required=True, choices=("poly1305", "chacha20", "gimli"))
    pd.add_argument("--runs", type=_positive, default=100)
    pd.add_argument("--seed", type=int, default=1)
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(fn=cmd_difftest)

    pi = sub.add_parser("isa", help="dump the instruction registry")
    pi.add_argument("--json", action="store_true")
    pi.set_defaults(fn=cmd_isa)

    pb = sub.add_parser("bench", help="interpreted steps-per-byte proxy benchmark")
    pb.add_argument("program", help="corpus program name")
    pb.add_argument("--sizes", type=_sizes, default=[0, 64, 256, 1024, 4096],
                    metavar="N,N,...")
    pb.add_argument("--repetitions", type=_positive, default=3)
    pb.add_argument("--seed", type=int, default=1)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
