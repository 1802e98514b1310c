"""Leakage-instrumented execution and constant-time checking.

A leakage trace is the ordered list of events an attacker observing
addresses, control flow and divisions would see: one per run of a row
of the leakage table (ir.leaks), the value observed with no tag, its
kind told by its type (ir.EVENT_KINDS).  A program is constant-time for
a given split of its inputs into public and secret when any two runs
that agree on the public part produce equal traces.  Only the table's
tests change a run's path, so two runs whose traces agree before event
p have run the same statements, and their p-th events are of one kind:
an int is never compared with a bool (Python holds True == 1).

`ct_check` tests that property by paired sampling: per trial the public
inputs (and public memory) are drawn once and shared, the secret inputs
are drawn independently for the two runs with adversarial corners
(zero, all-ones, random), and the traces are compared event by event.

A shape maps an entry parameter to a `Ptr` (to a region of a byte
count or of a `Len` parameter's length), a `Len` or a `Val`; a word
parameter it leaves out is a `Val` of its width.  `ct_check` and
`build_inputs` raise ShapeError, before any draw, on a shape or
PublicSpec naming no parameter, a parameter not a word, a negative
byte count, a `Val` width that is negative or wider than its parameter
(`Val(0)` is allowed: its parameter is always 0), a `Len` maximum or a
region address its parameter cannot hold, a `Ptr` sized by no `Len`, a
public region with no `Ptr`, or regions past memory.MAX_BYTES.

`infer_public` computes a sound over-approximation of the inputs that
can influence the trace, by a taint analysis of the expanded program on
the forward driver of jamin.flow, flow-sensitive for locals with a
fixpoint per loop: if the secrets are disjoint from the returned set,
no witness can exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import flow, interp
from .ir import (
    EVENT_KINDS,
    EArr,
    EBin,
    ECall,
    ECast,
    EIntr,
    EMem,
    EUn,
    EVar,
    Program,
    SAssign,
    SDecl,
    SReturn,
    WordTy,
    leaks,
)
from .memory import MAX_BYTES, Memory


@dataclass
class LeakTrace:
    events: list

    def first_divergence(self, other: "LeakTrace") -> int | None:
        """The index of the first event in which two runs of one program
        differ, None if they do not.  Runs that take the same branches
        emit as many events, so neither trace is a strict prefix of the
        other (zip's `strict` would raise)."""
        a, b = self.events, other.events
        if a == b:  # every trial of a constant-time program
            return None
        for i, (x, y) in enumerate(zip(a, b, strict=True)):
            if x != y:
                return i


def run_instrumented(p: Program, entry: str, args, mem: Memory):
    """interp.run with leakage collection: (results, memory, LeakTrace)."""
    events: list = []
    results, final, _ = interp.run(p, entry, args, mem, trace=events)
    return results, final, LeakTrace(events)


# --------------------------------------------------------------- inputs

# lengths at which buffer handling changes (16- and 64-byte blocks, 256):
# ct_check draws one half the time, difftest's first cases take each in turn
BOUNDARY_LENGTHS = (0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257)


@dataclass(frozen=True)
class Ptr:
    """Pointer parameter; `size` is a byte count or a length-param name."""

    size: object


@dataclass(frozen=True)
class Len:
    """Byte-length parameter, sampled in [0, max], half the time from
    the BOUNDARY_LENGTHS up to max."""

    max: int


@dataclass(frozen=True)
class Val:
    """Plain word parameter."""

    width: int = 64


@dataclass(frozen=True)
class PublicSpec:
    public: frozenset
    public_regions: frozenset = frozenset()

    @staticmethod
    def of(public, public_regions=()) -> "PublicSpec":
        return PublicSpec(frozenset(public), frozenset(public_regions))


@dataclass
class Witness:
    trial: int
    position: int
    kind: str  # "addr", "branch" or "division": its events' kind (ir.EVENT_KINDS)
    events: tuple
    public_inputs: dict
    secret_inputs: tuple  # (run 1 dict, run 2 dict)


@dataclass
class Verdict:
    kind: str  # "secure" | "insecure" | "error"
    trials: int
    seed: int
    witness: Witness | None = None
    error: str | None = None

    @property
    def secure(self) -> bool:
        return self.kind == "secure"


def _sample_secret_word(rng: random.Random, width: int) -> int:
    r = rng.random()
    if r < 0.25:
        return 0
    if r < 0.5:
        return (1 << width) - 1
    return rng.getrandbits(width)


def _sample_secret_bytes(rng: random.Random, n: int) -> bytes:
    r = rng.random()
    if r < 0.2:
        return bytes(n)
    if r < 0.4:
        return b"\xff" * n
    return rng.randbytes(n)


class ShapeError(ValueError):
    """A shape or spec the entry cannot take; `name` is the parameter concerned."""

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name


class _Plan:
    """What build_inputs and _materialize derive from an entry's
    parameters, their shape and the public spec, in parameter order:
    - `drawn`: each Len parameter as (name, its boundary lengths, max + 1,
      public?) and each public Val as (name, None, width, True);
    - `ptrs`: each Ptr parameter as (name, size), its size a byte count or
      a Len parameter's name;
    - `shown`: the Ptr parameters whose region is public;
    - `hidden`: each parameter not public as (name, its shape's class,
      Val width);
    - `mem`: the secret regions as (name, mem[<name>] key);
    - `names`: every parameter's name, and `keys` the mem[<name>] key of
      each.
    A plan holds the program it was made for, not its id, and copies of
    the shape and spec, so no later program or changed shape matches it.
    Making one checks the shape and spec (ShapeError, see the module)."""

    __slots__ = ("program", "entry", "shape", "spec", "drawn", "ptrs", "shown", "hidden",
                 "mem", "names", "keys")

    def __init__(self, p: Program, entry: str, shape: dict, spec: PublicSpec):
        self.program, self.entry, self.shape, self.spec = p, entry, dict(shape), spec
        ty = {q.name: q.ty for q in p.func(entry).params}
        for n in [*shape, *sorted(spec.public), *sorted(spec.public_regions)]:
            if n not in ty:
                raise ShapeError(f"{n!r} is not a parameter of {entry}", n)
        if stray := sorted(n for n in spec.public_regions if type(shape.get(n)) is not Ptr):
            raise ShapeError(f"parameter {stray[0]!r} has no Ptr region", stray[0])
        params = []
        for n, t in ty.items():
            if type(t) is not WordTy:
                raise ShapeError(f"parameter {n!r} is {t}; ct samples word parameters only", n)
            s = shape.get(n, Val(t.bits))
            count = s.size if type(s) is Ptr else getattr(s, "max", 0)
            if type(count) is int and count < 0:
                raise ShapeError(f"parameter {n!r} has a negative byte count: {s}", n)
            if type(s) is Val and not 0 <= s.width <= t.bits:
                raise ShapeError(f"parameter {n!r} is {t}, which cannot take {s}", n)
            if type(s) is Ptr and type(s.size) is not int and type(shape.get(s.size)) is not Len:
                raise ShapeError(f"parameter {n!r} is sized by {s.size!r}, "
                                 "which is not a Len parameter", n)
            if type(s) is Len and s.max >> t.bits:
                raise ShapeError(f"parameter {n!r} is {t}, which holds at most "
                                 f"{(1 << t.bits) - 1}", n)
            params.append((n, s))
        self.names = [name for name, _ in params]
        self.drawn = [(n, tuple(c for c in BOUNDARY_LENGTHS if c <= s.max), s.max + 1,
                       n in spec.public) if isinstance(s, Len) else (n, None, s.width, True)
                      for n, s in params
                      if isinstance(s, Len) or isinstance(s, Val) and n in spec.public]
        self.ptrs = [(n, s.size) for n, s in params if isinstance(s, Ptr)]
        self.keys = {n: f"mem[{n}]" for n in self.names}
        self.shown = [n for n, _ in self.ptrs if n in spec.public_regions]
        self.hidden = [(n, kind, getattr(s, "width", None)) for n, s in params
                       if n not in spec.public for kind in (Len, Val, Ptr) if isinstance(s, kind)]
        self.mem = [(n, self.keys[n]) for n, _ in self.ptrs if n not in spec.public_regions]
        total = 0
        for n, size in self.ptrs:  # the regions at their largest
            total += size if type(size) is int else shape[size].max
            if total > MAX_BYTES:
                raise ShapeError(f"regions of up to {total} bytes exceed "
                                 f"{MAX_BYTES >> 20} MiB together", n)
        top = FIRST_BASE + BASE_SPREAD + total + GAPS[1] * len(self.ptrs)  # past every region
        for n, _ in self.ptrs:
            if top >> ty[n].bits:
                raise ShapeError(f"parameter {n!r} is {ty[n]}, too narrow for region "
                                 f"addresses up to {top:#x}", n)


_last_plan: _Plan | None = None  # the plan _plan made last, reused while it matches


def _plan(p: Program, entry: str, shape: dict, spec: PublicSpec) -> _Plan:
    """The plan of (entry, shape, spec) on p: the latest one when it
    matches, as it does on every trial of a ct_check after the first."""
    global _last_plan
    plan = _last_plan
    if (plan is None or plan.program is not p or plan.entry != entry
            or plan.shape != shape or plan.spec is not spec and plan.spec != spec):
        plan = _last_plan = _Plan(p, entry, shape, spec)
    return plan


FIRST_BASE, BASE_SPREAD, GAPS = 0x10000, 1 << 20, (16, 256)  # build_inputs' region layout


def build_inputs(p: Program, entry: str, shape: dict, spec: PublicSpec,
                 rng: random.Random):
    """Sample one trial: shared public part plus two secret parts.

    Returns (public_env, regions, public region contents, secrets1,
    secrets2) where each secrets dict maps parameter names to values and
    mem[<pointer>] to region bytes.  A Len is drawn half the time from the
    BOUNDARY_LENGTHS up to its max, else uniformly in [0, max]; regions
    follow each other from a random base, 16 to 255 bytes apart.
    """
    plan = _plan(p, entry, shape, spec)
    public: dict = {}
    lens: dict = {}
    base = FIRST_BASE + rng.randrange(0, BASE_SPREAD)
    for name, corners, n, shown in plan.drawn:
        if corners is None:  # a public Val of n bits
            public[name] = rng.getrandbits(n)
            continue
        v = rng.choice(corners) if corners and rng.random() < 0.5 else rng.randrange(n)
        lens[name] = v
        if shown:
            public[name] = v
    regions: dict = {}
    for name, size in plan.ptrs:
        if not isinstance(size, int):
            size = lens[size]
        regions[name] = (base, size)
        public[name] = base
        base += size + rng.randrange(*GAPS)
    pub_contents = {name: rng.randbytes(regions[name][1]) for name in plan.shown}

    def secrets():
        out = {}
        for name, kind, width in plan.hidden:
            if kind is Val:
                out[name] = _sample_secret_word(rng, width)
            elif kind is Len:
                out[name] = lens[name]  # lengths are shared even when secret
            else:
                out[name] = public.get(name)
        for name, key in plan.mem:
            out[key] = _sample_secret_bytes(rng, regions[name][1])
        return out

    return public, regions, pub_contents, secrets(), secrets()


def _materialize(plan: _Plan, public, regions, pub_contents, secret):
    """One run's arguments and memory from build_inputs' output on the
    same plan: each region holds its public or secret bytes, so the
    memory is built whole (Memory.from_spans)."""
    spans = [(addr, pub_contents[name] if name in pub_contents else secret[plan.keys[name]])
             for name, (addr, _) in regions.items()]
    args = [public[name] if name in public else secret[name] for name in plan.names]
    return args, Memory.from_spans(spans)


def ct_check(
    p: Program,
    entry: str,
    spec: PublicSpec,
    trials: int,
    seed: int,
    shape: dict,
) -> Verdict:
    """Two-run differential constant-time check; ShapeError before any trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plan = _plan(p, entry, shape, spec)
    rng = random.Random(seed)
    for t in range(trials):
        public, regions, pub_contents, sec1, sec2 = build_inputs(
            p, entry, shape, spec, rng
        )
        traces = []
        for sec in (sec1, sec2):
            args, m = _materialize(plan, public, regions, pub_contents, sec)
            try:
                _, _, tr = run_instrumented(p, entry, args, m)
            except interp.SafetyError as exc:
                return Verdict(
                    kind="error",
                    trials=t + 1,
                    seed=seed,
                    error=f"trial {t}: {type(exc).__name__}: {exc}",
                )
            traces.append(tr)
        pos = traces[0].first_divergence(traces[1])
        if pos is not None:
            ev = (traces[0].events[pos], traces[1].events[pos])
            return Verdict(
                kind="insecure",
                trials=t + 1,
                seed=seed,
                witness=Witness(
                    trial=t,
                    position=pos,
                    kind=EVENT_KINDS[type(ev[0])],
                    events=ev,
                    public_inputs=dict(public),
                    secret_inputs=(sec1, sec2),
                ),
            )
    return Verdict(kind="secure", trials=trials, seed=seed)


# ------------------------------------------------------- taint analysis

_EMPTY = frozenset()


class _Taint:
    """What the taint analysis of a program keeps whole-program: the
    leaked tokens, and the taint stored into each memory region.  Taints
    are frozensets of source tokens (entry parameter names and mem[<ptr>]
    region tokens)."""

    def __init__(self, p: Program):
        self.p = p
        self.leaked: set = set()
        self.mem_stored: dict[str, frozenset] = {}
        self.version = 0  # counts the changes of mem_stored and of any bases

    def region_tokens(self, bases: frozenset) -> frozenset:
        if not bases or "?" in bases:
            toks = {"mem[?]"}
            toks.update(self.mem_stored.get("?", _EMPTY))
            for b, stored in self.mem_stored.items():
                toks.add(f"mem[{b}]")
                toks.update(stored)
            return frozenset(toks)
        toks = set()
        for b in bases:
            toks.add(f"mem[{b}]")
            toks.update(self.mem_stored.get(b, _EMPTY))
        return frozenset(toks)

    def store_region(self, bases: frozenset, taint: frozenset):
        keys = bases if bases and "?" not in bases else {"?"}
        for b in keys:
            old = self.mem_stored.get(b, _EMPTY)
            if not taint <= old:
                self.mem_stored[b] = old | taint
                self.version += 1


class _FnTaint:
    """The taint analysis of one function called with the given argument
    taints and bases, a forward domain of jamin.flow.  Its state maps a
    local to its taint (an array's: any element's), and None to the
    version of the whole-program part it has seen, so that a loop storing
    new taint to memory is iterated again.  The pointer parameters a
    local may be offset from (`bases`) grow over the whole function."""

    recording = False  # a leak only grows with the state, so every pass may leak
    at = None

    def __init__(self, glob: _Taint, fn, arg_taints, arg_bases):
        self.g = glob
        self.fn = fn
        names = [q.name for q in fn.params]
        self.entry = {None: glob.version, **dict(zip(names, arg_taints))}
        self.bases = dict(zip(names, arg_bases))
        self.results: list = []  # per result, its (taint, bases) at the return
        self.heads: dict = {}

    def run(self) -> list:
        """(taint, bases) of each result."""
        flow.forward(self.fn.body, self.entry, self)
        return self.results

    copy = staticmethod(dict)

    def forget(self, env: dict, private) -> dict:
        """The flow hook (see jamin.flow): env without the taints of the
        locals in `private`."""
        for n in private:
            env.pop(n, None)
        return env

    def observable(self, env: dict, private) -> tuple:
        """The flow hook (see jamin.flow): the taints of the locals not in
        `private` with the whole-program version (of the stored taints and
        every local's bases) at None and the leaked tokens."""
        return {n: t for n, t in env.items() if n not in private}, len(self.g.leaked)

    def refine(self, env: dict, cond, taken) -> dict:
        return env

    def join(self, key, a: dict, b: dict) -> dict:
        a = dict(a)
        for name, t in b.items():
            a[name] = max(a[name], t) if name is None else a.get(name, _EMPTY) | t
        return a

    def leak(self, env: dict, *nodes):
        """The one sink: the taint of each operand of the rows of the
        leakage table (ir.leaks) in `nodes` leaks."""
        for x in nodes:
            for _, _, operands in leaks(x):
                for o in operands:
                    self.g.leaked.update(self.taint(env, o))

    def taint(self, env: dict, e) -> frozenset:
        kind = type(e)
        if kind is EVar:
            return env.get(e.name, _EMPTY)
        if kind is EBin:
            return self.taint(env, e.left) | self.taint(env, e.right)
        if kind is ECast or kind is EUn:
            return self.taint(env, e.arg)
        if kind is EArr:
            return env.get(e.name, _EMPTY) | self.taint(env, e.index)
        if kind is EMem:
            return self.g.region_tokens(self.expr_bases(e.addr)) | self.taint(env, e.addr)
        if kind is EIntr:
            return _EMPTY.union(*(self.taint(env, a) for a in e.args))
        return _EMPTY

    def expr_bases(self, e) -> frozenset:
        kind = type(e)
        if kind is EVar:
            return self.bases.get(e.name, _EMPTY)
        if kind is EBin and e.op in ("+", "-"):
            lb = self.expr_bases(e.left)
            rb = self.expr_bases(e.right)
            if lb and rb:
                return frozenset(("?",))
            return lb or rb
        if kind is ECast:
            return self.expr_bases(e.arg)
        return _EMPTY

    def transfer(self, env: dict, s) -> dict:
        """The flow transfer (see jamin.flow)."""
        kind = type(s)
        if kind is SAssign:
            self.leak(env, s.rhs, s.cond)
            if type(s.rhs) is ECall:
                callee = self.g.p.func(s.rhs.name)
                args = s.rhs.args
                results = _FnTaint(self.g, callee, [self.taint(env, a) for a in args],
                                   [self.expr_bases(a) for a in args]).run()
            else:
                t = self.taint(env, s.rhs)
                if s.cond is not None:  # the old value may survive
                    t |= env.get(s.dests[0].name, _EMPTY)
                    t |= self.taint(env, s.cond)  # selection is data flow, not a branch
                results = [(t, self.expr_bases(s.rhs))] * len(s.dests)
            for lv, (t, b) in zip(s.dests, results):
                self.leak(env, lv)  # read after the destinations before it are written
                self.assign(env, lv, t, b)
        elif kind is SDecl:
            for nm in s.names:
                env.pop(nm, None)
            self.leak(env, s)
            if s.init is not None:
                self.assign(env, EVar(s.names[0]), self.taint(env, s.init),
                            self.expr_bases(s.init))
        else:  # the test of an `if` or `while`, or a return
            self.leak(env, s)
            if kind is SReturn:
                self.results = [(self.taint(env, v), self.expr_bases(v)) for v in s.values]
        env[None] = self.g.version
        return env

    def assign(self, env: dict, lv, taint, bases):
        kind = type(lv)
        if kind is EVar:
            env[lv.name] = taint
            old = self.bases.get(lv.name, _EMPTY)
            if not bases <= old:
                self.bases[lv.name] = old | bases
                self.g.version += 1
        elif kind is EArr:  # as its read: the other elements keep their taint
            env[lv.name] = self.taint(env, lv) | taint
        elif kind is EMem:
            self.g.store_region(self.expr_bases(lv.addr), taint)


def infer_public(p: Program, entry: str) -> frozenset:
    """Sound over-approximation of the inputs that can reach the trace.

    Returns parameter names plus mem[<ptr>] tokens for memory regions
    whose contents can reach leaked expressions.  If the declared
    secrets avoid this set entirely, ct_check cannot find a witness.
    Raises interp.ContractViolation unless `p` is from expand.
    """
    interp.require_expanded(p, "infer_public")
    fn = p.func(entry)
    glob = _Taint(p)
    arg_taints = [frozenset((q.name,)) for q in fn.params]
    arg_bases = [frozenset((q.name,)) for q in fn.params]
    _FnTaint(glob, fn, arg_taints, arg_bases).run()
    return frozenset(glob.leaked)


def covered_by(inferred: frozenset, spec: PublicSpec) -> bool:
    """True when every leaking input is declared public: a parameter
    name in spec.public, a mem[<ptr>] token with <ptr> in
    spec.public_regions (no parameter name holds a `[`, and mem[?], an
    unknown region, is never covered)."""
    return inferred <= spec.public | {f"mem[{r}]" for r in spec.public_regions}
