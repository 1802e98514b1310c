"""Leakage-instrumented execution and constant-time checking.

A leakage trace is the ordered list of events an attacker observing
addresses and control flow would see: every accessed memory address,
every array index (constant indices included, so traces align with the
instrumented-semantics reading), and every branch outcome.  A program
is constant-time for a given split of its inputs into public and secret
when any two runs that agree on the public part produce equal traces.

`ct_check` tests that property by paired sampling: per trial the public
inputs (and public memory) are drawn once and shared, the secret inputs
are drawn independently for the two runs with adversarial corners
(zero, all-ones, random), and the traces are compared event by event.

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
    SIf,
    SReturn,
    SWhile,
)
from .memory import Memory


# Leakage events are plain tuples for speed; these constructors give
# them stable names matching the instrumented-semantics reading.
def LeakAddr(*values: int) -> tuple:
    return ("addr", tuple(values))


def LeakBranch(taken: bool) -> tuple:
    return ("branch", taken)


@dataclass
class LeakTrace:
    events: list

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        if isinstance(other, LeakTrace):
            return self.events == other.events
        return self.events == other

    def first_divergence(self, other: "LeakTrace") -> int | None:
        a, b = self.events, other.events
        if a == b:  # every trial of a constant-time program
            return None
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return i
        if len(a) != len(b):
            return min(len(a), len(b))
        return None


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


def _sample_len(rng: random.Random, spec: Len) -> int:
    corners = [c for c in BOUNDARY_LENGTHS if c <= spec.max]
    if corners and rng.random() < 0.5:
        return rng.choice(corners)
    return rng.randrange(spec.max + 1)


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


def build_inputs(p: Program, entry: str, shape: dict, spec: PublicSpec,
                 rng: random.Random):
    """Sample one trial: shared public part plus two secret parts.

    Returns (public_env, secrets1, secrets2) where each secrets dict
    maps parameter names to values and pointer names to region bytes.
    """
    fn = p.func(entry)
    public: dict = {}
    lens: dict = {}
    base = 0x10000 + rng.randrange(0, 1 << 20)
    for name in (q.name for q in fn.params):
        s = shape[name]
        if isinstance(s, Len):
            v = _sample_len(rng, s)
            lens[name] = v
            if name in spec.public:
                public[name] = v
        elif isinstance(s, Ptr):
            pass
        elif isinstance(s, Val):
            if name in spec.public:
                public[name] = rng.getrandbits(s.width)
    regions: dict = {}
    for name in (q.name for q in fn.params):
        s = shape.get(name)
        if isinstance(s, Ptr):
            size = s.size if isinstance(s.size, int) else lens[s.size]
            regions[name] = (base, size)
            public[name] = base
            base += size + rng.randrange(16, 256)
    pub_contents = {
        name: rng.randbytes(size)
        for name, (addr, size) in regions.items()
        if name in spec.public_regions
    }

    def secrets():
        out = {}
        for q in fn.params:
            s = shape[q.name]
            if q.name in spec.public:
                continue
            if isinstance(s, Len):
                out[q.name] = lens[q.name]  # lengths are shared even when secret
            elif isinstance(s, Val):
                out[q.name] = _sample_secret_word(rng, s.width)
            elif isinstance(s, Ptr):
                out[q.name] = public.get(q.name)
        for name, (addr, size) in regions.items():
            if name not in spec.public_regions:
                out[f"mem[{name}]"] = _sample_secret_bytes(rng, size)
        return out

    return public, regions, pub_contents, secrets(), secrets()


def _materialize(p: Program, entry: str, public, regions, pub_contents, secret):
    """One run's arguments and memory: each region holds its public or
    secret bytes, so the memory is built whole (Memory.from_spans)."""
    fn = p.func(entry)
    spans = []
    for name, (addr, size) in regions.items():
        data = pub_contents.get(name)
        if data is None:
            data = secret.get(f"mem[{name}]", bytes(size))
        spans.append((addr, data))
    m = Memory.from_spans(spans)
    args = []
    for q in fn.params:
        if q.name in public:
            args.append(public[q.name])
        else:
            args.append(secret[q.name])
    return args, m


def ct_check(
    p: Program,
    entry: str,
    spec: PublicSpec,
    trials: int,
    seed: int,
    shape: dict,
) -> Verdict:
    """Two-run differential constant-time check."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for t in range(trials):
        public, regions, pub_contents, sec1, sec2 = build_inputs(
            p, entry, shape, spec, rng
        )
        traces = []
        for sec in (sec1, sec2):
            args, m = _materialize(p, entry, public, regions, pub_contents, sec)
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
            ev = (
                traces[0].events[pos] if pos < len(traces[0].events) else None,
                traces[1].events[pos] if pos < len(traces[1].events) else None,
            )
            return Verdict(
                kind="insecure",
                trials=t + 1,
                seed=seed,
                witness=Witness(
                    trial=t,
                    position=pos,
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
        self.results = None  # per result, its (taint, bases) joined over every return
        self.heads: dict = {}

    def run(self) -> list:
        """(taint, bases) of each result, empty when nothing returns."""
        flow.forward(self.fn.body, self.entry, self)
        return self.results or [(_EMPTY, _EMPTY)] * len(self.fn.rets)

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
        every local's bases) at None, the leaked tokens and the results."""
        return {n: t for n, t in env.items() if n not in private}, len(self.g.leaked), self.results

    def refine(self, env: dict, cond, taken) -> dict:
        return env

    def join(self, key, a: dict, b: dict) -> dict:
        a = dict(a)
        for name, t in b.items():
            a[name] = max(a[name], t) if name is None else a.get(name, _EMPTY) | t
        return a

    def taint(self, env: dict, e) -> frozenset:
        kind = type(e)
        if kind is EVar:
            return env.get(e.name, _EMPTY)
        if kind is EBin:
            return self.taint(env, e.left) | self.taint(env, e.right)
        if kind is ECast or kind is EUn:
            return self.taint(env, e.arg)
        if kind is EArr:
            idx_t = self.taint(env, e.index)
            self.g.leaked.update(idx_t)
            return env.get(e.name, _EMPTY) | idx_t
        if kind is EMem:
            at = self.taint(env, e.addr)
            self.g.leaked.update(at)
            return self.g.region_tokens(self.expr_bases(e.addr)) | at
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
            if type(s.rhs) is ECall:
                callee = self.g.p.func(s.rhs.name)
                args = s.rhs.args
                results = _FnTaint(self.g, callee, [self.taint(env, a) for a in args],
                                   [self.expr_bases(a) for a in args]).run()
            else:
                t = self.taint(env, s.rhs)
                if (s.op or s.cond is not None) and type(s.dests[0]) is EVar:
                    t |= env.get(s.dests[0].name, _EMPTY)  # the old value may survive
                if s.cond is not None:
                    t |= self.taint(env, s.cond)  # selection is data flow, not a branch
                results = [(t, self.expr_bases(s.rhs))] * len(s.dests)
            for lv, (t, b) in zip(s.dests, results):
                self.assign(env, lv, t, b)
        elif kind is SDecl:
            for nm in s.names:
                env.pop(nm, None)
            if s.init is not None:
                self.assign(env, EVar(s.names[0]), self.taint(env, s.init),
                            self.expr_bases(s.init))
        elif kind is SIf or kind is SWhile:
            self.g.leaked.update(self.taint(env, s.cond))
        elif kind is SReturn:
            out = [(self.taint(env, v), self.expr_bases(v)) for v in s.values]
            if self.results is not None:
                out = [(t | t0, b | b0) for (t, b), (t0, b0) in zip(out, self.results)]
            self.results = out
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
        elif kind is EArr:  # as its read: the index leaks, the other elements keep their taint
            env[lv.name] = self.taint(env, lv) | taint
        elif kind is EMem:
            at = self.taint(env, lv.addr)
            self.g.leaked.update(at)
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
    """True when every leaking input is declared public."""
    for t in inferred:
        if t.startswith("mem["):
            name = t[4:-1]
            if name != "?" and name in spec.public_regions:
                continue
            return False
        if t not in spec.public:
            return False
    return True
