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
can influence the trace, by a flow-insensitive taint fixpoint over the
expanded program: if the secrets are disjoint from the returned set,
no witness can exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import interp
from .ir import (
    EArr,
    EBin,
    ECall,
    ECast,
    EInt,
    EIntr,
    EMem,
    EUn,
    EVar,
    LArr,
    LIgnore,
    LMem,
    LVar,
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

    def format(self, limit: int = 20) -> str:
        parts = []
        for kind, payload in self.events[:limit]:
            if kind == "addr":
                parts.append(f"LeakAddr {list(payload)}")
            else:
                parts.append(f"LeakBranch {payload}")
        if len(self.events) > limit:
            parts.append(f"... {len(self.events) - limit} more")
        return "; ".join(parts)


def run_instrumented(p: Program, entry: str, args, mem: Memory):
    """interp.run with leakage collection: (results, memory, LeakTrace)."""
    events: list = []
    results, final, _ = interp.run(p, entry, args, mem, trace=events)
    return results, final, LeakTrace(events)


# --------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Ptr:
    """Pointer parameter; `size` is a byte count or a length-param name."""

    size: object
    align: int = 1


@dataclass(frozen=True)
class Len:
    """Byte-length parameter, sampled in [0, max] with boundary corners."""

    max: int
    corners: tuple = (0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257)


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
    corners = [c for c in spec.corners if c <= spec.max]
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
            base += -base % s.align
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
    fn = p.func(entry)
    m = Memory()
    for name, (addr, size) in regions.items():
        m._add_region_inplace(addr, size)
        data = pub_contents.get(name)
        if data is None:
            data = secret.get(f"mem[{name}]", bytes(size))
        m.store_bytes_inplace(addr, data)
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
    def __init__(self, p: Program, entry: str):
        self.p = p
        self.entry = entry
        self.leaked: set = set()
        self.mem_stored: dict[str, frozenset] = {}
        self.version = 0

    # taint environments map variable names to frozensets of source
    # tokens (entry parameter names and mem[<ptr>] region tokens)

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
            new = old | taint
            if new != old:
                self.mem_stored[b] = new
                self.version += 1

    def leak(self, taint: frozenset):
        if not taint <= self.leaked:
            self.leaked.update(taint)
            self.version += 1


class _FnTaint:
    """Per-function taint environment; arrays are element-sensitive for
    compile-time indices and collapse to a single bucket otherwise."""

    def __init__(self, glob: _Taint, fn, arg_taints, arg_bases):
        self.g = glob
        self.fn = fn
        self.vars: dict[str, frozenset] = {}
        self.bases: dict[str, frozenset] = {}
        self.arrays: dict[str, dict] = {}
        for p, t, b in zip(fn.params, arg_taints, arg_bases):
            self.vars[p.name] = t
            self.bases[p.name] = b

    def var_taint(self, name) -> frozenset:
        return self.vars.get(name, _EMPTY)

    def var_bases(self, name) -> frozenset:
        return self.bases.get(name, _EMPTY)

    def arr(self, name) -> dict:
        a = self.arrays.get(name)
        if a is None:
            a = self.arrays[name] = {"elems": {}, "rest": _EMPTY}
        return a

    # -- expression taint

    def taint(self, e) -> frozenset:
        kind = type(e)
        if kind is EVar:
            return self.var_taint(e.name)
        if kind is EInt:
            return _EMPTY
        if kind is EBin:
            return self.taint(e.left) | self.taint(e.right)
        if kind is ECast or kind is EUn:
            return self.taint(e.arg)
        if kind is EArr:
            a = self.arr(e.name)
            idx_t = self.taint(e.index)
            self.g.leak(idx_t)
            if isinstance(e.index, EInt) and not e.byte_mode and e.width is None:
                elem = a["elems"].get(e.index.value, _EMPTY)
                return elem | a["rest"] | idx_t
            out = a["rest"] | idx_t
            for t in a["elems"].values():
                out |= t
            return out
        if kind is EMem:
            at = self.taint(e.addr)
            self.g.leak(at)
            return self.g.region_tokens(self.expr_bases(e.addr)) | at
        if kind is EIntr:
            out = _EMPTY
            for a in e.args:
                out |= self.taint(a)
            return out
        return _EMPTY

    def expr_bases(self, e) -> frozenset:
        kind = type(e)
        if kind is EVar:
            return self.var_bases(e.name)
        if kind is EBin and e.op in ("+", "-"):
            lb = self.expr_bases(e.left)
            rb = self.expr_bases(e.right)
            if lb and rb:
                return frozenset(("?",))
            return lb or rb
        if kind is ECast:
            return self.expr_bases(e.arg)
        return _EMPTY

    def set_var(self, name, taint, bases=_EMPTY):
        old = self.vars.get(name, _EMPTY)
        new = old | taint
        if new != old:
            self.vars[name] = new
            self.g.version += 1
        oldb = self.bases.get(name, _EMPTY)
        newb = oldb | bases
        if newb != oldb:
            self.bases[name] = newb
            self.g.version += 1

    def set_arr(self, name, index, byte_mode, width, taint):
        a = self.arr(name)
        idx_t = self.taint(index)
        self.g.leak(idx_t)
        taint = taint | idx_t
        if isinstance(index, EInt) and not byte_mode and width is None:
            i = index.value
            old = a["elems"].get(i, _EMPTY)
            if not taint <= old:
                a["elems"][i] = old | taint
                self.g.version += 1
        else:
            old = a["rest"]
            if not taint <= old:
                a["rest"] = old | taint
                self.g.version += 1

    # -- statements

    def walk(self, stmts):
        for s in stmts:
            self.stmt(s)

    def stmt(self, s):
        kind = type(s)
        if kind is SAssign:
            if isinstance(s.rhs, ECall):
                self.call(s)
                return
            if isinstance(s.rhs, EIntr) and len(s.dests) != 1:
                t = self.taint(s.rhs)
                for lv in s.dests:
                    self.assign(lv, t)
                return
            t = self.taint(s.rhs)
            if s.op:
                lv = s.dests[0]
                if isinstance(lv, LVar):
                    t |= self.var_taint(lv.name)
                elif isinstance(lv, LArr):
                    src = EArr(lv.name, lv.index, lv.width, lv.byte_mode)
                    t |= self.taint(src)
            if s.cond is not None:
                t |= self.taint(s.cond)  # selection is data flow, not a branch
            bases = (
                self.expr_bases(s.rhs)
                if isinstance(s.rhs, (EVar, EBin, ECast))
                else _EMPTY
            )
            for lv in s.dests:
                self.assign(lv, t, bases)
            return
        if kind is SDecl:
            if s.init is not None:
                for nm in s.names:
                    self.set_var(nm, self.taint(s.init), self.expr_bases(s.init))
            return
        if kind is SIf:
            self.g.leak(self.taint(s.cond))
            self.walk(s.then)
            self.walk(s.els)
            return
        if kind is SWhile:
            self.g.leak(self.taint(s.cond))
            self.walk(s.body)
            return
        if kind is SReturn:
            for v in s.values:
                self.taint(v)
            return
        raise TypeError(f"not a statement: {s!r}")

    def assign(self, lv, taint, bases=_EMPTY):
        if isinstance(lv, LIgnore):
            return
        if isinstance(lv, LVar):
            self.set_var(lv.name, taint, bases)
            return
        if isinstance(lv, LArr):
            self.set_arr(lv.name, lv.index, lv.byte_mode, lv.width, taint)
            return
        if isinstance(lv, LMem):
            at = self.taint(lv.addr)
            self.g.leak(at)
            self.g.store_region(self.expr_bases(lv.addr), taint)
            return
        raise TypeError(f"not an lvalue: {lv!r}")

    def call(self, s: SAssign):
        callee = self.g.p.func(s.rhs.name)
        arg_taints = [self.taint(a) for a in s.rhs.args]
        arg_bases = [self.expr_bases(a) for a in s.rhs.args]
        sub = _FnTaint(self.g, callee, arg_taints, arg_bases)
        ret_t, ret_b = sub.run()
        if ret_t is None:
            ret_t = [_EMPTY] * len(s.dests)
            ret_b = [_EMPTY] * len(s.dests)
        for lv, t, b in zip(s.dests, ret_t, ret_b):
            self.assign(lv, t, b)

    def run(self):
        # iterate to a fixpoint so loop-carried flows through variables
        # propagate regardless of statement order
        for _ in range(256):
            v0 = self.g.version
            self.walk(self.fn.body)
            if self.g.version == v0:
                break
        else:
            raise RuntimeError("taint analysis did not stabilize")
        for s in self.fn.body:
            if isinstance(s, SReturn):
                return (
                    [self.taint(v) for v in s.values],
                    [self.expr_bases(v) for v in s.values],
                )
        return None, None


def infer_public(p: Program, entry: str) -> frozenset:
    """Sound over-approximation of the inputs that can reach the trace.

    Returns parameter names plus mem[<ptr>] tokens for memory regions
    whose contents can reach leaked expressions.  If the declared
    secrets avoid this set entirely, ct_check cannot find a witness.
    Raises interp.ContractViolation unless `p` is from expand.
    """
    interp.require_expanded(p, "infer_public")
    fn = p.func(entry)
    glob = _Taint(p, entry)
    arg_taints = [frozenset((q.name,)) for q in fn.params]
    arg_bases = [frozenset((q.name,)) for q in fn.params]
    ft = _FnTaint(glob, fn, arg_taints, arg_bases)
    ft.run()
    tokens = set()
    param_names = {q.name for q in fn.params}
    for t in glob.leaked:
        if t in param_names or t.startswith("mem["):
            tokens.add(t)
    return frozenset(tokens)


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
