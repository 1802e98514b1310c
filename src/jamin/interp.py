"""Executable semantics of expanded programs, with dynamic safety checks.

`run` is the one way to execute a program, and it takes only a program
that `expand` produced (see expand for what that guarantees); any other
raises ContractViolation.  It returns a RunResult of (results, memory,
steps): the entry's results, the final memory and the budget steps
consumed.  The vector representation (OPS or OPSV, see
isa) is an argument of each run, defaulting to OPSV; nothing about a
run is configured outside its arguments.

Runs are deterministic: the same program, arguments, memory and vector
mode produce bit-identical results, final memories, leakage traces and
step counts.
Every statement costs one unit of the step budget (loop iterations pay
per round), so non-terminating loops abort with BudgetExhausted.

Undefined values (never-assigned registers, architecturally undefined
flags) are poison: any use aborts with UninitializedUse.

Stack arrays live in the activation, never in the global memory; they
have value semantics (copied on function call, return and whole-array
assignment) and are disjoint from each other by construction.

When a trace list is supplied, execution appends leakage events in
order: ("addr", (a, ...)) for memory accesses and array indices and
("branch", b) for if/while conditions.

Each function is translated to Python source by codegen and compiled
the first time it runs.  The module below holds the run-time helpers
that generated code calls: memory accesses (_ld, _st), stack-array
accesses (_sget, _sput, _sld, _sst), reads that may find a value
unassigned or unbound (_uu, _arr), budget exhaustion (_bx), an else-if
arm's branch event (_br), the word operators it does not inline (_wbin
for a computed shift count, / and %; _nz for a divisor) and DIV
(_intr).  Register arrays need none: expand makes every index of one a
literal in bounds.  The memory helpers read and write the region a line
index names (see memory) and call Memory's methods only on a miss or to
find the fault to raise.  A 1-, 2-, 4- or 8-byte access, to memory or to
a stack array, goes through a precompiled struct codec (_CODECS): one
unpack_from or pack_into on the bytes and one on the init map, whose
written bytes hold 1, so that a span is written when its init word
unpacks to the all-ones constant; a region without an init map (every
byte written) skips the init step.  16- and 32-byte accesses slice the
bytes and search the init map for a 0.  Budget and trace bookkeeping
are batched per straight-line segment (see codegen); a run that
completes observes exactly the per-statement semantics above.  A run
that faults raises the error of the first faulting statement, except
that budget exhaustion is reported as soon as the segment holding the
exhausting statement starts, and the trace list then holds a prefix of
the events up to the fault.
"""

from __future__ import annotations

from struct import Struct
from typing import NamedTuple

from . import codegen
from . import memory as mem_mod
from .ir import ArrayTy, BoolTy, Program, WordTy
from .isa import IsaFault, OPS, OPSV, UNDEF
from .memory import LINE, Memory
from .words import MASK, Word, WordError

DEFAULT_BUDGET = 10**8


class SafetyError(Exception):
    def __init__(self, message: str, loc=None):
        self.loc = loc
        super().__init__(f"{loc[0]}:{loc[1]}: {message}" if loc else message)


class DivByZero(SafetyError):
    pass


class OutOfBoundsArray(SafetyError):
    def __init__(self, var, index, loc=None):
        self.var, self.index = var, index
        super().__init__(f"index {index} out of bounds for {var}", loc)


class UninitializedUse(SafetyError):
    def __init__(self, var, loc=None):
        self.var = var
        super().__init__(f"use of uninitialized {var}", loc)


class OutOfRegion(SafetyError):
    def __init__(self, address, loc=None):
        self.address = address
        super().__init__(f"access at 0x{address:x} outside declared regions", loc)


class BudgetExhausted(SafetyError):
    pass


class ContractViolation(SafetyError):
    pass


class StackArray:
    __slots__ = ("width", "length", "buf", "init")

    def __init__(self, width: int, length: int):
        self.width = width
        self.length = length
        nbytes = length * (width // 8)
        self.buf = bytearray(nbytes)
        self.init = bytearray(nbytes)

    def copy(self):
        c = StackArray.__new__(StackArray)
        c.width, c.length = self.width, self.length
        c.buf = bytearray(self.buf)
        c.init = bytearray(self.init)
        return c

    def fill(self, data: bytes):
        if len(data) != len(self.buf):
            raise ContractViolation(
                f"stack array takes {len(self.buf)} bytes, got {len(data)}"
            )
        self.buf[:] = data
        self.init[:] = b"\x01" * len(self.buf)


# ----------------------------------------------------- run-time helpers
#
# Generated code calls these; each takes the source location it reports
# faults at.  T is the trace list or None, K the constant-index events
# to add to it before the helper's own event.


class _Unbound:
    """A local read before any declaration bound it on this path."""

    def __repr__(self):
        return "NB"


NB = _Unbound()
_ONES = {n: b"\x01" * n for n in (16, 32)}


def _codec(n: int, code: str) -> tuple:
    """(unpack_from, pack_into, the word an all-written init map unpacks
    to, the value mask) of n-byte little-endian accesses."""
    s = Struct("<" + code)
    return s.unpack_from, s.pack_into, int.from_bytes(b"\x01" * n, "little"), MASK[8 * n]


_CODECS = {n: _codec(n, code) for n, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}


def _uu(value, name, loc):
    if value is NB:
        raise ContractViolation(f"unbound variable {name!r}", loc)
    raise UninitializedUse(name, loc)


def _arr(value, name, loc):
    if value is NB:
        raise ContractViolation(f"unbound variable {name!r}", loc)
    return value


def _bx(i, locs):
    raise BudgetExhausted("step budget exhausted", locs[i])


def _br(T, K, c):
    """Test value c of an else-if arm, its branch event recorded."""
    if T is not None:
        T += K
        T.append(_BT if c else _BF)
    return c


def _nz(b, loc):
    if b == 0:
        raise DivByZero("division by zero", loc)
    return b


def _wbin(f, a, b, loc):
    """f(a, b), a word operator from words.evaluator that codegen does
    not inline (a shift by a computed count, / and %), with its faults
    located."""
    try:
        return f(a, b)
    except WordError as exc:
        raise ContractViolation(str(exc), loc) from None
    except ZeroDivisionError:
        raise DivByZero("division by zero", loc) from None


def _ld(M, T, K, a, nbytes, loc):
    if T is not None:
        if K:
            T += K
        T.append(("addr", (a,)))
    i = M._lines.get(a >> LINE)
    while i is not None:  # the last region touching a's line, then earlier ones
        base, end, buf, init = M._regions[i]
        o = a - base
        if o >= 0:
            if a + nbytes <= end:
                c = _CODECS.get(nbytes)
                if c is None:
                    if init is None or init.find(0, o, o + nbytes) < 0:
                        return int.from_bytes(buf[o:o + nbytes], "little")
                elif init is None or c[0](init, o)[0] == c[2]:
                    return c[0](buf, o)[0]
            break
        i = i - 1 if i else None
    try:
        return M.load_int(a, nbytes * 8)
    except mem_mod.OutOfRegion as exc:
        raise OutOfRegion(exc.address, loc) from None
    except mem_mod.UninitializedRead as exc:
        raise UninitializedUse(f"memory byte 0x{exc.address:x}", loc) from None


def _st(M, T, K, v, a, nbytes, loc):
    if T is not None:
        if K:
            T += K
        T.append(("addr", (a,)))
    i = M._lines.get(a >> LINE)
    while i is not None:  # as in _ld
        base, end, buf, init = M._regions[i]
        o = a - base
        if o >= 0:
            if a + nbytes <= end:
                c = _CODECS.get(nbytes)
                if c is None:
                    buf[o:o + nbytes] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
                    if init is not None:
                        init[o:o + nbytes] = _ONES[nbytes]
                else:
                    c[1](buf, o, v & c[3])
                    if init is not None:
                        c[1](init, o, c[2])
                return
            break
        i = i - 1 if i else None
    try:
        M.store_int_inplace(a, nbytes * 8, v & MASK[nbytes * 8])
    except mem_mod.OutOfRegion as exc:
        raise OutOfRegion(exc.address, loc) from None


def _sget(arr, off, nbytes, name, loc):
    c = _CODECS.get(nbytes)
    if c is None:
        if arr.init.find(0, off, off + nbytes) < 0:
            return int.from_bytes(arr.buf[off:off + nbytes], "little")
    elif c[0](arr.init, off)[0] == c[2]:
        return c[0](arr.buf, off)[0]
    raise UninitializedUse(f"{name} bytes [{off}, {off + nbytes})", loc)


def _sput(arr, v, off, nbytes):
    c = _CODECS.get(nbytes)
    if c is None:
        arr.buf[off:off + nbytes] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
        arr.init[off:off + nbytes] = _ONES[nbytes]
    else:
        c[1](arr.buf, off, v & c[3])
        c[1](arr.init, off, c[2])


def _sld(T, K, arr, i, nbytes, scale, name, loc):
    off = i * scale
    end = off + nbytes
    if off < 0 or end > len(arr.buf):
        raise OutOfBoundsArray(name, i, loc)
    if T is not None:
        if K:
            T += K
        T.append(("addr", (i,)))
    c = _CODECS.get(nbytes)
    if c is None:
        if arr.init.find(0, off, end) < 0:
            return int.from_bytes(arr.buf[off:end], "little")
    elif c[0](arr.init, off)[0] == c[2]:
        return c[0](arr.buf, off)[0]
    raise UninitializedUse(f"{name} bytes [{off}, {end})", loc)


def _sst(T, K, arr, v, i, nbytes, scale, name, loc):
    off = i * scale
    end = off + nbytes
    if off < 0 or end > len(arr.buf):
        raise OutOfBoundsArray(name, i, loc)
    if T is not None:
        if K:
            T += K
        T.append(("addr", (i,)))
    c = _CODECS.get(nbytes)
    if c is None:
        arr.buf[off:end] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
        arr.init[off:end] = _ONES[nbytes]
    else:
        c[1](arr.buf, off, v & c[3])
        c[1](arr.init, off, c[2])


def _intr(sem, args, loc):
    try:
        return sem(args)
    except IsaFault as exc:
        raise DivByZero(str(exc), loc) from None


_BT, _BF = ("branch", True), ("branch", False)
_HELPERS = (_uu, _arr, _bx, _br, _nz, _wbin, _ld, _st, _sget, _sput, _sld, _sst, _intr)
_RUNTIME = {f.__name__: f for f in _HELPERS}
_RUNTIME.update(U=UNDEF, NB=NB, SA=StackArray, BT=_BT, BF=_BF)


# ------------------------------------------------------------- execution


def require_expanded(p: Program, user: str):
    """Raise ContractViolation unless `p` is a program from expand."""
    if not p.expanded:
        raise ContractViolation(f"{user} requires a program from expand")


def _namespace(p: Program) -> dict:
    """The globals of a program's generated code, cached on the program:
    run-time helpers, global arrays (lists of the literals expand wrote)
    and, per non-inline function, its compiled code (at first a stand-in
    that compiles it when called)."""
    ns = p._exec_ns
    if ns is None:
        ns = dict(_RUNTIME)
        ns["__consts__"] = {}
        for g in p.globals:
            ns["G_" + g.name] = [v.value for v in g.init]
        for fn in p.funcs:
            if not fn.inline:
                ns["F_" + fn.name] = _first_call(p, fn, ns)
        p._exec_ns = ns
    return ns


def _first_call(p, fn, ns):
    def call(*args):
        return codegen.compile_function(p, fn, ns)(*args)

    return call


def _bind_param(decl, value):
    ty = decl.ty
    if isinstance(ty, ArrayTy):
        n = ty.length
        if decl.storage == "stack":
            if isinstance(value, StackArray):
                return value.copy()
            arr = StackArray(ty.bits, n)
            if isinstance(value, (bytes, bytearray)):
                arr.fill(bytes(value))
            else:
                raise ContractViolation(f"stack array argument for {decl.name!r}")
            return arr
        if isinstance(value, (list, tuple)):
            if len(value) != n:
                raise ContractViolation(
                    f"{decl.name!r} takes {n} elements, got {len(value)}"
                )
            m = MASK[ty.bits]
            return [v.value if isinstance(v, Word) else (v & m) for v in value]
        raise ContractViolation(f"array argument expected for {decl.name!r}")
    if isinstance(ty, BoolTy):
        if not isinstance(value, bool):
            raise ContractViolation(f"bool argument expected for {decl.name!r}")
        return value
    if isinstance(ty, WordTy):
        if isinstance(value, Word):
            if value.width != ty.bits:
                raise ContractViolation(
                    f"{decl.name!r} is u{ty.bits}, got a u{value.width}"
                )
            return value.value
        if isinstance(value, int) and not isinstance(value, bool):
            return value & MASK[ty.bits]
    raise ContractViolation(f"cannot bind argument for {decl.name!r}")


def _to_runtime(v, ty):
    if isinstance(ty, WordTy):
        return Word(ty.bits, v)
    if isinstance(ty, ArrayTy):
        if isinstance(v, StackArray):
            return bytes(v.buf)
        return [Word(ty.bits, x) if x is not UNDEF else UNDEF for x in v]
    return v


class RunResult(NamedTuple):
    """What a run produces: the entry's results, the final memory and the
    number of budget steps the run consumed."""

    results: list
    memory: Memory
    steps: int


def run(
    p: Program,
    entry: str,
    args,
    mem: Memory,
    *,
    budget: int = DEFAULT_BUDGET,
    trace: list | None = None,
    vector_mode: str = OPSV,
) -> RunResult:
    """Run `entry` on `args` over a private copy of `mem`, with vector
    intrinsics in `vector_mode` (OPS or OPSV).

    Raises ContractViolation on a malformed call or a program that is
    not from expand, before anything runs, and a SafetyError subclass on any dynamic safety violation.
    """
    require_expanded(p, "run")
    fn = p.func(entry)
    if fn.inline:
        raise ContractViolation(f"{entry!r} is an inline function, not an entry point")
    if budget <= 0:
        raise ContractViolation("step budget must be positive")
    if vector_mode not in (OPS, OPSV):
        raise ContractViolation(f"unknown vector mode {vector_mode!r}")
    if len(args) != len(fn.params):
        raise ContractViolation(
            f"{entry} takes {len(fn.params)} arguments, got {len(args)}"
        )
    work = mem.thaw()
    bound = [_bind_param(d, a) for d, a in zip(fn.params, args)]
    code = _namespace(p)["F_" + fn.name]
    out = code(*bound, budget, trace, work, vector_mode == OPSV)
    rets = [_to_runtime(v, ty) for v, (_, ty) in zip(out[1:], fn.rets)]
    return RunResult(rets, work, budget - out[0])
