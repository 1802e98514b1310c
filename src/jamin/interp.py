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
the first time it runs; the module below holds the run-time helpers
that generated code calls for memory and stack-array accesses,
intrinsics and faults; the memory helpers slice the region a line index
names (see memory) and call Memory's methods only on a miss or to find
the fault to raise.  Budget and trace bookkeeping are batched per
straight-line segment (see codegen); a run that completes observes
exactly the per-statement semantics above.  A run that faults raises
the error of the first faulting statement, except that budget
exhaustion is reported as soon as the segment holding the exhausting
statement starts, and the trace list then holds a prefix of the events
up to the fault.
"""

from __future__ import annotations

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
_ONES = {n: b"\x01" * n for n in (1, 2, 4, 8, 16, 32)}


def _uu(value, name, loc):
    if value is NB:
        raise ContractViolation(f"unbound variable {name!r}", loc)
    raise UninitializedUse(name, loc)


def _arr(value, name, loc):
    if value is NB:
        raise ContractViolation(f"unbound variable {name!r}", loc)
    return value


def _contract(message, loc):
    raise ContractViolation(message, loc)


def _oob(name, index, loc):
    raise OutOfBoundsArray(name, index, loc)


def _bx(i, locs):
    raise BudgetExhausted("step budget exhausted", locs[i])


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
            if a + nbytes <= end and init.find(0, o, o + nbytes) < 0:
                return int.from_bytes(buf[o:o + nbytes], "little")
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
                buf[o:o + nbytes] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
                init[o:o + nbytes] = _ONES[nbytes]
                return
            break
        i = i - 1 if i else None
    try:
        M.store_int_inplace(a, nbytes * 8, v & MASK[nbytes * 8])
    except mem_mod.OutOfRegion as exc:
        raise OutOfRegion(exc.address, loc) from None


def _rld(T, K, arr, i, name, loc):
    if not 0 <= i < len(arr):
        raise OutOfBoundsArray(name, i, loc)
    if T is not None:
        if K:
            T += K
        T.append(("addr", (i,)))
    v = arr[i]
    if v is UNDEF:
        raise UninitializedUse(f"{name}[{i}]", loc)
    return v


def _rst(T, K, arr, v, i, bits, name, loc):
    if not 0 <= i < len(arr):
        raise OutOfBoundsArray(name, i, loc)
    if T is not None:
        if K:
            T += K
        T.append(("addr", (i,)))
    arr[i] = v & MASK[bits]


def _sget(arr, off, nbytes, name, loc):
    end = off + nbytes
    if arr.init.find(0, off, end) >= 0:
        raise UninitializedUse(f"{name} bytes [{off}, {end})", loc)
    return int.from_bytes(arr.buf[off:end], "little")


def _sput(arr, v, off, nbytes):
    end = off + nbytes
    arr.buf[off:end] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
    arr.init[off:end] = _ONES[nbytes]


def _sld(T, K, arr, i, nbytes, scale, name, loc):
    off = i * scale
    end = off + nbytes
    if off < 0 or end > len(arr.buf):
        raise OutOfBoundsArray(name, i, loc)
    if T is not None:
        if K:
            T += K
        T.append(("addr", (i,)))
    if arr.init.find(0, off, end) >= 0:
        raise UninitializedUse(f"{name} bytes [{off}, {end})", loc)
    return int.from_bytes(arr.buf[off:end], "little")


def _sst(T, K, arr, v, i, nbytes, scale, name, loc):
    off = i * scale
    end = off + nbytes
    if off < 0 or end > len(arr.buf):
        raise OutOfBoundsArray(name, i, loc)
    if T is not None:
        if K:
            T += K
        T.append(("addr", (i,)))
    arr.buf[off:end] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
    arr.init[off:end] = _ONES[nbytes]


def _intr(sem, args, loc):
    try:
        return sem(args)
    except IsaFault as exc:
        raise DivByZero(str(exc), loc) from None


_HELPERS = (_uu, _arr, _contract, _oob, _bx, _nz, _wbin, _ld, _st,
            _rld, _rst, _sget, _sput, _sld, _sst, _intr)
_RUNTIME = {f.__name__: f for f in _HELPERS}
_RUNTIME.update(U=UNDEF, NB=NB, SA=StackArray, BT=("branch", True), BF=("branch", False))


# ------------------------------------------------------------- execution


def require_expanded(p: Program, user: str):
    """Raise ContractViolation unless `p` is a program from expand."""
    if not getattr(p, "expanded", False):
        raise ContractViolation(f"{user} requires a program from expand")


def _global_values(p: Program) -> dict:
    """The literals expand wrote for the globals: a list per array."""
    return {g.name: [v.value for v in g.init] if isinstance(g.init, tuple) else g.init.value
            for g in p.globals}


def _namespace(p: Program) -> dict:
    """The globals of a program's generated code, cached on the program:
    run-time helpers, global values and, per non-inline function, its
    compiled code (at first a stand-in that compiles it when called)."""
    ns = getattr(p, "_exec_ns", None)
    if ns is None:
        ns = dict(_RUNTIME)
        ns["__consts__"] = {}
        for name, value in _global_values(p).items():
            ns["G_" + name] = value
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
