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
flags) are poison: any use aborts with UninitializedUse.  Typecheck
scopes each local to its block, so every read of a local follows its
declaration and finds a value or that poison.

Stack arrays live in the activation, never in the global memory; they
have value semantics (copied on function call, return and whole-array
assignment) and are disjoint from each other by construction.

When a trace list is supplied, execution appends the event of each row
of the leakage table (ir.leaks) it runs, in order (see leakage for why
events need no tag).

Each function is translated to Python source by codegen and compiled
the first time it runs.  The module below holds the run-time helpers
that generated code calls, each recording its row's event if it has one:
memory accesses (_ld, _st), stack-array accesses (_sld, _sst), a word
/ or % whose divisor _nz has checked (_dv), DIV (_intr) and an else-if
arm's test (_ev, which the two before call); and the fault of a read that
finds a value unassigned (_uu), budget exhaustion (_bx) and a computed
shift (_wbin).
Register arrays need none: expand makes every index of one a literal
in bounds, and codegen makes each element a Python local.  Generated
code makes the hit of each memory or stack-array access of 1, 2, 4 or
8 bytes itself (see codegen), through the struct codecs of _CODECS,
named LD<n> and ST<n> in its namespace, or a byte subscript; the
access helpers are its miss path and the whole of every 16- or 32-byte
access, and each is a complete access.
The stack-array helpers check the index against the last one in bounds,
which codegen passes them from ir.span, slice the bytes and search
the init map for a 0; a constant-index miss calls them with no trace,
its event being in the batch already.  The memory helpers record the
event and access through Memory's load_span and store_bytes_inplace,
which alone find the region (see memory) and raise the fault of an
access outside every region or of an unwritten byte; the helpers
locate that fault.  Budget and trace bookkeeping are batched per
straight-line segment (see codegen); a run that completes observes
exactly the per-statement semantics above.  A run that faults raises
the error of the first faulting statement, except that budget
exhaustion is reported as soon as the segment holding the exhausting
statement starts, and the trace list then holds a prefix of the events
up to the fault.
"""

from __future__ import annotations

from struct import Struct
from typing import NamedTuple

from . import codegen
from . import memory as mem_mod
from .ir import ArrayTy, BoolTy, Program, WordTy
from .isa import IsaFault, OPS, OPSV, UNDEF
from .memory import Memory
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
    __slots__ = ("buf", "init")

    def __init__(self, width: int, length: int):
        nbytes = length * (width // 8)
        self.buf = bytearray(nbytes)
        self.init = bytearray(nbytes)

    def copy(self):
        c = StackArray.__new__(StackArray)
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


_ONES = {n: b"\x01" * n for n in (1, 2, 4, 8, 16, 32)}

# The struct codecs of the 2-, 4- and 8-byte hit paths codegen emits,
# named LD<n> (unpack_from) and ST<n> (pack_into) in generated code
_CODECS = {n: Struct("<" + code) for n, code in ((2, "H"), (4, "I"), (8, "Q"))}


def _uu(name, loc):
    raise UninitializedUse(name, loc)


def _bx(i, locs):
    raise BudgetExhausted("step budget exhausted", locs[i])


def _ev(T, K, v):
    """v, recorded as an event after the batch K: the test value of an
    else-if arm or the operands of a division."""
    if T is not None:
        T += K
        T.append(v)
    return v


def _nz(b, loc):
    if b == 0:
        raise DivByZero("division by zero", loc)
    return b


def _wbin(f, a, b, loc):
    """f(a, b), a shift by a computed count from words.evaluator, with
    its fault located."""
    try:
        return f(a, b)
    except WordError as exc:
        raise ContractViolation(str(exc), loc) from None


def _dv(T, K, f, b, a):
    """f(a, b), a word / or % whose divisor b passed _nz, its event recorded."""
    return f(*_ev(T, K, (a, b)))


def _ld(M, T, K, a, nbytes, loc):
    if T is not None:
        if K:
            T += K
        T.append(a)
    try:
        return int.from_bytes(M.load_span(a, nbytes, highest_first=True), "little")
    except mem_mod.OutOfRegion as exc:
        raise OutOfRegion(exc.address, loc) from None
    except mem_mod.UninitializedRead as exc:
        raise UninitializedUse(f"memory byte 0x{exc.address:x}", loc) from None


def _st(M, T, K, v, a, nbytes, loc):
    if T is not None:
        if K:
            T += K
        T.append(a)
    try:
        M.store_bytes_inplace(a, (v & MASK[nbytes * 8]).to_bytes(nbytes, "little"))
    except mem_mod.OutOfRegion as exc:
        raise OutOfRegion(exc.address, loc) from None


def _sld(T, K, arr, i, nbytes, scale, last, name, loc):
    if not 0 <= i <= last:
        raise OutOfBoundsArray(name, i, loc)
    off = i * scale
    end = off + nbytes
    if T is not None:
        if K:
            T += K
        T.append(i)
    if arr.init.find(0, off, end) < 0:
        return int.from_bytes(arr.buf[off:end], "little")
    raise UninitializedUse(f"{name} bytes [{off}, {end})", loc)


def _sst(T, K, arr, v, i, nbytes, scale, last, name, loc):
    if not 0 <= i <= last:
        raise OutOfBoundsArray(name, i, loc)
    off = i * scale
    end = off + nbytes
    if T is not None:
        if K:
            T += K
        T.append(i)
    arr.buf[off:end] = (v & MASK[nbytes * 8]).to_bytes(nbytes, "little")
    arr.init[off:end] = _ONES[nbytes]


def _intr(T, K, sem, args, loc):
    try:
        out = sem(args)
    except IsaFault as exc:
        raise DivByZero(str(exc), loc) from None
    _ev(T, K, tuple(args))
    return out


_HELPERS = (_uu, _bx, _ev, _nz, _wbin, _dv, _ld, _st, _sld, _sst, _intr)
_RUNTIME = {f.__name__: f for f in _HELPERS}
_RUNTIME.update(U=UNDEF, SA=StackArray)
_RUNTIME.update({f"LD{n}": c.unpack_from for n, c in _CODECS.items()})
_RUNTIME.update({f"ST{n}": c.pack_into for n, c in _CODECS.items()})


# ------------------------------------------------------------- execution


def require_expanded(p: Program, user: str):
    """Raise ContractViolation unless `p` is a program from expand."""
    if not p.expanded:
        raise ContractViolation(f"{user} requires a program from expand")


def _namespace(p: Program) -> dict:
    """The globals of a program's generated code, cached on the program:
    run-time helpers, global arrays (lists of the literals expand wrote)
    and, per non-inline function, its compiled code (at first a stand-in
    that compiles it when called).  Beside them, `__entries__` maps the
    name of each non-inline function to its declaration, which `run`
    looks its entry up in."""
    ns = p._exec_ns
    if ns is None:
        ns = dict(_RUNTIME)
        ns["__consts__"] = {}
        ns["__entries__"] = entries = {}
        for g in p.globals:
            ns["G_" + g.name] = [v.value for v in g.init]
        for fn in p.funcs:
            if not fn.inline:
                ns["F_" + fn.name] = _first_call(p, fn, ns)
                entries[fn.name] = fn
        p._exec_ns = ns
    return ns


def _first_call(p, fn, ns):
    def call(*args):
        return codegen.compile_function(p, fn, ns)(*args)

    return call


def _bind_param(decl, value):
    ty = decl.ty
    if type(value) is int and type(ty) is WordTy:  # the common case: a word from an int
        return value & MASK[ty.bits]
    if isinstance(ty, ArrayTy):
        n = ty.length
        if decl.storage == "stack":
            if not isinstance(value, (bytes, bytearray)):
                raise ContractViolation(f"stack array argument for {decl.name!r}")
            arr = StackArray(ty.bits, n)
            arr.fill(bytes(value))
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
    ns = _namespace(p)
    fn = ns["__entries__"].get(entry)
    if fn is None:  # expand leaves out every inline function
        raise ContractViolation(f"no entry function {entry!r} (inline functions are expanded away)")
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
    code = ns["F_" + entry]
    out = code(*bound, budget, trace, work, vector_mode == OPSV)
    rets = [_to_runtime(v, ty) for v, (_, ty) in zip(out[1:], fn.rets)]
    return RunResult(rets, work, budget - out[0])
