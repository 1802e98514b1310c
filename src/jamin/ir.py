"""Typed AST of the DSL.

Nodes are slotted dataclasses compared structurally.  Their side
attributes are slots outside the constructor, equality and repr, and
every node has them (None until set): the source location `loc`, the
static type `ty` of an expression or destination, the storage and type of
the array an access names (`arr_storage`, `arr_ty`), a function's
`envtypes`, a program's `typed`/`expanded` marks and the code interp
compiled for it (`_exec_ns`).  No node carries a `__dict__`.

A destination (`Lval`) is the node of the access that reads the place
it writes, as in the source: an EVar, an EArr or an EMem, or LIgnore
for `_`.

Types are immutable values shared by every node: one WordTy per width
(`word_ty`), one BoolTy (`BOOL`) and one IntTy (`INT`), as in
hash-consing (Filliatre and Conchon, ML Workshop 2006); `==` and
`isinstance` work on them as on any value.

`print_program` is the canonical formatter: parse(print_program(parse(text)))
equals parse(text).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Union

from .isa import lookup

# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class BoolTy:
    def __str__(self):
        return "bool"

    def __reduce__(self):  # copies and pickles are the shared value
        return "BOOL"


@dataclass(frozen=True)
class IntTy:
    """Compile-time unbounded integer (inline-only)."""

    def __str__(self):
        return "int"

    def __reduce__(self):
        return "INT"


@dataclass(frozen=True)
class WordTy:
    bits: int

    def __str__(self):
        return f"u{self.bits}"

    def __reduce__(self):
        return word_ty, (self.bits,)


@dataclass(frozen=True)
class ArrayTy:
    bits: int
    length: object  # Expr before expansion, int after

    def __str__(self):
        return f"u{self.bits}[{fmt_expr(self.length) if not isinstance(self.length, int) else self.length}]"


Ty = Union[BoolTy, IntTy, WordTy, ArrayTy]

BOOL = BoolTy()
INT = IntTy()


@functools.cache
def word_ty(bits: int) -> WordTy:
    """The one WordTy of `bits` bits."""
    return WordTy(bits)


STORAGE_CLASSES = ("reg", "stack", "inline", "global")

# ---------------------------------------------------------------- nodes


def _side(default=None):
    """A side attribute: a slot outside the constructor, equality and repr."""
    return field(default=default, init=False, repr=False, compare=False)


@dataclass(slots=True)
class _Node:
    loc: Optional[tuple] = _side()  # (line, column) in the source


@dataclass(slots=True)
class _Typed(_Node):
    """An expression or destination: typecheck sets `ty` (None on a call)."""

    ty: Optional[Ty] = _side()


@dataclass(slots=True)
class _Access(_Typed):
    """An array access: typecheck sets the storage and type of the array."""

    arr_storage: Optional[str] = _side()
    arr_ty: Optional[ArrayTy] = _side()

# ----------------------------------------------------------- expressions


@dataclass(slots=True)
class EInt(_Typed):
    value: int


@dataclass(slots=True)
class EBool(_Typed):
    value: bool


@dataclass(slots=True)
class EVar(_Typed):
    name: str


@dataclass(slots=True)
class EArr(_Access):
    """Array read: x[i], (uW)x[i] (element view) or (uW)x.[i] (byte view)."""

    name: str
    index: "Expr"
    width: Optional[int] = None
    byte_mode: bool = False


@dataclass(slots=True)
class EMem(_Typed):
    """Memory load [addr]; width defaults to 64 when not annotated."""

    addr: "Expr"
    width: Optional[int] = None


@dataclass(slots=True)
class EUn(_Typed):
    op: str  # ! ~ -
    arg: "Expr"


@dataclass(slots=True)
class EBin(_Typed):
    op: str
    left: "Expr"
    right: "Expr"
    lanes: Optional[tuple[int, int]] = None  # (n, m) for e.g. +4u64


@dataclass(slots=True)
class EIntr(_Typed):
    name: str  # without the leading '#'
    args: tuple


@dataclass(slots=True)
class ECall(_Typed):
    name: str
    args: tuple


@dataclass(slots=True)
class EVecImm(_Typed):
    """Immediate vector (NuM)[v0, ...]: v0 in the least significant bits."""

    n: int
    m: int
    values: tuple


@dataclass(slots=True)
class ECast(_Typed):
    """Zero-extending / truncating resize to `width` bits."""

    width: int
    arg: "Expr"


Expr = Union[EInt, EBool, EVar, EArr, EMem, EUn, EBin, EIntr, ECall, EVecImm, ECast]


def int_value(e) -> int:
    """A literal's value, reduced modulo its width when it is a typed word."""
    ty = e.ty
    return e.value & ((1 << ty.bits) - 1) if type(ty) is WordTy else e.value


def span(access) -> tuple:
    """(bytes, scale, last) of a typed memory or array access: the bytes
    it covers, those between its consecutive indices (an element view
    steps by its width, a byte view and memory by 1), and the last index
    at which it lies inside its array (None in memory; negative when no
    index does).  An index i is in bounds exactly when 0 <= i <= last."""
    nb = access.ty.bits // 8
    if type(access) is EMem:
        return nb, 1, None
    ty = access.arr_ty
    scale = 1 if access.byte_mode else nb
    return nb, scale, (ty.length * ty.bits // 8 - nb) // scale

# ---------------------------------------------------------- destinations


@dataclass(slots=True)
class LIgnore(_Typed):
    """The destination `_`: the value is computed and dropped."""


Lval = Union[EVar, EArr, EMem, LIgnore]

# ------------------------------------------------------------ statements


@dataclass(slots=True)
class VarDecl(_Node):
    storage: str
    ty: Ty
    name: str


@dataclass(slots=True)
class SDecl(_Node):
    storage: str
    ty: Ty
    names: tuple
    init: Optional[Expr] = None


@dataclass(slots=True)
class SAssign(_Node):
    dests: tuple  # of Lval; empty for a bare call statement
    rhs: Expr  # the parser writes `d op= e` as `d = d op e`
    cond: Optional[Expr] = None  # `x = e if c;`


@dataclass(slots=True)
class SIf(_Node):
    cond: Expr
    then: tuple
    els: tuple


@dataclass(slots=True)
class SWhile(_Node):
    cond: Expr
    body: tuple


@dataclass(slots=True)
class SFor(_Node):
    """Unrollable loop; iterates var = lo, lo+1, ..., hi (inclusive)."""

    var: str
    lo: Expr
    hi: Expr
    body: tuple


@dataclass(slots=True)
class SRepeat(_Node):
    """The loop of the expanded language: `body` run `count` times, where
    iteration j is `body` with each local of `names` renamed to
    names[local][j] (see expand).  Printed `repeat <count> { ... }`."""

    count: int
    body: tuple
    names: dict  # local inlining declared in the body -> its name per iteration


@dataclass(slots=True)
class SReturn(_Node):
    values: tuple


Stmt = Union[SDecl, SAssign, SIf, SWhile, SFor, SRepeat, SReturn]


def blocks(s) -> tuple:
    """The blocks statement s holds: (then, els) of an `if`, (body,) of a
    `while`, `for` or repeat node, () of any other statement."""
    k = type(s)
    if k is SIf:
        return s.then, s.els
    if k is SWhile or k is SFor or k is SRepeat:
        return (s.body,)
    return ()


def walk(stmts):
    """Every statement of `stmts`, those in blocks included, in pre-order:
    a statement before the ones it holds, a then arm before its else arm."""
    for s in stmts:
        yield s
        for b in blocks(s):
            yield from walk(b)

# ---------------------------------------------------------- leakage

# The leakage table: the event a run records for each construct an
# observer sees, as its kind and the operands whose values it holds.
#   memory access [a]                        "addr", a: an int
#   array access x[i], constant i included   "addr", i: an int
#   test c of an if, while or else-if arm    "branch", c: a bool
#   word / or %, #x86_DIV                    "division", every operand: a tuple
# Both operands of a division leak: a variable-time divider's time
# depends on its dividend too (KyberSlash, Bernstein et al. 2024).
EVENT_KINDS = {int: "addr", bool: "branch", tuple: "division"}  # an event's type -> its kind


def leaks(x, out=None) -> list:
    """The rows of the leakage table in x, an expression, destination or
    statement (not the blocks it holds), as (construct, kind, operands)."""
    if out is None:
        out = []
    k = type(x)
    if k is EVar or k is EInt or x is None:
        return out
    if k is SAssign:
        for e in (x.rhs, x.cond, *x.dests):
            leaks(e, out)
    elif k is EBin:
        if x.op == "/" or x.op == "%":
            out.append((x, "division", (x.left, x.right)))
        leaks(x.left, out)
        leaks(x.right, out)
    elif k is EMem or k is EArr:
        at = x.addr if k is EMem else x.index
        out.append((x, "addr", (at,)))
        leaks(at, out)
    elif k is EIntr or k is ECall:
        if k is EIntr and lookup(x.name).mnemonic == "DIV":
            out.append((x, "division", x.args))
        for a in x.args:
            leaks(a, out)
    elif k is EUn or k is ECast:
        leaks(x.arg, out)
    elif k is SIf or k is SWhile:
        out.append((x, "branch", (x.cond,)))
        leaks(x.cond, out)
    elif k is SDecl or k is SReturn:
        for e in (x.init,) if k is SDecl else x.values:
            leaks(e, out)
    return out

# ------------------------------------------------------------- toplevel


@dataclass(slots=True)
class ParamDecl(_Node):
    name: str
    value: Expr


@dataclass(slots=True)
class GlobalDecl(_Node):
    name: str
    ty: Ty
    init: object  # Expr, or tuple of Expr for arrays


@dataclass(slots=True)
class FuncDecl(_Node):
    name: str
    inline: bool
    params: tuple  # of VarDecl
    rets: tuple  # of (storage, Ty)
    body: tuple
    envtypes: Optional[dict] = _side()  # every local and parameter -> (storage, Ty)


@dataclass(slots=True)
class Program:
    params: tuple  # of ParamDecl
    globals: tuple  # of GlobalDecl
    funcs: tuple  # of FuncDecl
    typed: bool = _side(False)
    expanded: bool = _side(False)
    _exec_ns: Optional[dict] = _side()  # interp's compiled functions

    def func(self, name: str) -> FuncDecl:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def func_names(self) -> list[str]:
        return [f.name for f in self.funcs]


# ---------------------------------------------------------- formatting

_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    "<<": 8,
    ">>": 8,
    "<<r": 8,
    ">>r": 8,
    ">>s": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


def _fmt_int(v: int) -> str:
    return str(v) if -65536 < v < 65536 else hex(v)


def op_text(op: str, lanes) -> str:
    return f"{op}{lanes[0]}u{lanes[1]}" if lanes else op


def fmt_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, EInt):
        return _fmt_int(e.value)
    if isinstance(e, EBool):
        return "true" if e.value else "false"
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EArr):
        idx = fmt_expr(e.index)
        dot = "." if e.byte_mode else ""
        if e.width is None:
            return f"{e.name}{dot}[{idx}]"
        return f"(u{e.width}){e.name}{dot}[{idx}]"
    if isinstance(e, EMem):
        w = f"(u{e.width})" if e.width is not None else ""
        return f"{w}[{fmt_expr(e.addr)}]"
    if isinstance(e, EUn):
        return f"{e.op}{fmt_expr(e.arg, 99)}"
    if isinstance(e, EBin):
        p = _PREC[e.op]
        s = f"{fmt_expr(e.left, p)} {op_text(e.op, e.lanes)} {fmt_expr(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, EIntr):
        return f"#{e.name}(" + ", ".join(fmt_expr(a) for a in e.args) + ")"
    if isinstance(e, ECall):
        return f"{e.name}(" + ", ".join(fmt_expr(a) for a in e.args) + ")"
    if isinstance(e, EVecImm):
        return f"({e.n}u{e.m})[" + ", ".join(fmt_expr(v) for v in e.values) + "]"
    if isinstance(e, ECast):
        return f"(u{e.width})({fmt_expr(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


def _fmt_block(stmts, indent: int) -> list[str]:
    out = []
    pad = "  " * indent
    for s in stmts:
        out.extend(_fmt_stmt(s, indent, pad))
    return out


def _fmt_stmt(s: Stmt, indent: int, pad: str) -> list[str]:
    if isinstance(s, SDecl):
        init = f" = {fmt_expr(s.init)}" if s.init is not None else ""
        return [f"{pad}{s.storage} {s.ty} {', '.join(s.names)}{init};"]
    if isinstance(s, SAssign):
        rhs = fmt_expr(s.rhs)
        guard = f" if {fmt_expr(s.cond)}" if s.cond is not None else ""
        if not s.dests:
            return [f"{pad}{rhs};"]
        dests = ", ".join("_" if type(d) is LIgnore else fmt_expr(d) for d in s.dests)
        return [f"{pad}{dests} = {rhs}{guard};"]
    if isinstance(s, SIf):
        out = [f"{pad}if ({fmt_expr(s.cond)}) {{"]
        out += _fmt_block(s.then, indent + 1)
        if len(s.els) == 1 and isinstance(s.els[0], SIf):  # an else-if arm
            arm = _fmt_stmt(s.els[0], indent, pad)
            return out + [f"{pad}}} else {arm[0].lstrip()}"] + arm[1:]
        if s.els:
            out.append(f"{pad}}} else {{")
            out += _fmt_block(s.els, indent + 1)
        out.append(f"{pad}}}")
        return out
    if isinstance(s, (SWhile, SFor, SRepeat)):
        if isinstance(s, SWhile):
            head = f"while ({fmt_expr(s.cond)})"
        elif isinstance(s, SFor):
            head = f"for {s.var} = {fmt_expr(s.lo)} to {fmt_expr(s.hi)}"
        else:
            head = f"repeat {s.count}"
        return [f"{pad}{head} {{", *_fmt_block(s.body, indent + 1), f"{pad}}}"]
    if isinstance(s, SReturn):
        vals = ", ".join(fmt_expr(v) for v in s.values)
        return [f"{pad}return{' ' + vals if vals else ''};"]
    raise TypeError(f"not a statement: {s!r}")


def print_program(p: Program) -> str:
    lines = []
    for pd in p.params:
        lines.append(f"param int {pd.name} = {fmt_expr(pd.value)};")
    for g in p.globals:
        if isinstance(g.init, tuple):
            init = "{" + ", ".join(fmt_expr(v) for v in g.init) + "}"
        else:
            init = fmt_expr(g.init)
        lines.append(f"global {g.ty} {g.name} = {init};")
    for f in p.funcs:
        if lines:
            lines.append("")
        kw = "inline fn" if f.inline else "fn"
        args = ", ".join(f"{a.storage} {a.ty} {a.name}" for a in f.params)
        rets = ""
        if f.rets:
            rets = " -> " + ", ".join(f"{st} {t}" for st, t in f.rets)
        lines.append(f"{kw} {f.name}({args}){rets} {{")
        lines += _fmt_block(f.body, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"
