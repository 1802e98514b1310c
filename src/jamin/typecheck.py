"""Type checking and width resolution.

Every expression receives a static type (`e.ty`); operator arguments
wider or narrower than the operator width get an explicit resize cast
inserted, and every assignment destination fixes the width of its
right-hand side, which is how assignment truncation becomes explicit.

Storage rules enforced here: register arrays are indexed only by
compile-time expressions, views and byte views exist only on stack
arrays, globals are never written, inline variables are compile-time
integers, computed at the unbounded width, so without lane operators.

Types are the shared values of `ir` (`word_ty`, `BOOL`, `INT`).  A
build typechecks once, the source program: expand types the nodes it
creates itself (see its docstring).
"""

from __future__ import annotations

from . import isa, words
from .ir import (
    BOOL,
    INT,
    ArrayTy,
    BoolTy,
    EArr,
    EBin,
    EBool,
    ECall,
    ECast,
    EInt,
    EIntr,
    EMem,
    EUn,
    EVar,
    EVecImm,
    FuncDecl,
    GlobalDecl,
    IntTy,
    LIgnore,
    Program,
    SAssign,
    SDecl,
    SFor,
    SIf,
    SRepeat,
    SReturn,
    SWhile,
    WordTy,
    op_text,
    word_ty,
)

LEGAL_WIDTHS = words.WIDTHS

ARITH_OPS = frozenset(words.ARITH)
SHIFT_OPS = frozenset(words.SHIFTS)
CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
BOOL_OPS = {"&&", "||"}
LANE_OPS = frozenset(words.LANES)


class TypecheckError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class NotConst(Exception):
    pass


def _loc(node) -> str:
    loc = node.loc
    return f"{loc[0]}:{loc[1]}: " if loc else ""


def const_eval(e, env: dict) -> int:
    """Evaluate a compile-time expression to a Python int/bool: each
    word operator is that of jamin.words at the unbounded width."""
    if isinstance(e, EInt):
        return e.value
    if isinstance(e, EBool):
        return e.value
    if isinstance(e, EVar):
        if e.name in env:
            return env[e.name]
        raise NotConst(e.name)
    if isinstance(e, EUn):
        v = const_eval(e.arg, env)
        if e.op == "!":
            return not v
        if e.op in words.UNARY:
            return words.evaluator(e.op, None, unary=True)(v)
    if isinstance(e, EBin):
        op = e.op
        if e.lanes:
            raise NotConst(f"lane operator {op_text(op, e.lanes)} on compile-time ints")
        a = const_eval(e.left, env)
        b = const_eval(e.right, env)
        if op in ARITH_OPS or op == "<<" or op == ">>":
            try:
                return words.evaluator(op, None)(a, b)
            except ZeroDivisionError:
                raise NotConst("division by zero in constant expression") from None
            except words.WordError as exc:
                raise NotConst(f"{exc} in constant expression") from None
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "&&":
            return bool(a) and bool(b)
        if op == "||":
            return bool(a) or bool(b)
        raise NotConst(f"operator {op} is not defined on compile-time ints")
    if isinstance(e, EVecImm):
        v = 0
        for i, x in enumerate(e.values):
            xv = const_eval(x, env)
            if not 0 <= xv < (1 << e.m):
                raise NotConst(f"immediate element {xv} does not fit u{e.m}")
            v |= xv << (e.m * i)
        return v
    if isinstance(e, ECast):
        return const_eval(e.arg, env) & ((1 << e.width) - 1)
    raise NotConst(type(e).__name__)


def index_error(name: str, ty: ArrayTy, i: int, width, byte_mode: bool) -> str | None:
    """Why constant index `i` of an access to array `name` of type `ty`
    (a `width`-bit view, a byte view) is out of bounds, or None."""
    w = width or ty.bits
    off = i if byte_mode else i * (w // 8)
    if off < 0 or off + w // 8 > ty.length * (ty.bits // 8):
        return f"index {i} outside {name}: u{ty.bits}[{ty.length}]"
    return None


def _vecimm_width(n: int, m: int) -> int:
    bits = n * m
    for w in (8, 16, 32):
        if bits <= w:
            return w
    raise NotConst("immediate vector wider than 32 bits")


class _FnChecker:
    def __init__(self, tc: "_Checker", fn: FuncDecl):
        self.tc = tc
        self.fn = fn
        self.env: dict[str, tuple[str, object]] = {}
        for p in fn.params:
            self.check_shadow(fn, p.name)
            p.ty = tc.resolve_ty(p.ty, fn)
            self.env[p.name] = (p.storage, p.ty)
        fn.rets = tuple((st, tc.resolve_ty(t, fn)) for st, t in fn.rets)
        self.for_vars: list[str] = []

    def check_shadow(self, node, name: str):
        if name in self.tc.global_tys or name in self.tc.param_values:
            self.err(node, f"{name!r} shadows a program-level name")

    def err(self, node, msg):
        self.tc.errors.append(f"{_loc(node)}{self.fn.name}: {msg}")

    # ------------------------------------------------- compile time

    def is_compile_time(self, e) -> bool:
        if isinstance(e, (EInt, EBool, EVecImm)):
            return all(self.is_compile_time(v) for v in e.values) if isinstance(e, EVecImm) else True
        if isinstance(e, EVar):
            if e.name in self.tc.param_values or e.name in self.tc.global_tys:
                return True
            if e.name in self.for_vars:
                return True
            st = self.env.get(e.name)
            return st is not None and st[0] in ("inline", "global")
        if isinstance(e, EUn):
            return self.is_compile_time(e.arg)
        if isinstance(e, EBin):
            return self.is_compile_time(e.left) and self.is_compile_time(e.right)
        if isinstance(e, ECast):
            return self.is_compile_time(e.arg)
        return False

    def check_no_lanes(self, e):
        """A compile-time int is computed at the unbounded width, where a
        lane operator has no meaning."""
        if isinstance(e, EBin):
            if e.lanes:
                self.err(e, f"lane operator {op_text(e.op, e.lanes)} on compile-time ints")
            else:
                self.check_no_lanes(e.left)
                self.check_no_lanes(e.right)
        elif isinstance(e, (EUn, ECast)):
            self.check_no_lanes(e.arg)

    # ----------------------------------------------------- lookups

    def lookup(self, name):
        """(storage, type) of the variable `name`, or None when nothing
        in scope declares it."""
        if name in self.env:
            return self.env[name]
        if name in self.tc.global_tys:
            return ("global", self.tc.global_tys[name])
        if name in self.tc.param_values or name in self.for_vars:
            return ("inline", INT)
        return None

    def var_ty(self, node, name):
        found = self.lookup(name)
        if found is None:
            self.err(node, f"unknown variable {name!r}")
            return ("reg", word_ty(64))
        return found

    # ---------------------------------------------------- coercion

    def coerce(self, e, width: int):
        ty = e.ty
        if isinstance(ty, IntTy):
            if isinstance(e, EInt):
                e.ty = word_ty(width)
                return e
            c = ECast(width, e)
            c.ty = word_ty(width)
            return c
        if isinstance(ty, WordTy):
            if ty.bits == width:
                return e
            c = ECast(width, e)
            c.ty = word_ty(width)
            return c
        self.err(e, f"expected a u{width} value, found {ty}")
        e.ty = word_ty(width)
        return e

    def infer_word(self, e, width: int | None):
        """Infer `e` then coerce it to `width` bits (if given)."""
        self.infer(e, width)
        if width is None:
            return e
        return self.coerce(e, width)

    def natural_width(self, e) -> int | None:
        if isinstance(e.ty, WordTy):
            return e.ty.bits
        return None

    # ---------------------------------------------------- inference

    def infer(self, e, expect: int | None = None):
        """Annotate e.ty; `expect` is the surrounding operator width."""
        if isinstance(e, EInt):
            e.ty = word_ty(expect) if expect else INT
            return
        if isinstance(e, EBool):
            e.ty = BOOL
            return
        if isinstance(e, EVar):
            st, ty = self.var_ty(e, e.name)
            e.ty = ty
            return
        if isinstance(e, EVecImm):
            try:
                w = _vecimm_width(e.n, e.m)
            except NotConst as exc:
                self.err(e, str(exc))
                w = 32
            for v in e.values:
                self.infer(v)
                if not self.is_compile_time(v):
                    self.err(v, "immediate vector elements must be compile-time")
            e.ty = word_ty(w)
            return
        if isinstance(e, ECast):
            if e.width not in LEGAL_WIDTHS:
                self.err(e, f"illegal cast width {e.width}")
            self.infer(e.arg)
            if not isinstance(e.arg.ty, (WordTy, IntTy)):
                self.err(e, f"cannot cast {e.arg.ty} to u{e.width}")
            e.ty = word_ty(e.width)
            return
        if isinstance(e, EArr):
            self.check_array_access(e, e.name, e.index, e.width, e.byte_mode)
            return
        if isinstance(e, EMem):
            w = e.width or 64
            if w not in LEGAL_WIDTHS:
                self.err(e, f"illegal access width {w}")
            e.addr = self.infer_word(e.addr, 64)
            e.ty = word_ty(w)
            return
        if isinstance(e, EUn):
            if e.op == "!":
                self.infer(e.arg)
                if not isinstance(e.arg.ty, BoolTy):
                    self.err(e, "! expects a bool")
                e.ty = BOOL
                return
            # ~ and unary - are word operators
            self.infer(e.arg, expect)
            if isinstance(e.arg.ty, IntTy):
                e.ty = INT
            elif isinstance(e.arg.ty, WordTy):
                e.ty = e.arg.ty
            else:
                self.err(e, f"{e.op} expects a word")
                e.ty = word_ty(expect or 64)
            return
        if isinstance(e, EBin):
            self.infer_bin(e, expect)
            return
        if isinstance(e, EIntr):
            self.infer_intrinsic(e)
            return
        if isinstance(e, ECall):
            self.err(e, "function calls are statements, not sub-expressions")
            e.ty = word_ty(64)
            return
        raise TypeError(f"not an expression: {e!r}")

    def infer_bin(self, e: EBin, expect):
        op = e.op
        if e.lanes:
            n, m = e.lanes
            total = n * m
            if op not in LANE_OPS:
                self.err(e, f"operator {op!r} takes no lane annotation")
            if total not in (128, 256) or m not in LEGAL_WIDTHS:
                self.err(e, f"illegal lane shape {n}u{m}")
            e.left = self.infer_word(e.left, total)
            if op in ("<<", ">>"):
                e.right = self.infer_word(e.right, 8)
            else:
                e.right = self.infer_word(e.right, total)
            e.ty = word_ty(total)
            return
        if op in BOOL_OPS:
            self.infer(e.left)
            self.infer(e.right)
            if not isinstance(e.left.ty, BoolTy) or not isinstance(e.right.ty, BoolTy):
                self.err(e, f"{op} expects bools")
            e.ty = BOOL
            return
        if op in CMP_OPS:
            self.infer(e.left)
            self.infer(e.right)
            w = self.natural_width(e.left) or self.natural_width(e.right)
            if w is not None:
                e.left = self.coerce(e.left, w)
                e.right = self.coerce(e.right, w)
            elif not (isinstance(e.left.ty, IntTy) and isinstance(e.right.ty, IntTy)):
                if isinstance(e.left.ty, BoolTy) and isinstance(e.right.ty, BoolTy):
                    if op not in ("==", "!="):
                        self.err(e, f"{op} not defined on bools")
                else:
                    self.err(e, f"cannot compare {e.left.ty} with {e.right.ty}")
            e.ty = BOOL
            return
        if op in SHIFT_OPS:
            self.infer(e.left, expect)
            w = self.natural_width(e.left) or expect
            if w is not None:
                e.left = self.coerce(e.left, w)
                e.ty = word_ty(w)
            else:
                e.ty = INT  # compile-time shift
            self.infer(e.right)
            if not isinstance(e.right.ty, IntTy):
                e.right = self.coerce(e.right, 8)
            return
        if op in ARITH_OPS:
            self.infer(e.left, expect)
            self.infer(e.right, expect)
            w = expect or self.natural_width(e.left) or self.natural_width(e.right)
            if w is None:
                e.ty = INT  # both compile-time
                return
            e.left = self.coerce(e.left, w)
            e.right = self.coerce(e.right, w)
            e.ty = word_ty(w)
            return
        self.err(e, f"unknown operator {op!r}")
        e.ty = word_ty(64)

    def infer_intrinsic(self, e: EIntr, stmt_dests=None):
        try:
            d = isa.lookup(e.name)
        except isa.UnknownInstruction:
            self.err(e, f"unknown intrinsic #{e.name}")
            e.ty = word_ty(64)
            return None
        if len(e.args) != len(d.sources):
            self.err(e, f"#{e.name} expects {len(d.sources)} arguments, got {len(e.args)}")
            e.ty = word_ty(64)
            return d
        args = []
        for a, w in zip(e.args, d.src_widths):
            if w == "flag":
                self.infer(a)
                if not isinstance(a.ty, BoolTy):
                    self.err(a, f"#{e.name}: flag argument must be a bool")
                args.append(a)
            else:
                args.append(self.infer_word(a, w))
        e.args = tuple(args)
        if stmt_dests is None:
            if len(d.destinations) != 1:
                self.err(
                    e,
                    f"#{e.name} produces {len(d.destinations)} values; bind them all "
                    f"in a multi-destination assignment",
                )
            w = d.dst_widths[0]
            e.ty = BOOL if w == "flag" else word_ty(w)
        return d

    def check_array_access(self, node, name, index, width, byte_mode):
        """Type the access `node`; an error about its array name is
        reported once."""
        node.ty = word_ty(64)  # unless name is an array
        found = self.lookup(name)
        if found is None:
            self.err(node, f"unknown variable {name!r}")
            return
        st, ty = found
        if not isinstance(ty, ArrayTy):
            self.err(node, f"{name!r} is not an array")
            return
        node.arr_storage = st
        node.arr_ty = ty
        node.ty = word_ty(width or ty.bits)
        if st == "reg" or st == "global":
            if width is not None or byte_mode:
                self.err(node, "sub-word views exist only on stack arrays")
            if not self.is_compile_time(index):
                self.err(
                    node,
                    f"register array {name!r} requires a compile-time index",
                )
        if width is not None and width not in LEGAL_WIDTHS:
            self.err(node, f"illegal view width u{width}")
        self.infer(index)
        if not isinstance(index.ty, (IntTy, WordTy)):
            self.err(node, "array index must be an integer")
        # static bounds check when everything is constant
        if isinstance(ty.length, int) and self.is_compile_time(index):
            try:
                i = const_eval(index, self.tc.param_values)
            except NotConst:
                return
            msg = index_error(name, ty, i, width, byte_mode)
            if msg:
                self.err(node, msg)

    # --------------------------------------------------- statements

    def check_block(self, stmts):
        for s in stmts:
            self.check_stmt(s)

    def check_stmt(self, s):
        if isinstance(s, SDecl):
            ty = s.ty = self.tc.resolve_ty(s.ty, self.fn)
            if s.storage == "inline" and not isinstance(ty, IntTy):
                self.err(s, "inline variables have type int")
            if s.storage != "inline" and isinstance(ty, IntTy):
                self.err(s, "type int requires inline storage")
            if s.storage == "global" and s.init is None:
                self.err(s, "global declarations need an initializer")
            if s.storage == "global" and s.init is not None and not self.is_compile_time(s.init):
                self.err(s, "global initializer must be compile-time")
            for nm in s.names:
                self.check_shadow(s, nm)
                self.env[nm] = (s.storage, ty)
            if s.init is not None:
                if isinstance(ty, WordTy):
                    s.init = self.infer_word(s.init, ty.bits)
                elif isinstance(ty, IntTy):
                    self.infer(s.init)
                    if not self.is_compile_time(s.init):
                        self.err(s, "inline initializer must be compile-time")
                    self.check_no_lanes(s.init)
                else:
                    self.err(s, "only word and inline int declarations take an initializer")
            return
        if isinstance(s, SAssign):
            self.check_assign(s)
            return
        if isinstance(s, SIf):
            self.infer(s.cond)
            if not isinstance(s.cond.ty, BoolTy):
                self.err(s, "if condition must be a bool")
            self.check_block(s.then)
            self.check_block(s.els)
            return
        if isinstance(s, SWhile):
            self.infer(s.cond)
            if not isinstance(s.cond.ty, BoolTy):
                self.err(s, "while condition must be a bool")
            self.check_block(s.body)
            return
        if isinstance(s, SRepeat):  # expand's output typed again
            self.check_block(s.body)
            return
        if isinstance(s, SFor):
            self.infer(s.lo)
            self.infer(s.hi)
            if not (self.is_compile_time(s.lo) and self.is_compile_time(s.hi)):
                self.err(s, "for bounds must be compile-time")
            self.check_no_lanes(s.lo)
            self.check_no_lanes(s.hi)
            self.for_vars.append(s.var)
            self.check_block(s.body)
            self.for_vars.pop()
            return
        if isinstance(s, SReturn):
            rets = self.fn.rets
            if len(s.values) != len(rets):
                self.err(s, f"return arity {len(s.values)} != {len(rets)}")
                return
            vals = []
            for v, (_, ty) in zip(s.values, rets):
                ty = self.tc.resolve_ty(ty, self.fn)
                if isinstance(ty, WordTy):
                    vals.append(self.infer_word(v, ty.bits))
                else:
                    self.infer(v)
                    if ty != v.ty:
                        self.err(v, f"return value has type {v.ty}, expected {ty}")
                    vals.append(v)
            s.values = tuple(vals)
            return
        raise TypeError(f"not a statement: {s!r}")

    def lval_ty(self, lv):
        """The type of destination lv, typed as the access that reads the
        place it writes; None for `_` and for a place that cannot be
        written, which is an error."""
        if type(lv) is LIgnore:
            return None
        if type(lv) is EVar:
            st, lv.ty = self.var_ty(lv, lv.name)
        else:
            self.infer(lv)
            st = lv.arr_storage if type(lv) is EArr else None
        if st == "global":
            self.err(lv, f"cannot write to global {lv.name!r}")
            return None
        if st == "inline":
            self.err(lv, "inline variables are fixed by expansion")
            return None
        return lv.ty

    def check_assign(self, s: SAssign):
        if isinstance(s.rhs, ECall):
            self.check_call(s)
            return
        if isinstance(s.rhs, EIntr) and (len(s.dests) != 1 or s.op):
            d = self.infer_intrinsic(s.rhs, stmt_dests=s.dests)
            if d is None:
                return
            if s.op:
                self.err(s, "compound assignment cannot receive an intrinsic")
            if len(s.dests) != len(d.destinations):
                self.err(
                    s,
                    f"#{s.rhs.name} produces {len(d.destinations)} values, "
                    f"{len(s.dests)} destinations given",
                )
                return
            for lv, w in zip(s.dests, d.dst_widths):
                ty = self.lval_ty(lv)
                if ty is None:
                    continue
                if w == "flag" and not isinstance(ty, BoolTy):
                    self.err(s, "flag output needs a bool destination")
                if w != "flag" and not isinstance(ty, WordTy):
                    self.err(s, "word output needs a word destination")
            if s.cond is not None:
                self.err(s, "conditional assignment cannot receive an intrinsic")
            return
        if len(s.dests) != 1:
            self.err(s, "multi-destination assignment requires an intrinsic or call")
            return
        lv = s.dests[0]
        ty = self.lval_ty(lv)
        if ty is None:
            self.infer(s.rhs)
            return
        if s.op:
            # x op= e  behaves as  x = x op e  at the destination width
            if not isinstance(ty, WordTy):
                self.err(s, "compound assignment needs a word destination")
                return
            if isinstance(lv, EMem):
                self.err(s, "compound assignment needs a register or an array element "
                            "as destination")
                return
            if s.lanes and s.lanes[0] * s.lanes[1] != ty.bits:
                self.err(s, f"lane shape {s.lanes[0]}u{s.lanes[1]} does not fit u{ty.bits}")
            if s.op in ("<<", ">>") and s.lanes:
                s.rhs = self.infer_word(s.rhs, 8)
            elif s.op in SHIFT_OPS:
                self.infer(s.rhs)
                if not isinstance(s.rhs.ty, IntTy):
                    s.rhs = self.coerce(s.rhs, 8)
            else:
                s.rhs = self.infer_word(s.rhs, ty.bits)
        elif isinstance(ty, BoolTy):
            self.infer(s.rhs)
            if not isinstance(s.rhs.ty, BoolTy):
                self.err(s, f"cannot assign {s.rhs.ty} to a bool")
        elif isinstance(ty, ArrayTy):
            if not (isinstance(s.rhs, EVar)):
                self.err(s, "arrays can only be copied whole from another array")
                return
            self.infer(s.rhs)
            if s.rhs.ty != ty:
                self.err(s, f"array copy type mismatch: {s.rhs.ty} vs {ty}")
        else:
            s.rhs = self.infer_word(s.rhs, ty.bits)
        if s.cond is not None:
            self.infer(s.cond)
            if not isinstance(s.cond.ty, BoolTy):
                self.err(s, "assignment guard must be a bool")
            if not isinstance(lv, EVar) or not isinstance(ty, WordTy):
                self.err(s, "conditional assignment writes a scalar register")

    def check_call(self, s: SAssign):
        call = s.rhs
        if call.name not in self.tc.funcs:
            self.err(s, f"unknown function {call.name!r}")
            return
        callee = self.tc.funcs[call.name]
        if len(call.args) != len(callee.params):
            self.err(s, f"{call.name} takes {len(callee.params)} arguments")
            return
        args = []
        for a, p in zip(call.args, callee.params):
            ty = self.tc.resolve_ty(p.ty, callee)
            if isinstance(ty, WordTy):
                args.append(self.infer_word(a, ty.bits))
            else:
                self.infer(a)
                if a.ty != ty:
                    self.err(a, f"argument has type {a.ty}, expected {ty}")
                args.append(a)
        call.args = tuple(args)
        call.ty = None
        if len(s.dests) != len(callee.rets):
            self.err(s, f"{call.name} returns {len(callee.rets)} values")
            return
        for lv, (_, rty) in zip(s.dests, callee.rets):
            ty = self.lval_ty(lv)
            rty = self.tc.resolve_ty(rty, callee)
            if ty is None:
                continue
            if isinstance(rty, ArrayTy) and ty != rty:
                self.err(s, f"array result type mismatch: {ty} vs {rty}")
            if isinstance(rty, WordTy) and not isinstance(ty, WordTy):
                self.err(s, "word result needs a word destination")
            if isinstance(rty, BoolTy) and not isinstance(ty, BoolTy):
                self.err(s, "bool result needs a bool destination")
        if s.cond is not None:
            self.err(s, "calls cannot be conditional")
        if s.op:
            self.err(s, "calls cannot use compound assignment")


class _Checker:
    def __init__(self, p: Program):
        self.p = p
        self.errors: list[str] = []
        self.param_values: dict[str, int] = {}
        self.global_tys: dict[str, object] = {}
        self.funcs = {f.name: f for f in p.funcs}

    def resolve_ty(self, ty, fn):
        if isinstance(ty, ArrayTy) and not isinstance(ty.length, int):
            try:
                n = const_eval(ty.length, self.param_values)
            except NotConst as exc:
                self.errors.append(f"array length is not compile-time ({exc})")
                n = 1
            return ArrayTy(ty.bits, n)
        return ty

    def run(self) -> Program:
        for pd in self.p.params:
            try:
                self.param_values[pd.name] = const_eval(pd.value, self.param_values)
            except NotConst as exc:
                self.errors.append(f"{_loc(pd)}param {pd.name}: not compile-time ({exc})")
        for g in self.p.globals:
            ty = self.resolve_ty(g.ty, None)
            g.ty = ty
            if isinstance(ty, ArrayTy):
                if not isinstance(g.init, tuple) or len(g.init) != ty.length:
                    self.errors.append(f"global {g.name}: initializer arity mismatch")
                else:
                    g.init = tuple(self.global_init(g, word_ty(ty.bits), v) for v in g.init)
            elif isinstance(g.init, tuple):
                self.errors.append(f"global {g.name}: scalar takes a single initializer")
            else:
                g.init = self.global_init(g, ty, g.init)
            self.global_tys[g.name] = ty
        self._check_no_recursion()
        for f in self.p.funcs:
            fc = _FnChecker(self, f)
            fc.check_block(f.body)
            self._check_returns(f, fc)
            f.envtypes = dict(fc.env)
        if self.errors:
            raise TypecheckError(self.errors)
        self.p.typed = True
        return self.p

    def global_init(self, g: GlobalDecl, ty, init):
        """`init` typed as the initializer of a local `global` declaration
        of type `ty` (an array global's element type) would be, which
        sees the parameters and the earlier globals."""
        decl = SDecl("global", ty, (g.name,), init)
        decl.loc = g.loc
        _FnChecker(self, FuncDecl(f"global {g.name}", False, (), (), ())).check_stmt(decl)
        return decl.init

    def _check_returns(self, f: FuncDecl, fc: _FnChecker):
        has_ret = any(isinstance(s, SReturn) for s in f.body)
        if f.rets and not has_ret:
            self.errors.append(f"{f.name}: missing return")

    def _check_no_recursion(self):
        calls: dict[str, set[str]] = {f.name: set() for f in self.p.funcs}

        def scan(stmts, into):
            for s in stmts:
                if isinstance(s, SAssign) and isinstance(s.rhs, ECall):
                    into.add(s.rhs.name)
                elif isinstance(s, SIf):
                    scan(s.then, into)
                    scan(s.els, into)
                elif isinstance(s, (SWhile, SFor, SRepeat)):
                    scan(s.body, into)

        for f in self.p.funcs:
            scan(f.body, calls[f.name])
        state: dict[str, int] = {}

        def visit(name, trail):
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                self.errors.append(f"recursive call cycle: {' -> '.join(trail + [name])}")
                return
            state[name] = 1
            for callee in sorted(calls.get(name, ())):
                if callee in calls:
                    visit(callee, trail + [name])
            state[name] = 2

        for f in self.p.funcs:
            visit(f.name, [])


def typecheck(p: Program) -> Program:
    """Resolve widths and storage rules; returns the annotated program."""
    return _Checker(p).run()
