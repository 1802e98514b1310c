"""Type checking and width resolution.

Every expression receives a static type (`e.ty`); operator arguments
wider or narrower than the operator width get an explicit resize cast
inserted, and every assignment destination fixes the width of its
right-hand side, which is how assignment truncation becomes explicit.

Storage rules enforced here: register arrays are indexed only by
compile-time expressions, views and byte views exist only on stack
arrays, globals are never written, inline variables are compile-time
integers, computed at the unbounded width, so without lane operators,
each declared with an initializer and outside every `while` body and
every `if` arm whose test is not compile-time.

A function returns only at its end, as in Jasmin: a `return` is the
last statement of its function's body, and a function with results
ends in one.  Every later pass relies on it: each function has one exit.

Scopes: a `reg` or `stack` local is in scope from its declaration to
the end of the block that holds it (a function body, an `if` or `else`
arm, a `while`, `for` or repeat body); an `inline` or `global` local to
the end of the function.  A use out of scope is an error that names the
declaration, so every read of a local at run time follows its
declaration on every path.

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
    blocks,
    fmt_expr,
    op_text,
    span,
    walk,
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
        self.errors = list(dict.fromkeys(errors))  # an error repeated, same text and place, once
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
    raise NotConst(fmt_expr(e))


def index_error(access, name: str, i: int) -> str | None:
    """Why constant index `i` of `access`, a typed access to array `name`,
    is out of bounds (ir.span), or None."""
    if 0 <= i <= span(access)[2]:
        return None
    ty = access.arr_ty
    return f"index {i} outside {name}: u{ty.bits}[{ty.length}]"


def _vecimm_width(n: int, m: int) -> int:
    bits = n * m
    for w in (8, 16, 32):
        if bits <= w:
            return w
    raise NotConst("immediate vector wider than 32 bits")


def _agree(a, b) -> bool:
    """Whether types a and b agree; an array length that is not
    compile-time, reported where it is written, agrees with any."""
    if isinstance(a, ArrayTy) and isinstance(b, ArrayTy):
        unknown = not (isinstance(a.length, int) and isinstance(b.length, int))
        return a.bits == b.bits and (unknown or a.length == b.length)
    return a == b


def _copies(dst, src) -> bool:
    """Whether an array of storage `src` can be copied into one of storage
    `dst`: a register array's elements are registers and a stack array
    is stack bytes, so each is copied only into its own kind, and a
    global's constants only into a register array."""
    return dst == src or (dst, src) == ("reg", "global")


class _FnChecker:
    def __init__(self, tc: "_Checker", fn: FuncDecl):
        self.tc = tc
        self.fn = fn
        self.env: dict[str, tuple[str, object]] = {}  # in scope: name -> (storage, type)
        for p in fn.params:
            self.check_shadow(fn, p.name)
            self.env[p.name] = (p.storage, p.ty)
        self.locals = dict(self.env)  # every parameter and local: FuncDecl.envtypes
        self.scoped: list = []  # (name, declaration) of the block-scoped locals in scope
        self.ended: dict = {}  # a local whose block has ended -> its declaration
        self.for_vars: list[str] = []
        self.at_run_time = False  # whether a run-time test decides if the statement runs

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

    def unknown(self, node, name):
        """Report `name`, which nothing in scope declares, at `node`."""
        decl = self.ended.get(name)
        if decl is None:
            self.err(node, f"unknown variable {name!r}")
        else:
            at = " at %d:%d" % decl.loc if decl.loc else ""
            self.err(node, f"{name!r} is used outside the block of its declaration{at}")

    def storage(self, e) -> str:
        """The storage of array e, a variable (no other expression is an
        array)."""
        return self.var_ty(e, e.name)[0]

    def var_ty(self, node, name):
        found = self.lookup(name)
        if found is None:
            self.unknown(node, name)
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

    def infer_word(self, e, width: int):
        """Infer `e` then coerce it to `width` bits."""
        self.infer(e, width)
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
        if isinstance(e, ECast):  # of a width the parser takes: LEGAL_WIDTHS
            self.infer(e.arg)
            if not isinstance(e.arg.ty, (WordTy, IntTy)):
                self.err(e, f"cannot cast {e.arg.ty} to u{e.width}")
            e.ty = word_ty(e.width)
            return
        if isinstance(e, EArr):
            self.check_array_access(e)
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
        if e.lanes:  # n lanes of a legal width m filling 128 or 256 bits
            n, m = e.lanes
            total = n * m
            if op not in LANE_OPS:
                self.err(e, f"operator {op!r} takes no lane annotation")
            legal = total in (128, 256) and m in LEGAL_WIDTHS
            if not legal:
                self.err(e, f"illegal lane shape {n}u{m}")
            shift = op in ("<<", ">>")
            operands = (e.left,) if shift else (e.left, e.right)  # a lane shift's count is a u8
            for a in operands:
                self.infer(a, total)
            bits = [a.ty.bits for a in operands if isinstance(a.ty, WordTy) and a.ty.bits != total]
            if legal and bits:  # each word operand has the shape's width
                self.err(e, f"lane shape {n}u{m} does not fit u{bits[0]}")
            e.left = self.coerce(e.left, total)
            if shift:
                e.right = self.infer_word(e.right, 8)
            else:
                e.right = self.coerce(e.right, total)
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
        # an arithmetic operator: the parser builds only the operators of
        # ir._PREC, each in one of these four sets
        self.infer(e.left, expect)
        self.infer(e.right, expect)
        w = expect or self.natural_width(e.left) or self.natural_width(e.right)
        if w is None:
            e.ty = INT  # both compile-time
            return
        e.left = self.coerce(e.left, w)
        e.right = self.coerce(e.right, w)
        e.ty = word_ty(w)

    def infer_intrinsic(self, e: EIntr, stmt_dests=None):
        d = isa.lookup(e.name)  # the parser rejects an unknown intrinsic
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

    def check_array_access(self, node):
        """Type the array access `node`; an error about its array name is
        reported once."""
        name, index, width = node.name, node.index, node.width
        node.ty = word_ty(64)  # unless name is an array
        found = self.lookup(name)
        if found is None:
            self.unknown(node, name)
            return
        st, ty = found
        if not isinstance(ty, ArrayTy):
            self.err(node, f"{name!r} is not an array")
            return
        node.arr_storage = st
        node.arr_ty = ty
        node.ty = word_ty(width or ty.bits)
        if st == "reg" or st == "global":
            if width is not None or node.byte_mode:
                self.err(node, "sub-word views exist only on stack arrays")
            if not self.is_compile_time(index):
                self.err(
                    node,
                    f"register array {name!r} requires a compile-time index",
                )
        legal = width is None or width in LEGAL_WIDTHS
        if not legal:
            self.err(node, f"illegal view width u{width}")
        self.infer(index)
        if not isinstance(index.ty, (IntTy, WordTy)):
            self.err(node, "array index must be an integer")
        # static bounds check when everything is constant
        if legal and isinstance(ty.length, int) and self.is_compile_time(index):
            try:
                i = const_eval(index, self.tc.param_values)
            except NotConst:
                return
            msg = index_error(node, name, i)
            if msg:
                self.err(node, msg)

    # --------------------------------------------------- statements

    def check_block(self, stmts):
        """Check a block; the reg and stack locals it declares go out of
        scope at its end."""
        mark = len(self.scoped)
        for s in stmts:
            self.check_stmt(s)
        for nm, decl in self.scoped[mark:]:
            self.env.pop(nm, None)
            self.ended[nm] = decl
        del self.scoped[mark:]

    def check_arms(self, *arms, at_run_time: bool):
        """Check the blocks of an `if` or `while`, which run under
        run-time control flow if `at_run_time` or already under it."""
        outer = self.at_run_time
        self.at_run_time = outer or at_run_time
        for b in arms:
            self.check_block(b)
        self.at_run_time = outer

    def check_stmt(self, s):
        if isinstance(s, SDecl):
            ty = s.ty = self.tc.resolve_ty(s.ty)
            if s.storage == "inline" and not isinstance(ty, IntTy):
                self.err(s, "inline variables have type int")
            if s.storage == "inline" and s.init is None:
                self.err(s, "inline variables need an initializer")
            if s.storage == "inline" and self.at_run_time:
                self.err(s, "inline declarations cannot sit under runtime control flow")
            if s.storage != "inline" and isinstance(ty, IntTy):
                self.err(s, "type int requires inline storage")
            if s.storage == "global" and s.init is None:
                self.err(s, "global declarations need an initializer")
            if s.storage == "global" and s.init is not None and not self.is_compile_time(s.init):
                self.err(s, "global initializer must be compile-time")
            for nm in s.names:
                self.check_shadow(s, nm)
                self.env[nm] = self.locals[nm] = (s.storage, ty)
                if s.storage in ("reg", "stack"):
                    self.scoped.append((nm, s))
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
        if isinstance(s, (SIf, SWhile)):
            self.infer(s.cond)
            loop = isinstance(s, SWhile)
            if not isinstance(s.cond.ty, BoolTy):
                self.err(s, f"{'while' if loop else 'if'} condition must be a bool")
            self.check_arms(*blocks(s), at_run_time=loop or not self.is_compile_time(s.cond))
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
            if s is not self.fn.body[-1]:
                self.err(s, "return must be the last statement of the function body")
            rets = self.fn.rets
            if len(s.values) != len(rets):
                self.err(s, f"return arity {len(s.values)} != {len(rets)}")
                return
            vals = []
            for v, (st, ty) in zip(s.values, rets):
                if isinstance(ty, WordTy):
                    vals.append(self.infer_word(v, ty.bits))
                else:
                    self.infer(v)
                    if not _agree(v.ty, ty):
                        self.err(v, f"return value has type {v.ty}, expected {ty}")
                    elif isinstance(ty, ArrayTy) and not _copies(st, self.storage(v)):
                        self.err(v, f"return value is a {self.storage(v)} array, expected {st}")
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
        if isinstance(s.rhs, EIntr) and len(s.dests) != 1:
            d = self.infer_intrinsic(s.rhs, stmt_dests=s.dests)
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
        if isinstance(ty, BoolTy):
            self.infer(s.rhs)
            if not isinstance(s.rhs.ty, BoolTy):
                self.err(s, f"cannot assign {s.rhs.ty} to a bool")
        elif isinstance(ty, ArrayTy):
            if not (isinstance(s.rhs, EVar)):
                self.err(s, "arrays can only be copied whole from another array")
                return
            self.infer(s.rhs)
            if not _agree(s.rhs.ty, ty):
                self.err(s, f"array copy type mismatch: {s.rhs.ty} vs {ty}")
            elif not _copies(self.storage(lv), self.storage(s.rhs)):
                self.err(s, f"array copy storage mismatch: {self.storage(s.rhs)} vs "
                            f"{self.storage(lv)}")
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
            if isinstance(p.ty, WordTy):
                args.append(self.infer_word(a, p.ty.bits))
            else:
                self.infer(a)
                if not _agree(a.ty, p.ty):
                    self.err(a, f"argument has type {a.ty}, expected {p.ty}")
                elif isinstance(p.ty, ArrayTy) and not _copies(p.storage, self.storage(a)):
                    self.err(a, f"argument is a {self.storage(a)} array, expected {p.storage}")
                args.append(a)
        call.args = tuple(args)
        call.ty = None
        if len(s.dests) != len(callee.rets):
            self.err(s, f"{call.name} returns {len(callee.rets)} values")
            return
        for lv, (rst, rty) in zip(s.dests, callee.rets):
            ty = self.lval_ty(lv)
            if ty is None:
                continue
            if isinstance(rty, ArrayTy) and not _agree(ty, rty):
                self.err(s, f"array result type mismatch: {ty} vs {rty}")
            elif isinstance(rty, ArrayTy) and not _copies(self.storage(lv), rst):
                self.err(s, f"array result storage mismatch: {self.storage(lv)} vs {rst}")
            if isinstance(rty, WordTy) and not isinstance(ty, WordTy):
                self.err(s, "word result needs a word destination")
            if isinstance(rty, BoolTy) and not isinstance(ty, BoolTy):
                self.err(s, "bool result needs a bool destination")
        if s.cond is not None:
            self.err(s, "calls cannot be conditional")


class _Checker:
    def __init__(self, p: Program):
        self.p = p
        self.errors: list[str] = []
        self.param_values: dict[str, int] = {}
        self.global_tys: dict[str, object] = {}
        self.funcs = {f.name: f for f in p.funcs}

    def resolve_ty(self, ty):
        """`ty` with its array length evaluated; a length that is not
        compile-time is reported, and stays as written."""
        if isinstance(ty, ArrayTy) and not isinstance(ty.length, int):
            try:
                return ArrayTy(ty.bits, const_eval(ty.length, self.param_values))
            except NotConst as exc:
                self.errors.append(f"{_loc(ty.length)}array length is not compile-time ({exc})")
        return ty

    def run(self) -> Program:
        for pd in self.p.params:
            try:
                self.param_values[pd.name] = const_eval(pd.value, self.param_values)
            except NotConst as exc:
                self.errors.append(f"{_loc(pd)}param {pd.name}: not compile-time ({exc})")
        for g in self.p.globals:
            ty = self.resolve_ty(g.ty)
            g.ty = ty
            if isinstance(ty, ArrayTy):
                if not isinstance(g.init, tuple) or len(g.init) != ty.length:
                    if isinstance(ty.length, int):  # else resolve_ty reported the length
                        self.errors.append(f"{_loc(g)}global {g.name}: initializer arity mismatch")
                else:
                    g.init = tuple(self.global_init(g, word_ty(ty.bits), v) for v in g.init)
            elif isinstance(g.init, tuple):
                self.errors.append(f"{_loc(g)}global {g.name}: scalar takes a single initializer")
            else:
                g.init = self.global_init(g, ty, g.init)
            self.global_tys[g.name] = ty
        for f in self.p.funcs:  # every signature, before any call is checked
            for q in f.params:
                q.ty = self.resolve_ty(q.ty)
            f.rets = tuple((st, self.resolve_ty(t)) for st, t in f.rets)
        self._check_no_recursion()
        for f in self.p.funcs:
            fc = _FnChecker(self, f)
            fc.check_block(f.body)
            if f.rets and not (f.body and isinstance(f.body[-1], SReturn)):
                self.errors.append(f"{_loc(f)}{f.name}: missing return")
            f.envtypes = fc.locals
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

    def _check_no_recursion(self):
        """Report each call that closes a cycle of the call graph, at
        the call."""
        calls: dict[str, dict] = {f.name: {} for f in self.p.funcs}  # callee -> first call
        for f in self.p.funcs:
            for s in walk(f.body):
                if type(s) is SAssign and type(s.rhs) is ECall:
                    calls[f.name].setdefault(s.rhs.name, s.rhs)
        done: set = set()

        def visit(name, trail):
            trail = trail + [name]
            for callee, call in sorted(calls[name].items()):
                if callee in trail:
                    cycle = " -> ".join(trail[trail.index(callee):] + [callee])
                    self.errors.append(f"{_loc(call)}{name}: recursive call cycle: {cycle}")
                elif callee in calls and callee not in done:
                    visit(callee, trail)
            done.add(name)

        for f in self.p.funcs:
            if f.name not in done:
                visit(f.name, [])


def typecheck(p: Program) -> Program:
    """Resolve widths and storage rules; returns the annotated program."""
    return _Checker(p).run()
