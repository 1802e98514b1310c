"""Compile-time expansion.

Turns a typed program into its executable core: parameters are
substituted, unrollable `for` loops are unrolled, calls to inline
functions are spliced in, compile-time expressions are folded,
constant-condition `if`s are pruned, global initializers are evaluated
at their width, local `global` declarations are hoisted, and globals
with equal values are merged.  The result is typed as typecheck would
type it, without running typecheck again: a copied node keeps every
annotation, a folded literal takes the type of the node it replaces,
the moves that bind an inline call's arguments and results take the
parameter's and the destination's type, and each function's `envtypes`
come from its expanded declarations.  A constant index that unrolling
or inlining makes out of bounds is an ExpandError naming the array as
the source does.  The result is marked `expanded`; it is the only
program the back ends (interp, safety, leakage) accept, and they rely
on its contract without rechecking it: no `for` loop, inline call or
immediate vector remains, every compile-time (`int`) expression is a
literal, every array access is typed, and globals are literals.
Expansion is idempotent.

Unrolling keeps every copy of a loop body: the analyses and the step
count are defined on the unrolled statements.  A loop of two or more
iterations whose body does not mention its variable, and whose first
iteration leaves the compile-time environment as it found it (an
`inline` or `global` declaration in the body does not), is expanded
from the source once: iteration j is the first one expanded again with
each name inlining made in it, nm__i{t}, renamed to nm__i{t + j*m},
where m is the first iteration's count of inline calls, so names and
tags are those of expanding every iteration from the source.  Unless
it has no statements, such a loop is recorded in the result's
`unrolled`, per non-inline function, as (first statement of iteration
0, statements per iteration, iterations, names), where `names` maps
each local that inlining declared in iteration 0 to its name in every
iteration; the loops inside it are not recorded.  Codegen emits a
recorded loop once, as a loop, and relies on the record (see codegen);
the analyses read it too, to skip the iterations that change nothing
they observe (see flow).  Any other loop is expanded from the source per
iteration.

Expansion never updates its input: every node it returns is a copy or
a new node, and nothing updates the result afterwards (the back ends
only read it).  A copy is made by the copier of its node class
(`_copier`): a function, compiled once per class from the class's
fields, that assigns each field, side attributes included, from the
original or from the changes it is given.

Word operators fold through their one definition in `words`, at their
width; a node that would fault when run (a shift count out of range, a
division by zero) is left for the run to report at its location.  A
compile-time expression that cannot be evaluated is an ExpandError at
its location.
"""

from __future__ import annotations

import dataclasses
import functools

from . import words
from .ir import (
    ArrayTy,
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
    LArr,
    LIgnore,
    LMem,
    LVar,
    Program,
    SAssign,
    SDecl,
    SFor,
    SIf,
    SReturn,
    SWhile,
    WordTy,
    int_value,
    word_ty,
)
from .typecheck import NotConst, const_eval, index_error

MAX_UNROLL = 1 << 16


class ExpandError(Exception):
    pass


@functools.cache
def _fields(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


_KEEP = object()  # a field a copy keeps


@functools.cache
def _copier(cls):
    """The function that copies a node of class `cls` with keyword
    changes: one assignment per field, side attributes included,
    compiled once from `_fields(cls)`."""
    names = _fields(cls)
    params = "".join(f", {n}=_KEEP" for n in names)
    body = "".join(f"    _new.{n} = _old.{n} if {n} is _KEEP else {n}\n" for n in names)
    ns = {"_KEEP": _KEEP, "_make": object.__new__, "_cls": cls}
    exec(f"def copy(_old, *{params}):\n    _new = _make(_cls)\n{body}    return _new\n", ns)
    return ns["copy"]


def _copy(node, **changes):
    """`node` with `changes`, keeping its side attributes (location, type,
    array storage)."""
    return _copier(type(node))(node, **changes)


def _lit(v, like):
    """The literal of value `v` that replaces node `like`: it has like's
    type and no location."""
    e = EBool(v) if isinstance(v, bool) else EInt(v)
    e.ty = like.ty
    return e


class _Values:
    """An environment (see subst) in which globals read as their values."""

    __slots__ = ("env", "values")

    def __init__(self, env, values: dict):
        self.env, self.values = env, values

    def get(self, name: str, default):
        if name not in self.env:
            return default
        v = self.env[name]
        return self.values.get(v, v) if isinstance(v, str) else v


class _Expander:
    def __init__(self, p: Program):
        self.p = p
        self.env: dict[str, object] = {}  # parameters and program-level globals
        self.global_vals: dict[str, object] = {}  # merged names -> values
        self.global_decls: list[GlobalDecl] = []
        self.fresh = 0
        self.funcs = {f.name: f for f in p.funcs}
        self.expanded: dict[str, FuncDecl] = {}
        self.current = None  # the non-inline function being expanded
        self.unrolled: dict[str, list] = {}  # the result's `unrolled`
        self.free: dict[int, bool] = {}  # id of a source `for` -> var_free
        self.made: list = []  # (stem, t) of each name nm__i{t} inlining made
        # the names a hoisted local `global` must not take: every name the
        # source declares otherwise, which would shadow it in the result
        self.taken = {q.name for f in p.funcs for q in f.params} | {
            nm for f in p.funcs for d in _decls(f.body) if d.storage != "global"
            for nm in d.names}

    # -------------------------------------------------- expressions

    def subst(self, e, env):
        """Copy an expression, substituting compile-time names and folding.
        `env` maps a source name to its value (an int or bool) or to the
        name it is renamed to."""
        k = type(e)
        copy = _copier(k)  # _copy without its repacking of the changes
        if k is EInt or k is EBool:
            return copy(e, value=int_value(e))  # a word literal modulo its width
        if type(e.ty) is IntTy and type(env) is not _Values:
            env = _Values(env, self.global_vals)  # a compile-time node reads globals' values
        if k is EVar:
            name = env.get(e.name, e.name)
            if isinstance(name, (int, bool)):
                return _lit(name, e)
            return copy(e, name=name)
        if k is EBin:
            return self.fold(
                copy(e, left=self.subst(e.left, env), right=self.subst(e.right, env)),
                env,
            )
        if k is EArr:
            return _checked(copy(e, name=self.rename(e, env), index=self.subst(e.index, env)),
                            e.name)
        if k is EMem:
            return copy(e, addr=self.subst(e.addr, env))
        if k is EUn or k is ECast:
            return self.fold(copy(e, arg=self.subst(e.arg, env)), env)
        if k is EIntr or k is ECall:
            return copy(e, args=tuple([self.subst(a, env) for a in e.args]))
        if k is EVecImm:
            values = tuple(EInt(self.const(v, env, "immediate element")) for v in e.values)
            try:
                return _lit(const_eval(copy(e, values=values), {}), e)
            except NotConst as exc:
                raise ExpandError(f"{_at(e)}{exc}") from exc
        raise TypeError(f"not an expression: {e!r}")

    def rename(self, node, env: dict) -> str:
        """The name `node` (a variable or array access) refers to."""
        v = env.get(node.name, node.name)
        if not isinstance(v, str):
            raise ExpandError(f"{_at(node)}{node.name} is a compile-time value, not a variable")
        return v

    def fold(self, e, env):
        """Fold a node whose operands are all literals (see the module
        docstring); a compile-time (`int`) node must fold."""
        kids = (e.left, e.right) if type(e) is EBin else (e.arg,)
        ty = e.ty
        reason = "an operand is not known"
        if all(type(k) is EInt or type(k) is EBool for k in kids):
            try:
                if isinstance(ty, WordTy) and not isinstance(e, ECast):
                    n, w = e.lanes if isinstance(e, EBin) and e.lanes else (None, ty.bits)
                    f = words.evaluator(e.op, w, n, unary=isinstance(e, EUn))
                    v = f(*(k.value for k in kids))
                else:
                    v = const_eval(e, {})
                return _lit(v, e)
            except (NotConst, words.WordError, ZeroDivisionError) as exc:
                reason = exc
        if isinstance(ty, IntTy):
            raise ExpandError(f"{_at(e)}compile-time expression cannot be evaluated ({reason})")
        return e

    def const(self, e, env, what: str):
        """The value of compile-time `e` under `env`, with globals read as
        their values and words folded at their width."""
        v = self.subst(e, _Values(env, self.global_vals))
        if not isinstance(v, (EInt, EBool)):
            raise ExpandError(f"{_at(e)}{what} cannot be evaluated at compile time")
        return v.value

    # --------------------------------------------------- statements

    def expand_block(self, stmts, env: dict, inline_ok: bool, fn: FuncDecl):
        out = []
        for s in stmts:
            out.extend(self.expand_stmt(s, env, inline_ok, fn))
        return out

    def expand_stmt(self, s, env: dict, inline_ok: bool, fn: FuncDecl):
        k = type(s)
        if k is SAssign:
            dests = tuple([self.subst_lval(d, env) for d in s.dests])
            rhs = self.subst(s.rhs, env)
            cond = self.subst(s.cond, env) if s.cond is not None else None
            if type(rhs) is ECall:
                return self.maybe_inline(s, dests, rhs, cond, env, fn)
            return [_copy(s, dests=dests, rhs=rhs, cond=cond)]
        if k is SDecl:
            if s.storage == "inline":
                if not inline_ok:
                    raise ExpandError(
                        f"{_at(s)}inline declarations cannot sit under runtime control flow"
                    )
                if s.init is None:
                    raise ExpandError(f"{_at(s)}inline variables need an initializer")
                for nm in s.names:
                    env[nm] = self.const(s.init, env, f"inline {nm}")
                return []
            if s.storage == "global":
                val = self.const(s.init, env, f"global {s.names[0]}")
                gname = self.fresh_global(s.ty, val, hint=s.names[0])
                for nm in s.names:
                    env[nm] = gname
                return []
            init = self.subst(s.init, env) if s.init is not None else None
            names = tuple(
                env[nm] if isinstance(env.get(nm), str) else nm for nm in s.names
            )
            return [_copy(s, names=names, init=init)]
        if k is SIf:
            cond = self.subst(s.cond, env)
            if isinstance(cond, (EInt, EBool)):
                taken = s.then if cond.value else s.els
                return self.expand_block(taken, env, inline_ok, fn)
            return [
                _copy(
                    s,
                    cond=cond,
                    then=tuple(self.expand_block(s.then, dict(env), False, fn)),
                    els=tuple(self.expand_block(s.els, dict(env), False, fn)),
                )
            ]
        if k is SWhile:
            return [
                _copy(
                    s,
                    cond=self.subst(s.cond, env),
                    body=tuple(self.expand_block(s.body, dict(env), False, fn)),
                )
            ]
        if k is SFor:
            lo = self.const(s.lo, env, "for lower bound")
            hi = self.const(s.hi, env, "for upper bound")
            count = hi - lo + 1
            if count > MAX_UNROLL:
                raise ExpandError(f"{_at(s)}unrolling {count} iterations exceeds {MAX_UNROLL}")
            out = []
            if count > 0:
                env[s.var] = lo
                before = dict(env) if count > 1 and self.var_free(s) else None
                mark = (len(self.unrolled.get(self.current, ())), len(self.made), self.fresh)
                out = self.expand_block(s.body, env, inline_ok, fn)
                if env == before:
                    out = self.copies(out, count, mark, fn)
                else:
                    for i in range(lo + 1, hi + 1):
                        env[s.var] = i
                        out.extend(self.expand_block(s.body, env, inline_ok, fn))
            env.pop(s.var, None)
            return out
        if k is SReturn:
            return [_copy(s, values=tuple(self.subst(v, env) for v in s.values))]
        raise TypeError(f"not a statement: {s!r}")

    def var_free(self, s: SFor) -> bool:
        """Whether the body of `for` loop s does not mention its variable
        (memoized: an inline function's loop unrolls at every call)."""
        free = self.free.get(id(s))
        if free is None:
            free = self.free[id(s)] = not _mentions(s.body, s.var)
        return free

    def copies(self, first: list, count: int, mark: tuple, fn: FuncDecl) -> list:
        """All `count` iterations of a loop whose iteration 0, `first`, left
        the environment as it found it: iterations 1.. are `first`
        expanded again (expansion is idempotent) with the names inlining
        made in it renamed to those it would make in that iteration, and
        the loop is recorded in place of the loops inside it.  `mark` is
        (records, names made, fresh) before iteration 0."""
        records, made, fresh = mark
        m = self.fresh - fresh  # iteration 0's inline calls
        made = self.made[made:]
        out = list(first)
        for j in range(1, count):
            out.extend(self.expand_block(
                first, {f"{stem}__i{t}": f"{stem}__i{t + j * m}" for stem, t in made}, True, fn))
        self.made.extend((stem, t + j * m) for j in range(1, count) for stem, t in made)
        self.fresh += (count - 1) * m
        if first:
            declared = {nm for d in _decls(first) for nm in d.names}
            names = {f"{stem}__i{t}": tuple(f"{stem}__i{t + j * m}" for j in range(count))
                     for stem, t in made if f"{stem}__i{t}" in declared}
            loops = self.unrolled.setdefault(self.current, [])
            loops[records:] = [(first[0], len(first), count, names)]
        return out

    def subst_lval(self, lv, env):
        k = type(lv)
        copy = _copier(k)
        if k is LVar:
            return copy(lv, name=self.rename(lv, env))
        if k is LArr:
            return _checked(copy(lv, name=self.rename(lv, env), index=self.subst(lv.index, env)),
                            lv.name)
        if k is LMem:
            return copy(lv, addr=self.subst(lv.addr, env))
        if k is LIgnore:
            return copy(lv)
        raise TypeError(f"not an lvalue: {lv!r}")

    # ----------------------------------------------------- inlining

    def maybe_inline(self, s, dests, call: ECall, cond, env, fn: FuncDecl):
        callee = self.funcs.get(call.name)
        if callee is None:
            raise ExpandError(f"{_at(s)}unknown function {call.name!r}")
        if not callee.inline:
            return [_copy(s, dests=dests, rhs=call, cond=cond)]
        if cond is not None:
            raise ExpandError(f"{_at(s)}inline calls cannot be conditional")
        self.fresh += 1
        tag = f"i{self.fresh}"
        env2: dict[str, object] = dict(self.env)
        out = []
        for p, a in zip(callee.params, call.args):
            if p.storage == "inline":
                env2[p.name] = self.const(a, {}, f"inline argument {p.name} of {call.name}")
            else:
                nm = f"{p.name}__{tag}"
                env2[p.name] = nm
                self.made.append((p.name, self.fresh))
                dest = LVar(nm)
                dest.ty = p.ty
                out.append(SDecl(p.storage, p.ty, (nm,), None))
                out.append(SAssign((dest,), None, a))
        # every declared local gets a call-site-unique name
        for nm in _decl_names(callee.body):
            env2[nm] = f"{nm}__{tag}"
            self.made.append((nm, self.fresh))
        body = self.expand_block(list(callee.body), env2, True, callee)
        ret_values = None
        if body and isinstance(body[-1], SReturn):
            ret_values = body[-1].values
            body = body[:-1]
        if any(isinstance(x, SReturn) for x in body):
            raise ExpandError(
                f"{_at(s)}inline function {call.name!r} must return only at the end"
            )
        out.extend(body)
        if callee.rets:
            if ret_values is None or len(ret_values) != len(dests):
                raise ExpandError(f"{_at(s)}inline call result arity mismatch")
            for d, v in zip(dests, ret_values):
                r = _resized(v, d.ty)  # a literal resized is folded, as expanding it again would
                out.append(SAssign((d,), None, r if r is v else self.fold(r, env2)))
        return out

    def function_body(self, name: str):
        """Fully expanded body of a non-inline function (memoized);
        inline functions expand per call site instead."""
        if name in self.expanded:
            return self.expanded[name].body
        f = self.funcs[name]
        self.current = name
        body = tuple(self.expand_block(f.body, dict(self.env), True, f))
        new = self.expanded[name] = _copy(f, body=body)
        new.envtypes = {q.name: (q.storage, q.ty) for q in f.params}
        new.envtypes.update((nm, (d.storage, d.ty)) for d in _decls(body) for nm in d.names)
        return body

    # ------------------------------------------------------ globals

    def fresh_global(self, ty, value, hint: str) -> str:
        for g in self.global_decls:
            if g.ty == ty and self.global_vals[g.name] == value:
                return g.name
        name = hint
        taken = self.taken.union(g.name for g in self.global_decls)
        i = 0
        while name in taken:
            i += 1
            name = f"{hint}_{i}"
        self.global_decls.append(GlobalDecl(name, ty, _value_expr(ty, value)))
        self.global_vals[name] = value
        return name

    # --------------------------------------------------------- main

    def run(self) -> Program:
        for pd in self.p.params:
            self.env[pd.name] = const_eval(pd.value, self.env)
        # program-level globals first, in order, so merged names are stable
        for g in self.p.globals:
            what = f"global {g.name}"
            if isinstance(g.init, tuple):
                val = tuple(self.const(v, self.env, what) for v in g.init)
            else:
                val = self.const(g.init, self.env, what)
            self.env[g.name] = self.fresh_global(g.ty, val, g.name)
        out_funcs = []
        for f in self.p.funcs:
            if not f.inline:
                self.function_body(f.name)
                out_funcs.append(self.expanded[f.name])
        newp = Program((), tuple(self.global_decls), tuple(out_funcs))
        newp.typed = newp.expanded = True
        newp.unrolled = {name: tuple(loops) for name, loops in self.unrolled.items()}
        return newp


def _decls(stmts):
    """The declarations in `stmts`, nested blocks included, in order."""
    for s in stmts:
        if isinstance(s, SDecl):
            yield s
        elif isinstance(s, SIf):
            yield from _decls(s.then)
            yield from _decls(s.els)
        elif isinstance(s, (SWhile, SFor)):
            yield from _decls(s.body)


def _mentions(node, name: str) -> bool:
    """Whether source `node` (or a tuple of nodes) mentions `name`: as a
    field or in an array length."""
    todo = [node]
    while todo:
        x = todo.pop()
        k = type(x)
        if k is tuple:
            todo.extend(x)
        elif k is ArrayTy:
            todo.append(x.length)
        elif hasattr(k, "__dataclass_fields__"):
            todo.extend(getattr(x, f) for f in _fields(k) if f != "loc")
        elif x == name:
            return True
    return False


def _decl_names(stmts) -> list[str]:
    return [nm for d in _decls(stmts) for nm in d.names]


def _value_expr(ty, value):
    """The literals of a global of type `ty` (an array's: one per element)."""
    if isinstance(value, tuple):
        return tuple(_value_expr(ty, v) for v in value)
    e = EInt(value)
    e.ty = word_ty(ty.bits)
    return e


def _resized(v, ty):
    """Value `v` moved into a destination of type `ty`: a word of another
    width is resized, as an assignment's right-hand side is."""
    if isinstance(ty, WordTy) and isinstance(v.ty, WordTy) and v.ty.bits != ty.bits:
        v = ECast(ty.bits, v)
        v.ty = ty
    return v


def _checked(access, name: str):
    """`access` (an EArr or LArr of source name `name`), unless its index
    is a literal outside the array."""
    if isinstance(access.index, EInt):
        msg = index_error(name, access.arr_ty, access.index.value, access.width,
                          access.byte_mode)
        if msg:
            raise ExpandError(f"{_at(access)}{msg}")
    return access


def _at(s) -> str:
    loc = s.loc
    return f"{loc[0]}:{loc[1]}: " if loc else ""


def expand(p: Program) -> Program:
    """Expand a typed program; the result is typed, keeps the contract of
    the module docstring and is marked `expanded`."""
    if not p.typed:
        raise ExpandError("expand requires a typechecked program")
    return _Expander(p).run()
