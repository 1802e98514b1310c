"""Compile-time expansion.

Turns a typed program into its executable core: parameters are
substituted, unrollable `for` loops are unrolled, calls to inline
functions are spliced in, compile-time expressions are folded,
constant-condition `if`s are pruned, global initializers are evaluated
at their width, local `global` declarations are hoisted, and globals
with equal values are merged.  The result is re-typechecked and marked
`expanded`; it is the only program the back ends (interp, safety,
leakage) accept, and they rely on its contract without rechecking it:
no `for` loop, inline call or immediate vector remains, every
compile-time (`int`) expression is a literal, every array access is
typed, and globals are literals.  Expansion is idempotent.

Word operators fold through their one definition in `words`, at their
width; a node that would fault when run (a shift count out of range, a
division by zero) is left for the run to report at its location.  A
compile-time expression that cannot be evaluated is an ExpandError at
its location.
"""

from __future__ import annotations

import dataclasses

from . import words
from .ir import (
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
)
from .typecheck import NotConst, TypecheckError, const_eval, typecheck

MAX_UNROLL = 1 << 16


class ExpandError(Exception):
    pass


def _copy(node, **changes):
    """`node` with `changes`, keeping its location and type."""
    new = dataclasses.replace(node, **changes)
    if hasattr(node, "loc"):
        new.loc = node.loc
    if hasattr(node, "ty") and "ty" not in changes:
        new.ty = node.ty
    return new


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

    # -------------------------------------------------- expressions

    def subst(self, e, env):
        """Copy an expression, substituting compile-time names and folding.
        `env` maps a source name to its value (an int or bool) or to the
        name it is renamed to."""
        if isinstance(e, EInt) or isinstance(e, EBool):
            return _copy(e, value=int_value(e))  # a word literal modulo its width
        if isinstance(getattr(e, "ty", None), IntTy) and not isinstance(env, _Values):
            env = _Values(env, self.global_vals)  # a compile-time node reads globals' values
        if isinstance(e, EVar):
            name = env.get(e.name, e.name)
            if isinstance(name, (int, bool)):
                return EBool(name) if isinstance(name, bool) else EInt(name)
            return _copy(e, name=name)
        if isinstance(e, EArr):
            return self.fold(_copy(e, name=self.rename(e, env),
                                   index=self.subst(e.index, env)), env)
        if isinstance(e, EMem):
            return _copy(e, addr=self.subst(e.addr, env))
        if isinstance(e, EUn):
            return self.fold(_copy(e, arg=self.subst(e.arg, env)), env)
        if isinstance(e, EBin):
            return self.fold(
                _copy(e, left=self.subst(e.left, env), right=self.subst(e.right, env)),
                env,
            )
        if isinstance(e, EIntr):
            return _copy(e, args=tuple(self.subst(a, env) for a in e.args))
        if isinstance(e, ECall):
            return _copy(e, args=tuple(self.subst(a, env) for a in e.args))
        if isinstance(e, EVecImm):
            values = tuple(EInt(self.const(v, env, "immediate element")) for v in e.values)
            try:
                return EInt(const_eval(_copy(e, values=values), {}))
            except NotConst as exc:
                raise ExpandError(f"{_at(e)}{exc}") from exc
        if isinstance(e, ECast):
            return self.fold(_copy(e, arg=self.subst(e.arg, env)), env)
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
        kids: list
        if isinstance(e, EBin):
            kids = [e.left, e.right]
        elif isinstance(e, (EUn, ECast)):
            kids = [e.arg]
        else:
            return e
        ty = getattr(e, "ty", None)
        reason = "an operand is not known"
        if all(isinstance(k, (EInt, EBool)) for k in kids):
            try:
                if isinstance(ty, WordTy) and not isinstance(e, ECast):
                    n, w = e.lanes if isinstance(e, EBin) and e.lanes else (None, ty.bits)
                    f = words.evaluator(e.op, w, n, unary=isinstance(e, EUn))
                    v = f(*(k.value for k in kids))
                else:
                    v = const_eval(e, {})
                return EBool(v) if isinstance(v, bool) else EInt(v)
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
        if isinstance(s, SDecl):
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
        if isinstance(s, SAssign):
            dests = tuple(self.subst_lval(d, env) for d in s.dests)
            rhs = self.subst(s.rhs, env)
            cond = self.subst(s.cond, env) if s.cond is not None else None
            if isinstance(rhs, ECall):
                return self.maybe_inline(s, dests, rhs, cond, env, fn)
            return [_copy(s, dests=dests, rhs=rhs, cond=cond)]
        if isinstance(s, SIf):
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
        if isinstance(s, SWhile):
            return [
                _copy(
                    s,
                    cond=self.subst(s.cond, env),
                    body=tuple(self.expand_block(s.body, dict(env), False, fn)),
                )
            ]
        if isinstance(s, SFor):
            lo = self.const(s.lo, env, "for lower bound")
            hi = self.const(s.hi, env, "for upper bound")
            count = hi - lo + 1
            if count > MAX_UNROLL:
                raise ExpandError(f"{_at(s)}unrolling {count} iterations exceeds {MAX_UNROLL}")
            out = []
            for i in range(lo, hi + 1):
                env[s.var] = i
                out.extend(self.expand_block(s.body, env, inline_ok, fn))
            env.pop(s.var, None)
            return out
        if isinstance(s, SReturn):
            return [_copy(s, values=tuple(self.subst(v, env) for v in s.values))]
        raise TypeError(f"not a statement: {s!r}")

    def subst_lval(self, lv, env):
        if isinstance(lv, LVar):
            return _copy(lv, name=self.rename(lv, env))
        if isinstance(lv, LArr):
            return _copy(lv, name=self.rename(lv, env), index=self.subst(lv.index, env))
        if isinstance(lv, LMem):
            return _copy(lv, addr=self.subst(lv.addr, env))
        if isinstance(lv, LIgnore):
            return _copy(lv)
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
                out.append(SDecl(p.storage, p.ty, (nm,), None))
                out.append(SAssign((LVar(nm),), None, a))
        # every declared local gets a call-site-unique name
        for nm in _decl_names(callee.body):
            env2[nm] = f"{nm}__{tag}"
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
                out.append(SAssign((d,), None, v))
        return out

    def function_body(self, name: str):
        """Fully expanded body of a non-inline function (memoized);
        inline functions expand per call site instead."""
        if name in self.expanded:
            return self.expanded[name].body
        f = self.funcs[name]
        body = tuple(self.expand_block(f.body, dict(self.env), True, f))
        self.expanded[name] = _copy(f, body=body)
        return body

    # ------------------------------------------------------ globals

    def fresh_global(self, ty, value, hint: str) -> str:
        for g in self.global_decls:
            if g.ty == ty and self.global_vals[g.name] == value:
                return g.name
        name = hint
        existing = {g.name for g in self.global_decls}
        i = 0
        while name in existing:
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
        newp = typecheck(Program((), tuple(self.global_decls), tuple(out_funcs)))
        newp.expanded = True
        return newp


def _decl_names(stmts) -> list[str]:
    out = []
    for s in stmts:
        if isinstance(s, SDecl):
            out.extend(s.names)
        elif isinstance(s, SIf):
            out.extend(_decl_names(s.then))
            out.extend(_decl_names(s.els))
        elif isinstance(s, (SWhile, SFor)):
            out.extend(_decl_names(s.body))
    return out


def _value_expr(ty, value):
    if isinstance(value, tuple):
        return tuple(EInt(v) for v in value)
    return EInt(value)


def _at(s) -> str:
    loc = getattr(s, "loc", None)
    return f"{loc[0]}:{loc[1]}: " if loc else ""


def expand(p: Program) -> Program:
    """Expand a typed program; the result is typed, keeps the contract of
    the module docstring and is marked `expanded`."""
    if not getattr(p, "typed", False):
        raise ExpandError("expand requires a typechecked program")
    return _Expander(p).run()
