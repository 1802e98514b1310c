"""Compile-time expansion.

Turns a typed program into its executable core: every value known
before the run is settled.  Parameters and scalar globals (program-level
or local `global` declarations) are substituted at every read, `for`
loops are kept as repeat nodes or unrolled, calls to inline functions
are spliced in, compile-time expressions are folded, and
constant-condition `if`s are pruned.  A global's initializer is
evaluated at its width; only array globals stay in the result, each
under its own name with literal elements.  A local `global` or `inline`
declaration binds its name from there to the end of its function, as
typecheck scopes it.  The result is typed as typecheck would type it,
without running typecheck again: a copied node keeps every annotation,
a folded or substituted literal takes the type of the node it replaces
(but is an `int` as an array index or the count of a shift that is not
lane-wise, as typecheck types a literal there), the moves that bind an inline call's arguments and results take the
parameter's and the destination's type, and each function's `envtypes`
come from its expanded declarations.

The result is marked `expanded`; it is the only program the back ends
(interp, safety, leakage) accept, and they rely on its contract without
rechecking it: no `for` loop (only repeat nodes), inline call or
immediate vector remains; every compile-time (`int`) expression is a
literal; no scalar global is read (a read is its value) and `globals`
holds arrays only; every array access is typed; every register-array
and global-array index is a literal in bounds, and so is every other
constant index; and every literal count of a shift that is not
lane-wise lies in [0, w] at the shift's width w.  An index or count
that unrolling, inlining or a global's value puts out of range, and a
register-array or global-array index that does not fold, is an
ExpandError at its location, naming the array as the source does.
Expansion is idempotent.

A `for` loop of two or more iterations whose body does not mention its
variable, and whose first iteration leaves the compile-time environment
as it found it (an `inline` or `global` declaration in the body does
not), is expanded from the source once and kept as one repeat node
(ir.SRepeat) of that first iteration: iteration j is the first one with
each name inlining made in it, nm__i{t}, renamed to nm__i{t + j*m},
where m is the first iteration's count of inline calls.  The node's
`names` maps each local that inlining declared in iteration 0 to its
name in every iteration, and the names and tags after the loop are
those of expanding every iteration from the source.  A repeat node
holds no other: a loop inside one is unrolled in it.  Any other loop is
unrolled, each iteration expanded from the source.  The step count and
the analyses are defined on the unrolled statements: codegen runs a
repeat node as a Python loop (see codegen), and the analyses walk it
one iteration at a time (see flow).

Expansion never updates its input: every node it returns is a copy or
a new node, and nothing updates the result afterwards (the back ends
only read it).  A copy is made by the copier of its node class
(`_copier`): a function, compiled once per class from the class's
fields, that assigns each field, side attributes included, from the
original or from the changes it is given.

Word operators fold through their one definition in `words`, at their
width, and a word `x + 0` or `x - 0` that is not lane-wise folds to x
when x has its type; a division by a constant zero is left for the run
to report at its location.  A compile-time expression that cannot be
evaluated is an ExpandError at its location.
"""

from __future__ import annotations

import dataclasses
import functools

from . import words
from .ir import (
    INT,
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
    int_value,
    walk,
)
from .typecheck import NotConst, _loc, const_eval, index_error

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


class _Expander:
    def __init__(self, p: Program):
        self.p = p
        self.env: dict[str, object] = {}  # parameters and program-level globals
        self.arrays: list[GlobalDecl] = []  # the array globals, their elements literals
        self.fresh = 0
        self.funcs = {f.name: f for f in p.funcs}
        self.free: dict[int, bool] = {}  # id of a source `for` -> var_free
        self.made: list = []  # (stem, t) of each name nm__i{t} inlining made

    # -------------------------------------------------- expressions

    def subst(self, e, env):
        """Copy an expression, substituting compile-time names and folding.
        `env` maps a source name to its value (an int or bool: a
        parameter, scalar global, inline variable or loop counter) or to
        the name it is renamed to."""
        k = type(e)
        copy = _copier(k)  # _copy without its repacking of the changes
        if k is EInt or k is EBool:
            return copy(e, value=int_value(e))  # a word literal modulo its width
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
            index = _int_literal(self.subst(e.index, env))
            return _checked(copy(e, name=self.rename(e, env), index=index), e.name)
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
                raise ExpandError(f"{_loc(e)}{exc}") from exc
        raise TypeError(f"not an expression: {e!r}")

    def rename(self, node, env: dict) -> str:
        """The name `node` (a variable or array access) refers to: typecheck
        lets no compile-time name stand where a variable does."""
        return env.get(node.name, node.name)

    def fold(self, e, env):
        """Fold a node whose operands are all literals (see the module
        docstring); a compile-time (`int`) node must fold, and a literal
        shift count must be in range."""
        ty = e.ty
        if type(e) is EBin and e.op in words.SHIFTS and type(ty) is WordTy and not e.lanes:
            e.right = _count(e.right, ty.bits, e)
        kids = (e.left, e.right) if type(e) is EBin else (e.arg,)
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
        elif (type(e) is EBin and e.op in ("+", "-") and not e.lanes and type(ty) is WordTy
              and type(e.right) is EInt and e.right.value == 0 and e.left.ty == ty):
            return e.left  # x + 0, x - 0
        if isinstance(ty, IntTy):
            raise ExpandError(f"{_loc(e)}compile-time expression cannot be evaluated ({reason})")
        return e

    def const(self, e, env, what: str):
        """The value of compile-time `e` under `env`, with words folded at
        their width."""
        v = self.subst(e, env)
        if not isinstance(v, (EInt, EBool)):
            raise ExpandError(f"{_loc(e)}{what} cannot be evaluated at compile time")
        return v.value

    # --------------------------------------------------- statements

    def expand_block(self, stmts, env: dict):
        out = []
        for s in stmts:
            out.extend(self.expand_stmt(s, env))
        return out

    def expand_stmt(self, s, env: dict):
        k = type(s)
        if k is SAssign:
            dests = tuple([self.dest(d, env) for d in s.dests])
            rhs = self.subst(s.rhs, env)
            cond = self.subst(s.cond, env) if s.cond is not None else None
            if type(rhs) is ECall:
                return self.maybe_inline(s, dests, rhs, cond, env)
            return [_copy(s, dests=dests, rhs=rhs, cond=cond)]
        if k is SDecl:
            if s.storage == "inline":
                for nm in s.names:
                    env[nm] = self.const(s.init, env, f"inline {nm}")
                return []
            if s.storage == "global":
                val = self.const(s.init, env, f"global {s.names[0]}")
                for nm in s.names:
                    env[nm] = val
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
                return self.expand_block(taken, env)
            return [
                _copy(
                    s,
                    cond=cond,
                    then=tuple(self.expand_block(s.then, env)),
                    els=tuple(self.expand_block(s.els, env)),
                )
            ]
        if k is SWhile:
            return [
                _copy(
                    s,
                    cond=self.subst(s.cond, env),
                    body=tuple(self.expand_block(s.body, env)),
                )
            ]
        if k is SFor:
            lo = self.const(s.lo, env, "for lower bound")
            hi = self.const(s.hi, env, "for upper bound")
            count = hi - lo + 1
            if count > MAX_UNROLL:
                raise ExpandError(f"{_loc(s)}unrolling {count} iterations exceeds {MAX_UNROLL}")
            out = []
            if count > 0:
                env[s.var] = lo
                before = dict(env) if count > 1 and self.var_free(s) else None
                mark = (len(self.made), self.fresh)
                out = self.expand_block(s.body, env)
                if env == before:
                    out = self.repeat(s, out, count, mark)
                else:
                    for i in range(lo + 1, hi + 1):
                        env[s.var] = i
                        out.extend(self.expand_block(s.body, env))
            env.pop(s.var, None)
            return out
        if k is SRepeat:
            return [_copy(s, body=tuple(self.expand_block(s.body, env)))]
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

    def repeat(self, s: SFor, first: list, count: int, mark: tuple) -> list:
        """Loop s, whose iteration 0, `first`, left the environment as it
        found it, as a repeat node of `first` (none when `first` is
        empty), with the names the later iterations would make accounted
        for in `made` and `fresh`; a repeat node in `first` is unrolled.
        `mark` is (names made, fresh) before iteration 0."""
        made, fresh = mark
        m = self.fresh - fresh  # iteration 0's inline calls
        made = self.made[made:]
        self.made.extend((stem, t + j * m) for j in range(1, count) for stem, t in made)
        self.fresh += (count - 1) * m
        if not first:
            return []
        body = tuple(self.unrolled(first))
        declared = {nm for d in _decls(body) for nm in d.names}
        names = {f"{stem}__i{t}": tuple(f"{stem}__i{t + j * m}" for j in range(count))
                 for stem, t in made if f"{stem}__i{t}" in declared}
        node = SRepeat(count, body, names)
        node.loc = s.loc
        return [node]

    def unrolled(self, stmts) -> list:
        """`stmts` with every repeat node in them replaced by its
        iterations, each iteration after the first expanded again (which
        only renames) under its names."""
        out = []
        for s in stmts:
            k = type(s)
            if k is SRepeat:
                out += s.body
                for j in range(1, s.count):
                    out += self.expand_block(
                        s.body, {nm: per[j] for nm, per in s.names.items()})
            elif k is SIf:
                out.append(_copy(s, then=tuple(self.unrolled(s.then)),
                                 els=tuple(self.unrolled(s.els))))
            elif k is SWhile:
                out.append(_copy(s, body=tuple(self.unrolled(s.body))))
            else:
                out.append(s)
        return out

    def dest(self, d, env):
        """Copy destination `d` as subst copies the access, except that a
        variable is only renamed."""
        if type(d) is EVar:
            return _copy(d, name=self.rename(d, env))
        return _copy(d) if type(d) is LIgnore else self.subst(d, env)

    # ----------------------------------------------------- inlining

    def maybe_inline(self, s, dests, call: ECall, cond, env):
        callee = self.funcs[call.name]
        if not callee.inline:
            return [_copy(s, dests=dests, rhs=call, cond=cond)]
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
                dest = EVar(nm)
                dest.ty = p.ty
                out.append(SDecl(p.storage, p.ty, (nm,), None))
                out.append(SAssign((dest,), a))
        # every declared local gets a call-site-unique name
        for nm in (nm for d in _decls(callee.body) for nm in d.names):
            env2[nm] = f"{nm}__{tag}"
            self.made.append((nm, self.fresh))
        body = self.expand_block(callee.body, env2)
        # the callee's last statement is its one return, if it has one (typecheck)
        values = body.pop().values if body and type(body[-1]) is SReturn else ()
        out.extend(body)
        for d, v in zip(dests, values):
            r = _resized(v, d.ty)  # a literal resized is folded, as expanding it again would
            out.append(SAssign((d,), r if r is v else self.fold(r, env2)))
        return out

    def function(self, f: FuncDecl) -> FuncDecl:
        """Non-inline function f expanded; inline functions expand per
        call site instead."""
        body = tuple(self.expand_block(f.body, dict(self.env)))
        new = _copy(f, body=body)
        new.envtypes = {q.name: (q.storage, q.ty) for q in f.params}
        new.envtypes.update((nm, (d.storage, d.ty)) for d in _decls(body) for nm in d.names)
        return new

    # --------------------------------------------------------- main

    def run(self) -> Program:
        for pd in self.p.params:
            self.env[pd.name] = const_eval(pd.value, self.env)
        for g in self.p.globals:  # in order: an initializer reads the earlier ones
            what = f"global {g.name}"
            if isinstance(g.init, tuple):
                init = tuple(_lit(self.const(v, self.env, what), v) for v in g.init)
                self.arrays.append(_copy(g, init=init))
                self.env[g.name] = g.name
            else:
                self.env[g.name] = self.const(g.init, self.env, what)
        out_funcs = tuple(self.function(f) for f in self.p.funcs if not f.inline)
        newp = Program((), tuple(self.arrays), out_funcs)
        newp.typed = newp.expanded = True
        return newp


def _decls(stmts):
    """The declarations in `stmts`, nested blocks included, in order."""
    return (s for s in walk(stmts) if type(s) is SDecl)


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


def _resized(v, ty):
    """Value `v` moved into a destination of type `ty`: a word of another
    width is resized, as an assignment's right-hand side is."""
    if isinstance(ty, WordTy) and isinstance(v.ty, WordTy) and v.ty.bits != ty.bits:
        v = ECast(ty.bits, v)
        v.ty = ty
    return v


def _checked(access, name: str):
    """`access` (an EArr of source name `name`), unless its index
    is a literal outside the array or the index of a register or global
    array is not a literal."""
    if type(access.index) is not EInt:
        if access.arr_storage != "stack":
            raise ExpandError(f"{_loc(access)}index of {name} cannot be evaluated at compile time")
        return access
    msg = index_error(access, name, access.index.value)
    if msg:
        raise ExpandError(f"{_loc(access)}{msg}")
    return access


def _count(count, bits: int, node):
    """`count`, the count of `node`, a shift at width `bits` that is not
    lane-wise: a literal must lie in [0, bits] (an ExpandError at `node`
    otherwise) and is typed int."""
    if type(count) is EInt:
        msg = words.count_error(bits, int_value(count))
        if msg:
            raise ExpandError(f"{_loc(node)}{msg}")
    return _int_literal(count)


def _int_literal(e):
    """`e`, an array index or a shift count that is not lane-wise, typed
    int if it is a literal, as typecheck types a literal there."""
    return _copy(e, ty=INT) if type(e) is EInt and e.ty is not INT else e


def expand(p: Program) -> Program:
    """Expand a typed program; the result is typed, keeps the contract of
    the module docstring and is marked `expanded`."""
    if not p.typed:
        raise ExpandError("expand requires a typechecked program")
    return _Expander(p).run()
