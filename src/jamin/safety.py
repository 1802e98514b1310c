"""Static memory-range and safety analysis by abstract interpretation.

For each pointer-typed input the analyzer infers a symbolic range of
byte offsets the program may access relative to that input, producing
the memory calling contract (`range(in) = in + [0; inlen)` style).
Scalars are tracked as affine expressions over symbols: the initial
values of the entry parameters plus fresh symbols introduced at join
points.  Every symbol denotes an unsigned quantity.

A symbol's interval keeps small *sets* of lower and upper bounds, each
affine in the parameters: a loop guard often supplies a symbolic bound
(j < inlen) while an enclosing test supplies a constant one (j < 16),
and both are needed, one for the access ranges and one for array
bounds.  An empty upper set means unbounded; lower sets always contain
0.

Joins look for affine relations between variables that changed on the
two sides (a lightweight affine-hull step): when variables move in
lockstep through a loop, relations such as pointer offset =
inlen0 - inlen survive the fixpoint and produce the paper-style
[0; inlen) ranges.  Unstable loop bounds are widened after a few
iterations (upper bounds drop away, lower bounds fall back to 0).

This range domain runs on the forward driver of jamin.flow: a loop is
iterated to its fixpoint recording nothing, then walked once more to
record accesses and findings, and the code after a `return` is
unreachable.  The maybe-uninit findings come from the must-be-assigned
facts of codegen (codegen.Assigned) on the same driver, so they name
exactly the reads that a run checks for an unassigned value.

The analyses take only programs from expand, which has removed `for`
loops and inline calls (see expand); any other program raises
interp.ContractViolation.

Arithmetic is modeled over the integers; 64-bit wraparound is not
represented.  The dynamic cross-check in the test-suite exercises the
reported ranges against instrumented executions.

Numbers are exact and integer-first: an affine value's constant and
coefficients are Python ints, and become `fractions.Fraction`s only
where a result is non-integral (division and right shifts by a
constant, their scaled bounds, and the ratio of two lockstep changes at
a join).  An integral Fraction is always turned back into an int, so
each value has one representation; no float ever enters.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import flow
from .codegen import Assigned
from .interp import require_expanded
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
    WordTy,
)

UNROLL_BEFORE_WIDEN = 4
UNSTABLE_BEFORE_WIDEN = 3
MAX_ITERATIONS = 64
MAX_BOUNDS = 3


class AnalysisFailure(Exception):
    """The program is outside the analyzable fragment at some site."""


# ----------------------------------------------------------------- Aff


class Aff:
    """Affine expression c0 + sum(ci * sym_i) with exact rational coefficients.

    Symbols are ("p", name) for the initial value of an entry parameter
    or ("s", k) for a fresh symbol; all symbols denote unsigned values,
    so a combination with nonnegative coefficients and constant is
    provably nonnegative.  The constant and the coefficients are ints,
    or Fractions when non-integral (see the module docstring); terms
    are sorted by symbol and carry no zero coefficient.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=()):
        self.const = _num(const)
        self.terms = tuple(sorted((s, _num(c)) for s, c in terms if c != 0))

    @classmethod
    def _canonical(cls, const, terms) -> "Aff":
        """An Aff from a normalised constant and already canonical terms."""
        a = object.__new__(cls)
        a.const = const
        a.terms = terms
        return a

    @staticmethod
    def of_sym(sym) -> "Aff":
        return Aff._canonical(0, ((sym, 1),))

    def __eq__(self, other):
        return (
            isinstance(other, Aff)
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.const, self.terms))

    def __add__(self, other):
        if type(other) is not Aff:
            return Aff._canonical(_norm(self.const + _num(other)), self.terms)
        if not other.terms:
            return Aff._canonical(_norm(self.const + other.const), self.terms)
        if not self.terms:
            return Aff._canonical(_norm(self.const + other.const), other.terms)
        d = dict(self.terms)
        for s, c in other.terms:
            d[s] = d.get(s, 0) + c
        return Aff._canonical(_norm(self.const + other.const), _terms(d))

    def __sub__(self, other):
        if type(other) is not Aff:
            return Aff._canonical(_norm(self.const - _num(other)), self.terms)
        if not other.terms:
            return Aff._canonical(_norm(self.const - other.const), self.terms)
        d = dict(self.terms)
        for s, c in other.terms:
            d[s] = d.get(s, 0) - c
        return Aff._canonical(_norm(self.const - other.const), _terms(d))

    def scale(self, k) -> "Aff":
        if k == 1:
            return self
        if k == 0:
            return ZERO
        k = _num(k)
        return Aff._canonical(
            _norm(self.const * k), tuple((s, _norm(c * k)) for s, c in self.terms)
        )

    def without(self, sym) -> "Aff":
        """This value with the term of `sym` dropped."""
        return Aff._canonical(self.const, tuple(t for t in self.terms if t[0] != sym))

    def is_const(self) -> bool:
        return not self.terms

    def syms(self):
        return [s for s, _ in self.terms]

    def coeff(self, sym):
        for s, c in self.terms:
            if s == sym:
                return c
        return 0

    def nonneg(self) -> bool:
        """Provably >= 0 given that all symbols are >= 0."""
        return self.const >= 0 and all(c >= 0 for _, c in self.terms)

    def is_integral(self) -> bool:
        return type(self.const) is int and all(type(c) is int for _, c in self.terms)

    def __repr__(self):
        return f"Aff({self.render()})"

    def render(self) -> str:
        parts = []
        if self.const or not self.terms:
            parts.append(str(self.const))
        for s, c in self.terms:
            name = s[1] if s[0] == "p" else f"s{s[1]}"
            if c == 1:
                parts.append(str(name))
            else:
                cc = str(c) if type(c) is int else f"({c})"
                parts.append(f"{cc}*{name}")
        return " + ".join(parts)


def _norm(x):
    """An integral Fraction as an int; other numbers unchanged."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


def _num(x):
    """Any exact number in Aff's representation (int, else Fraction)."""
    return x if type(x) is int else _norm(Fraction(x))


def _terms(d: dict) -> tuple:
    """Canonical terms from a symbol -> coefficient map."""
    return tuple(sorted((s, _norm(c)) for s, c in d.items() if c != 0))


ZERO = Aff(0)


def _le(a: Aff, b: Aff) -> bool:
    """Provably a <= b (symbols unsigned): b - a is nonneg()."""
    if b.const < a.const:
        return False
    d = dict(b.terms)
    for s, c in a.terms:
        d[s] = d.get(s, 0) - c
    return all(c >= 0 for c in d.values())


# Bound sets.  Lower bounds: the value is >= every member (tightest is
# the max).  Upper bounds: the value is <= every member; an empty upper
# set means unbounded above.


def _add_lo(bounds: tuple, a: Aff) -> tuple:
    kept = []
    for b in bounds:
        if _le(a, b):
            return bounds  # an existing bound is at least as tight
        if not _le(b, a):
            kept.append(b)
    kept.append(a)
    if len(kept) > MAX_BOUNDS:
        kept = sorted(kept, key=lambda x: (not x.is_const(), x.render()))[:MAX_BOUNDS]
        if not any(x.is_const() for x in kept):
            kept[-1] = ZERO
    return tuple(kept)


def _add_hi(bounds: tuple, a: Aff) -> tuple:
    kept = []
    for b in bounds:
        if _le(b, a):
            return bounds
        if not _le(a, b):
            kept.append(b)
    kept.append(a)
    if len(kept) > MAX_BOUNDS:
        kept = sorted(kept, key=lambda x: (not x.is_const(), x.render()))[:MAX_BOUNDS]
    return tuple(kept)


def _join_los(A: tuple, B: tuple) -> tuple:
    out: tuple = ()
    for a in A:
        if any(_le(a, b) for b in B):  # valid on the B side too
            out = _add_lo(out, a)
    for b in B:
        if any(_le(b, a) for a in A):
            out = _add_lo(out, b)
    if not out:
        out = (ZERO,)  # unsigned floor always holds
    return out


def _join_his(A: tuple, B: tuple) -> tuple:
    out: tuple = ()
    for a in A:
        if any(_le(b, a) for b in B):
            out = _add_hi(out, a)
    for b in B:
        if any(_le(a, b) for a in A):
            out = _add_hi(out, b)
    return out


@dataclass(frozen=True)
class Interval:
    los: tuple = (ZERO,)
    his: tuple = ()

    def join(self, other: "Interval") -> "Interval":
        return Interval(_join_los(self.los, other.los), _join_his(self.his, other.his))

    def meet_lo(self, bound: Aff) -> "Interval":
        return Interval(_add_lo(self.los, bound), self.his)

    def meet_hi(self, bound: Aff) -> "Interval":
        return Interval(self.los, _add_hi(self.his, bound))

    def widen_from(self, old: "Interval", thresholds: tuple = ()) -> "Interval":
        los = tuple(a for a in self.los if any(_le(o, a) for o in old.los))
        his = tuple(a for a in self.his if any(_le(a, o) for o in old.his))
        for t in thresholds:
            his = _add_hi(his, t)
        return Interval(los if los else (ZERO,), his)

    def lo_best(self):
        """Tightest (largest) lower bound for display, preferring 0/const."""
        if not self.los:
            return None
        for b in self.los:
            if all(_le(o, b) for o in self.los):
                return b
        return sorted(self.los, key=lambda x: (not x.is_const(), x.render()))[0]

    def hi_best(self):
        if not self.his:
            return None
        for b in self.his:
            if all(_le(b, o) for o in self.his):
                return b
        # incomparable: prefer a parameter-bearing (relational) bound
        return sorted(self.his, key=lambda x: (x.is_const(), x.render()))[0]


TOP = Interval()


@functools.cache
def _width_interval(bits: int) -> Interval:
    return Interval((ZERO,), (Aff((1 << bits) - 1),))


def _iv_add(a: Interval, b: Interval) -> Interval:
    los: tuple = ()
    for x in a.los:
        for y in b.los:
            los = _add_lo(los, x + y)
    his: tuple = ()
    for x in a.his:
        for y in b.his:
            his = _add_hi(his, x + y)
    return Interval(los, his)


def _iv_sub(a: Interval, b: Interval) -> Interval:
    los: tuple = ()
    for x in a.los:
        for y in b.his:
            los = _add_lo(los, x - y)
    his: tuple = ()
    for x in a.his:
        for y in b.los:
            his = _add_hi(his, x - y)
    return Interval(los, his)


def _iv_mul(a: Interval, b: Interval) -> Interval:
    ah, bh = a.hi_best(), b.hi_best()
    if (
        all(x.nonneg() for x in a.los)
        and all(x.nonneg() for x in b.los)
        and ah is not None
        and bh is not None
        and ah.is_const()
        and bh.is_const()
    ):
        return Interval((ZERO,), (Aff(ah.const * bh.const),))
    return Interval((ZERO,), ())


def _scaled_bound(b: Aff, k: Fraction, is_lo: bool) -> Aff:
    """Sound bound for floor(x * k) given a bound for x (k > 0)."""
    a = b.scale(k)
    if a.is_integral():
        return a
    return a - 1 if is_lo else a


# ---------------------------------------------------------------- state


class AbsState:
    __slots__ = ("vals", "intervals")

    def __init__(self, vals=None, intervals=None):
        self.vals: dict[str, Aff] = vals if vals is not None else {}
        self.intervals: dict[object, Interval] = (
            intervals if intervals is not None else {}
        )

    def copy(self) -> "AbsState":
        return AbsState(dict(self.vals), dict(self.intervals))

    def prune(self) -> "AbsState":
        """Drop interval entries for symbols no value refers to."""
        live = set()
        for a in self.vals.values():
            live.update(a.syms())
        self.intervals = {s: iv for s, iv in self.intervals.items() if s in live}
        return self

    def __eq__(self, other):
        return (
            isinstance(other, AbsState)
            and self.vals == other.vals
            and self.intervals == other.intervals
        )

    def resolve_bounds(self, a: Aff, is_lo: bool) -> tuple:
        """Parameter-affine bounds for an affine value.

        Fresh symbols are substituted by their stored bounds whole, so
        that a symbolic bound like (lam - 1) cancels against a -lam
        term in the value before anything is approximated.  The search
        is a small breadth-limited frontier over the bound sets.
        """
        frontier = [(a, 0)]
        results: tuple = ()
        while frontier:
            x, depth = frontier.pop()
            # terms are sorted, so the first fresh symbol follows the
            # parameters
            for sub, c in x.terms:
                if sub[0] == "s":
                    break
            else:
                results = _add_lo(results, x) if is_lo else _add_hi(results, x)
                continue
            if depth > 16 or len(frontier) > 64:
                continue  # drop this candidate (sound: fewer bounds)
            base = x.without(sub)
            iv = self.intervals.get(sub, TOP)
            want_lo = is_lo if c > 0 else not is_lo
            for side in iv.los if want_lo else iv.his:
                frontier.append((base + side.scale(c), depth + 1))
        return results

    def interval_of(self, a: Aff) -> Interval:
        if all(s[0] == "p" for s, _ in a.terms):
            return Interval((a,), (a,))
        los = self.resolve_bounds(a, True)
        his = self.resolve_bounds(a, False)
        return Interval(los, his)


# ------------------------------------------------------------- findings


@dataclass(frozen=True)
class Finding:
    kind: str  # div-by-zero | array-bounds | maybe-uninit | analysis
    where: str
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.detail}"


def _site(node) -> str:
    loc = getattr(node, "loc", None)
    return f"{loc[0]}:{loc[1]}" if loc else "?"


# --------------------------------------------------------------- report


@dataclass
class RangeReport:
    """Per-input access ranges; a None entry means the input is never
    used as a base (printed "empty")."""

    order: list
    ranges: dict  # name -> (lo Aff|None, hi Aff|None) or None
    failures: list = field(default_factory=list)
    findings: list = field(default_factory=list)  # Finding, as check_safety

    def machine_lines(self) -> list[str]:
        out = []
        for name in self.order:
            r = self.ranges.get(name)
            if r is None:
                out.append(f"range({name}) = empty")
            else:
                lo, hi = r
                out.append(
                    f"range({name}) = {name} + [{_render_bound(lo)}; {_render_bound(hi)})"
                )
        return out

    def text_lines(self) -> list[str]:
        out = []
        for name in self.order:
            r = self.ranges.get(name)
            if r is None:
                out.append(f"range({name}) : ∅")
            else:
                lo, hi = r
                out.append(
                    f"range({name}) : {name} + [{_render_bound(lo)}; {_render_bound(hi)}["
                )
        return out

    def bound_range(self, base: str, params: dict):
        """Concretize the range for `base` under parameter values."""
        r = self.ranges.get(base)
        if r is None:
            return None
        lo, hi = r
        return (_eval_bound(lo, params, -1), _eval_bound(hi, params, +1))


def _eval_bound(b: Aff | None, params: dict, inf_sign: int):
    if b is None:
        return inf_sign * float("inf")
    v = b.const
    for s, c in b.terms:
        if s[0] != "p":
            return inf_sign * float("inf")
        v += c * params[s[1]]
    return v


def _render_bound(b: Aff | None) -> str:
    return "inf" if b is None else b.render()


# ------------------------------------------------------------- analyzer


class _Analyzer:
    def __init__(self, p: Program, entry: str, pointers, tracked):
        require_expanded(p, "safety analysis")
        self.p = p
        self.fn = p.func(entry)
        param_names = [q.name for q in self.fn.params]
        for n in list(pointers) + list(tracked):
            if n not in param_names:
                raise AnalysisFailure(f"{n!r} is not a parameter of {entry}")
        self.pointers = set(pointers)
        self.tracked = set(tracked)
        self.param_names = param_names
        self.psym = {n: ("p", n) for n in param_names}
        self.accesses: dict[str, tuple[tuple, tuple]] = {}  # base -> (los, his)
        self.failures: list[str] = []
        self.findings: list[Finding] = []
        self.recording = False
        self.loop_syms: dict[tuple[int, str], object] = {}
        self.widen_state: dict[int, int] = {}
        self.sym_numbers = itertools.count(1)

    def fresh_sym(self):
        return ("s", next(self.sym_numbers))

    def loop_sym(self, key: int, var: str):
        """The fresh symbol that stands for `var` at the join `key`."""
        sym = self.loop_syms.get((key, var))
        if sym is None:
            sym = self.loop_syms[(key, var)] = self.fresh_sym()
        return sym

    # ---------------------------------------------------- expressions

    def eval(self, st: AbsState, e) -> tuple[Aff | None, Interval]:
        kind = type(e)
        if kind is EInt:
            a = Aff(e.value)
            return a, Interval((a,), (a,))
        if kind is EVar:
            a = st.vals.get(e.name)
            if a is None:
                return None, _opaque_interval(e)
            return a, st.interval_of(a)
        if kind is ECast:
            a, iv = self.eval(st, e.arg)
            wiv = _width_interval(e.width)
            if a is not None and _contained(iv, wiv):
                return a, iv
            return None, wiv
        if kind is EBin:
            return self.eval_bin(st, e)
        if kind is EUn:
            self.eval(st, e.arg)
            return None, _opaque_interval(e)
        if kind is EMem:
            a, _ = self.eval(st, e.addr)
            self.record_access(st, e, a, (e.width or 64) // 8)
            return None, _width_interval(e.width or 64)
        if kind is EArr:
            self.check_index(st, e, e.name, e.index, e.width, e.byte_mode)
            return None, _opaque_interval(e)
        if kind is EIntr:
            return self.eval_intr(st, e)
        if kind is EBool:
            return None, TOP
        raise TypeError(f"not an expression: {e!r}")

    def eval_bin(self, st: AbsState, e: EBin) -> tuple[Aff | None, Interval]:
        op = e.op
        la, liv = self.eval(st, e.left)
        ra, riv = self.eval(st, e.right)
        if op == "/" or op == "%":
            if self.recording and not _excludes_zero(riv):
                self.findings.append(
                    Finding("div-by-zero", _site(e), "divisor may be zero")
                )
            if op == "%" and ra is not None and ra.is_const() and ra.const > 0:
                return None, Interval((ZERO,), (Aff(ra.const - 1),))
            if op == "/" and ra is not None and ra.is_const() and ra.const > 0:
                k = Fraction(1, int(ra.const))
                return None, Interval(
                    tuple(_scaled_bound(b, k, True) for b in liv.los),
                    tuple(_scaled_bound(b, k, False) for b in liv.his),
                )
            return None, Interval((ZERO,), liv.his)
        if e.lanes:
            return None, _width_interval(e.lanes[0] * e.lanes[1])
        if op == "+":
            if la is not None and ra is not None:
                a = la + ra
                return a, st.interval_of(a)
            return None, _iv_add(liv, riv)
        if op == "-":
            if la is not None and ra is not None:
                a = la - ra
                return a, st.interval_of(a)
            return None, _iv_sub(liv, riv)
        if op == "*":
            if la is not None and la.is_const() and ra is not None:
                a = ra.scale(la.const)
                return a, st.interval_of(a)
            if ra is not None and ra.is_const() and la is not None:
                a = la.scale(ra.const)
                return a, st.interval_of(a)
            return None, _iv_mul(liv, riv)
        if op == "<<":
            if ra is not None and ra.is_const() and la is not None:
                a = la.scale(1 << int(ra.const))
                return a, st.interval_of(a)
            return None, _opaque_interval(e)
        if op == ">>":
            if ra is not None and ra.is_const():
                k = Fraction(1, 1 << int(ra.const))
                return None, Interval(
                    tuple(_scaled_bound(b, k, True) for b in liv.los),
                    tuple(_scaled_bound(b, k, False) for b in liv.his),
                )
            return None, _opaque_interval(e)
        if op == "&":
            his: tuple = ()
            for b in liv.his + riv.his:
                his = _add_hi(his, b)
            if not his:
                his = _opaque_interval(e).his
            return None, Interval((ZERO,), his)
        # |, ^, rotates, comparisons, booleans
        return None, _opaque_interval(e)

    def eval_intr(self, st: AbsState, e: EIntr):
        from . import isa

        d = isa.lookup(e.name)
        for a in e.args:
            self.eval(st, a)
        if d.mnemonic == "DIV" and self.recording:
            _, div_iv = self.eval(st, e.args[2])
            if not _excludes_zero(div_iv):
                self.findings.append(
                    Finding("div-by-zero", _site(e), "divisor may be zero")
                )
        return None, _opaque_interval(e)

    # ------------------------------------------------- access recording

    def record_access(self, st: AbsState, node, addr: Aff | None, nbytes: int):
        if not self.recording:
            return
        if addr is None:
            self.failures.append(
                f"{_site(node)}: unresolvable address (not affine in tracked inputs)"
            )
            return
        bases = [s for s in addr.syms() if s[0] == "p" and s[1] in self.pointers]
        if len(bases) != 1 or addr.coeff(bases[0]) != 1:
            self.failures.append(
                f"{_site(node)}: address mixes bases or has no pointer base "
                f"({addr.render()})"
            )
            return
        base = bases[0][1]
        off = addr - Aff.of_sym(bases[0])
        iv = st.interval_of(off)
        los: tuple = ()
        for b in iv.los:
            sb = self._sanitize(b, is_lo=True)
            if sb is not None:
                los = _add_lo(los, sb)
        his: tuple = ()
        for b in iv.his:
            sb = self._sanitize(b + nbytes, is_lo=False)
            if sb is not None:
                his = _add_hi(his, sb)
        old = self.accesses.get(base)
        if old is None:
            self.accesses[base] = (los, his)
        else:
            self.accesses[base] = (_join_los(old[0], los), _join_his(old[1], his))

    def _sanitize(self, b: Aff, is_lo: bool) -> Aff | None:
        """Keep only tracked-parameter symbols in a reported bound."""
        const = b.const
        terms = []
        for s, c in b.terms:
            if s[0] == "p" and s[1] in self.tracked:
                terms.append((s, c))
                continue
            if s[0] == "p":
                # untracked parameter, known range [0, inf)
                if (c > 0) == (not is_lo):
                    return None  # the bound escapes to +/- infinity
                continue  # its minimal contribution is 0
            return None  # leftover fresh symbol: not expressible
        return Aff._canonical(const, tuple(terms))

    # ------------------------------------------------- index findings

    def check_index(self, st: AbsState, node, name, index, width, byte_mode):
        _, iv = self.eval(st, index)
        if not self.recording:
            return
        ty = self.fn.envtypes.get(name, (None, None))[1]
        if not isinstance(ty, ArrayTy):
            return
        elem_bytes = (width or ty.bits) // 8
        total = ty.length * ty.bits // 8
        step = 1 if byte_mode else elem_bytes
        limit = (total - elem_bytes) // step if step else 0
        ok_lo = any(b.nonneg() for b in iv.los)
        ok_hi = any(_le(b, Aff(limit)) for b in iv.his)
        if not (ok_lo and ok_hi):
            self.findings.append(
                Finding(
                    "array-bounds",
                    _site(node),
                    f"index into {name} may leave its bounds",
                )
            )

    # ------------------------------------------------------ statements

    copy = staticmethod(AbsState.copy)

    def assign_var(self, st: AbsState, name, aff: Aff | None, iv: Interval):
        if aff is not None:
            st.vals[name] = aff
            return
        sym = self.fresh_sym()
        st.intervals[sym] = iv
        st.vals[name] = Aff.of_sym(sym)

    def transfer(self, st: AbsState, s) -> AbsState:
        """The flow transfer (see jamin.flow)."""
        kind = type(s)
        if kind is SAssign:
            return self.t_assign(st, s)
        if kind is SDecl:
            for nm in s.names:
                st.vals.pop(nm, None)
            if s.init is not None and isinstance(s.ty, WordTy):
                a, iv = self.eval(st, s.init)
                self.assign_var(st, s.names[0], a, iv)
            return st
        if kind is SIf or kind is SWhile:
            self.eval(st, s.cond)  # for the findings in its operands
            return st
        if kind is SReturn:
            for v in s.values:
                self.eval(st, v)
            return st
        raise TypeError(f"not a statement: {s!r}")

    def t_assign(self, st: AbsState, s: SAssign) -> AbsState:
        if isinstance(s.rhs, ECall):
            raise AnalysisFailure(
                f"{_site(s)}: calls are not analyzable; expand the program first"
            )
        if isinstance(s.rhs, EIntr) and len(s.dests) != 1:
            from . import isa

            self.eval_intr(st, s.rhs)
            d = isa.lookup(s.rhs.name)
            for lv, w in zip(s.dests, d.dst_widths):
                if isinstance(lv, LVar) and w != "flag":
                    self.assign_var(st, lv.name, None, _width_interval(w))
                elif not isinstance(lv, (LIgnore, LVar)):
                    self.write_other(st, lv)
            return st
        if s.op:
            lv = s.dests[0]
            if isinstance(lv, LVar):
                cur = EVar(lv.name)
                cur.ty = lv.ty
            else:
                cur = _arr_read(lv)
            expr = EBin(s.op, cur, s.rhs, s.lanes)
            expr.ty = getattr(lv, "ty", None)
            expr.loc = getattr(s, "loc", None)
            a, iv = self.eval_bin(st, expr)
            if isinstance(lv, LVar):
                self.assign_var(st, lv.name, a, iv)
            else:
                self.write_other(st, lv)
            return st
        a, iv = self.eval(st, s.rhs)
        if s.cond is not None:
            self.eval(st, s.cond)
            lv = s.dests[0]
            if isinstance(lv, LVar):
                taken = st.copy()
                self.assign_var(taken, lv.name, a, iv)
                return self.join(id(s), st, taken)
            return st
        for lv in s.dests:
            if isinstance(lv, LVar):
                if isinstance(getattr(lv, "ty", None), WordTy):
                    self.assign_var(st, lv.name, a, iv)
                else:
                    st.vals.pop(lv.name, None)
            else:
                self.write_other(st, lv)
        return st

    def write_other(self, st: AbsState, lv):
        if isinstance(lv, LIgnore):
            return
        if isinstance(lv, LMem):
            aa, _ = self.eval(st, lv.addr)
            self.record_access(st, lv, aa, (lv.width or 64) // 8)
            return
        if isinstance(lv, LArr):
            self.check_index(st, lv, lv.name, lv.index, lv.width, lv.byte_mode)
            return
        raise TypeError(f"not an lvalue: {lv!r}")

    # -------------------------------------------------------- loops

    def widen(self, s: SWhile, n: int, old: AbsState, new: AbsState, entry: AbsState,
              body_out: AbsState) -> AbsState:
        """The flow widening (see jamin.flow): from the
        UNROLL_BEFORE_WIDEN-th pass over the body of loop s, once the
        loop has been unstable UNSTABLE_BEFORE_WIDEN times; the loop
        fails after MAX_ITERATIONS passes."""
        if n >= MAX_ITERATIONS:
            raise AnalysisFailure(f"{_site(s)}: loop analysis did not stabilize")
        if n < UNROLL_BEFORE_WIDEN:
            return new
        key = id(s)
        if self.widen_state.get(key, 0) >= UNSTABLE_BEFORE_WIDEN:
            out = new.copy()
            rev = {sym: var for (k, var), sym in self.loop_syms.items() if k == key}
            candidates = self._guard_thresholds(new, s.cond)
            for sym, iv in new.intervals.items():
                o = old.intervals.get(sym)
                if o is None or o == iv:
                    continue
                ths: tuple = ()
                var = rev.get(sym)
                if var is not None:
                    for t in candidates:
                        if sym in t.syms():
                            continue
                        if self._inductive_hi(t, var, entry, body_out):
                            ths = ths + (t,)
                out.intervals[sym] = iv.widen_from(o, ths)
            new = out
        if new != old:
            self.widen_state[key] = self.widen_state.get(key, 0) + 1
        return new

    def _inductive_hi(self, t: Aff, var: str, entry: AbsState,
                      body_out: AbsState) -> bool:
        """Does `var <= t` hold at loop entry and after the body?"""
        for st in (entry, body_out):
            a = st.vals.get(var)
            if a is None:
                return False
            iv = _raw_interval(st, a, None)
            if not any(_le(h, t) for h in iv.his + st.interval_of(a).his):
                return False
        return True

    def _guard_thresholds(self, st: AbsState, cond) -> tuple:
        """Affine guard bounds used as widening thresholds."""
        out: list = []

        def visit(c):
            if isinstance(c, EUn) and c.op == "!":
                visit(c.arg)
            elif isinstance(c, EBin) and c.op in ("&&", "||"):
                visit(c.left)
                visit(c.right)
            elif isinstance(c, EBin) and c.op in ("<", "<=", ">", ">=", "=="):
                for side in (c.left, c.right):
                    a, _ = self.eval(st, side)
                    if a is not None:
                        out.append(a)
                        out.append(a + 1)

        visit(cond)
        return tuple(out)

    # --------------------------------------------------------- joins

    def join(self, key: int, a: AbsState, b: AbsState) -> AbsState:
        if a == b:
            return a.copy()
        out = AbsState()
        for sym in set(a.intervals) | set(b.intervals):
            ia = a.intervals.get(sym)
            ib = b.intervals.get(sym)
            if ia is None:
                out.intervals[sym] = ib
            elif ib is None:
                out.intervals[sym] = ia
            else:
                out.intervals[sym] = ia.join(ib)
        names = [n for n in a.vals if n in b.vals]
        changed = [n for n in names if a.vals[n] != b.vals[n]]
        for n in names:
            if n not in changed:
                out.vals[n] = a.vals[n]
        if not changed:
            return out.prune()
        # pick the driver that relates the most other changed variables,
        # preferring one free of pointer symbols so relations stay
        # expressed over the pointer bases
        clean = [
            n
            for n in changed
            if not any(
                s[0] == "p" and s[1] in self.pointers
                for s in a.vals[n].syms() + b.vals[n].syms()
            )
        ]
        candidates = (clean or changed)[:8]
        driver = candidates[0]
        diffs = {n: a.vals[n] - b.vals[n] for n in changed}
        if len(candidates) > 1 and len(changed) > 1:
            best = -1
            for cand in candidates:
                du_c = diffs[cand]
                score = 0
                for n in changed:
                    if n == cand:
                        continue
                    if _ratio(diffs[n], du_c) is not None:
                        score += 1
                if score > best:
                    best = score
                    driver = cand
        du = diffs[driver]
        lam = self.loop_sym(key, driver)
        ia = _raw_interval(a, a.vals[driver], lam)
        ib = _raw_interval(b, b.vals[driver], lam)
        out.intervals[lam] = ia.join(ib)
        out.vals[driver] = Aff.of_sym(lam)
        for n in changed:
            if n == driver:
                continue
            c = _ratio(diffs[n], du)
            if c is not None:
                r = a.vals[n] - a.vals[driver].scale(c)
                rb = b.vals[n] - b.vals[driver].scale(c)
                if r == rb and lam not in r.syms():
                    out.vals[n] = Aff.of_sym(lam).scale(c) + r
                    continue
            sym = self.loop_sym(key, n)
            iv = _raw_interval(a, a.vals[n], sym).join(
                _raw_interval(b, b.vals[n], sym)
            )
            out.intervals[sym] = iv
            out.vals[n] = Aff.of_sym(sym)
        return out.prune()

    # --------------------------------------------------- refinement

    def refine(self, st: AbsState, cond, taken: bool) -> AbsState:
        kind = type(cond)
        if kind is EUn and cond.op == "!":
            return self.refine(st, cond.arg, not taken)
        if kind is EBin and cond.op == "&&" and taken:
            st = self.refine(st, cond.left, True)
            return self.refine(st, cond.right, True)
        if kind is EBin and cond.op == "||" and not taken:
            st = self.refine(st, cond.left, False)
            return self.refine(st, cond.right, False)
        if kind is not EBin or cond.op not in ("<", "<=", ">", ">=", "=="):
            return st
        op = cond.op
        if not taken:
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!="}[op]
            if op == "!=":
                return st
        left, right = cond.left, cond.right
        if op == ">":
            left, right, op = right, left, "<"
        elif op == ">=":
            left, right, op = right, left, "<="
        la, liv = self.eval(st, left)
        ra, riv = self.eval(st, right)
        # prefer the other side's exact affine form (it may mention
        # fresh symbols that cancel at resolution time), falling back
        # to its resolved interval bounds
        r_his = (ra,) if ra is not None else riv.his
        r_los = (ra,) if ra is not None else riv.los
        l_his = (la,) if la is not None else liv.his
        l_los = (la,) if la is not None else liv.los
        if op == "==":
            for b in r_los:
                self._bound_sym(st, la, b, None)
            for b in r_his:
                self._bound_sym(st, la, None, b)
            for b in l_los:
                self._bound_sym(st, ra, b, None)
            for b in l_his:
                self._bound_sym(st, ra, None, b)
            return st
        delta = 1 if op == "<" else 0
        for b in r_his:
            self._bound_sym(st, la, None, b - delta)
        for b in l_los:
            self._bound_sym(st, ra, b + delta, None)
        return st

    def _bound_sym(self, st: AbsState, a: Aff | None, lo: Aff | None, hi: Aff | None):
        """Refine the interval of the single fresh symbol of `a`."""
        if a is None:
            return
        frees = [s for s in a.syms() if s[0] == "s"]
        if len(frees) != 1:
            return
        sym = frees[0]
        if (lo is not None and sym in lo.syms()) or (
            hi is not None and sym in hi.syms()
        ):
            return  # self-referential bound
        c = a.coeff(sym)
        rest = a.without(sym)
        iv = st.intervals.get(sym, TOP)
        rest_iv = st.interval_of(rest)
        # a = c*sym + rest and lo <= a <= hi
        if c == 1:
            if lo is not None:
                for rb in rest_iv.his:
                    iv = iv.meet_lo(lo - rb)
            if hi is not None:
                for rb in rest_iv.los:
                    iv = iv.meet_hi(hi - rb)
        elif c == -1:
            if hi is not None:
                for rb in rest_iv.los:
                    iv = iv.meet_lo(rb - hi)
            if lo is not None:
                for rb in rest_iv.his:
                    iv = iv.meet_hi(rb - lo)
        else:
            return
        st.intervals[sym] = iv

    # ------------------------------------------------------- driver

    def initial_state(self) -> AbsState:
        st = AbsState()
        for q in self.fn.params:
            if isinstance(q.ty, WordTy):
                st.vals[q.name] = Aff.of_sym(self.psym[q.name])
        return st

    def run(self) -> RangeReport:
        """The one recording pass: ranges, failures and findings.

        An AnalysisFailure propagates; the findings recorded before it
        stay in self.findings.
        """
        self.recording = True
        flow.forward(self.fn.body, self.initial_state(), self)
        self.findings.extend(_uninit_findings(self.p, self.fn))
        order = [n for n in self.param_names if n in self.pointers or n in self.tracked]
        ranges = {}
        for n in order:
            if n in self.pointers and n in self.accesses:
                los, his = self.accesses[n]
                ranges[n] = (
                    Interval(los, ()).lo_best(),
                    Interval((), his).hi_best(),
                )
            else:
                ranges[n] = None
        return RangeReport(
            order=order, ranges=ranges, failures=self.failures, findings=self.findings
        )


def _raw_interval(st: AbsState, a: Aff, target_sym) -> Interval:
    """Interval of an affine value that preserves symbolic bounds when
    the value is a single fresh symbol plus a parameter-affine offset
    (resolution would erase relations needed for join stability)."""
    frees = [s for s in a.syms() if s[0] == "s"]
    if len(frees) == 1 and a.coeff(frees[0]) == 1:
        sym = frees[0]
        rest = a.without(sym)
        if all(s[0] == "p" for s in rest.syms()):
            iv = st.intervals.get(sym, TOP)
            los = tuple(b + rest for b in iv.los if target_sym not in b.syms())
            his = tuple(b + rest for b in iv.his if target_sym not in b.syms())
            if not los and rest.nonneg():
                los = (ZERO,)
            return Interval(los, his)
    return st.interval_of(a)


def _arr_read(lv: LArr) -> EArr:
    e = EArr(lv.name, lv.index, lv.width, lv.byte_mode)
    e.ty = getattr(lv, "ty", None)
    e.loc = getattr(lv, "loc", None)
    return e


def _expr_bits(e) -> int | None:
    ty = getattr(e, "ty", None)
    if isinstance(ty, WordTy):
        return ty.bits
    return None


def _opaque_interval(e) -> Interval:
    w = _expr_bits(e)
    return _width_interval(w) if w else TOP


def _contained(inner: Interval, outer: Interval) -> bool:
    lo_ok = any(any(_le(L, l) for L in outer.los) for l in inner.los)
    hi_ok = any(any(_le(h, H) for H in outer.his) for h in inner.his)
    return lo_ok and hi_ok


def _excludes_zero(iv: Interval) -> bool:
    return any(_le(Aff(1), b) for b in iv.los) or any(
        _le(b, Aff(-1)) for b in iv.his
    )


def _ratio(dv: Aff, du: Aff):
    """The constant c with dv == c*du, if one exists (an int or a
    Fraction, never a float)."""
    if du.is_const() and du.const == 0:
        return None
    if du.const != 0:
        c = _norm(Fraction(dv.const, du.const))
    else:
        s, k = du.terms[0]
        c = _norm(Fraction(dv.coeff(s), k))
    return c if dv == du.scale(c) else None


# ----------------------------------------------------------- public API


def analyze(p: Program, entry: str, pointers, tracked) -> RangeReport:
    """Infer per-pointer symbolic access ranges (the calling contract),
    with the static findings of check_safety in the report's `findings`.
    Raises AnalysisFailure where the program leaves the analyzable
    fragment."""
    return _Analyzer(p, entry, pointers, tracked).run()


def check_safety(p: Program, entry: str, pointers=(), tracked=()) -> list[Finding]:
    """Static findings: possible division by zero, array indices out of
    bounds, and scalar variables possibly read before assignment.  An
    AnalysisFailure becomes an `analysis` finding."""
    an = _Analyzer(p, entry, pointers, tracked)
    try:
        return an.run().findings
    except AnalysisFailure as exc:
        return [
            *an.findings,
            Finding("analysis", "?", str(exc)),
            *_uninit_findings(an.p, an.fn),
        ]


class _Uninit(Assigned):
    """The maybe-uninit findings of a function: a read of each scalar
    local that codegen checks at run time, its must-be-assigned facts not
    proving the local defined there.  The facts only shrink while a loop
    is iterated to its fixpoint, so every pass may record."""

    def __init__(self, p, fn):
        super().__init__(p, fn)
        self.findings: list[Finding] = []
        # the scalar locals not reported yet (arrays are checked per element)
        self.unreported = {n for n, (_, ty) in self.types.items() if not isinstance(ty, ArrayTy)}

    def check(self, f, e, names=None):
        """Report the reads of e (or of `names`, at e) that the facts f do
        not prove defined."""
        if e is None or f is None:
            return
        for v in flow.reads(e) if names is None else names:
            if v not in self.unreported or v in f.defined:
                continue
            self.unreported.discard(v)
            self.findings.append(Finding("maybe-uninit", _site(e),
                                         f"{v} may be read before assignment"))

    def transfer(self, f, s):
        """The reads of s, in the order and with the facts codegen emits
        them, checked; then Assigned's transfer."""
        k = type(s)
        if k is SDecl:
            self.check(super().transfer(f, s, 0), s.init)
        elif k is SAssign:
            if s.op and type(s.dests[0]) is LVar:
                self.check(f, s, [s.dests[0].name])
            self.check(f, s.rhs)
            self.check(f, s.cond)
            for i, lv in enumerate(s.dests):
                if type(lv) is LArr or type(lv) is LMem:
                    e = lv.index if type(lv) is LArr else lv.addr
                    self.check(super().transfer(f, s, i), e)
        elif k is SReturn:
            for v in s.values:
                self.check(f, v)
        else:
            self.check(f, s.cond)
        return super().transfer(f, s)


def _uninit_findings(p, fn) -> list[Finding]:
    d = _Uninit(p, fn)
    flow.forward(fn.body, d.entry(), d)
    return d.findings


def preanalyze(p: Program, entry: str) -> set:
    """Suggest parameters worth tracking: scalars that flow into loop
    bounds (and, through them, into address arithmetic)."""
    require_expanded(p, "preanalyze")
    fn = p.func(entry)
    seeds: set[str] = set()
    defs: dict[str, set] = {}

    def collect(stmts):
        for s in stmts:
            if isinstance(s, SWhile):
                seeds.update(flow.reads(s.cond))
                collect(s.body)
            elif isinstance(s, SIf):
                collect(s.then)
                collect(s.els)
            else:
                reads, rebinds = flow.summary(s)
                for nm in rebinds:
                    defs.setdefault(nm, set()).update(reads)

    collect(fn.body)
    closure = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for src in defs.get(v, ()):
            if src not in closure:
                closure.add(src)
                frontier.append(src)
    return {q.name for q in fn.params} & closure
