"""Static memory-range and safety analysis by abstract interpretation.

For each pointer-typed input the analyzer infers a symbolic range of
byte offsets the program may access relative to that input, producing
the memory calling contract (`range(in) = in + [0; inlen)` style).
The relevant scalars of the entry function are tracked as affine
expressions over symbols: the initial values of the entry parameters
plus fresh symbols introduced at join points.  Every symbol denotes an
unsigned quantity.

A scalar is relevant when its value can reach a memory address, an
array index, the test of an `if` or `while`, or a divisor (of `/`, `%`
or the divisor operand of DIV), through the assignments and
declarations that define it (a guarded assignment also reads its
destination).  The counters and pointers stepped by constants are
relevant too: a loop's join may relate the others through one of
them.  A statement that writes only irrelevant scalars, `_` or array
elements at constant indices, and holds no memory access, no computed
index and no division, is inert: it is not evaluated, and only forgets
the scalars it writes, which then read as opaque values of their type.
This is a sparse analysis in the sense of Oh et al. (PLDI 2012): its
ranges and findings are those of tracking every scalar, and unrolled
cipher rounds, whose values reach none of these uses, cost next to
nothing.  The relevance pass visits the body of a repeat node (a `for`
loop expand kept whole) once, and its iterations share their private
locals' relevance; the range and maybe-uninit passes walk its
iterations until one changes nothing they observe (jamin.flow).  A
failure or finding identical to one already recorded (same kind, site
and message), as every iteration of a loop records it, is recorded
once.

A symbol's interval keeps small *sets* of lower and upper bounds, each
affine in the parameters: a loop guard often supplies a symbolic bound
(j < inlen) while an enclosing test supplies a constant one (j < 16),
and both are needed, one for the access ranges and one for array
bounds.  An empty set means unbounded on its side.  A value is
unsigned, so a join keeps 0 as its lower bound when no other holds on
both sides; an access's offset is signed, and its range may have no
lower bound (printed -inf).

Joins look for affine relations between variables that changed on the
two sides (a lightweight affine-hull step): when variables move in
lockstep through a loop, relations such as pointer offset =
inlen0 - inlen survive the fixpoint and produce the paper-style
[0; inlen) ranges.  A loop bound is widened on every pass whose join
changes it, from the first: a bound of the join that is not at least
as tight as one of the head's drops away (upper bounds to none, lower
bounds to 0), and thresholds take its place (Blanchet et al., PLDI
2003).  They are the affine operands a of the comparisons in the
loop's test and in the tests and assignment guards of its body, each
as a and a + 1, kept on either side where the scalar provably keeps to
them at loop entry and after the body.  So a counter capped by a test
in the body, `if (j < 20) { j = j + 1; }`, keeps its cap at once, and
a loop of the corpus reaches its fixpoint in three passes.  flow
resumes a loop from its kept head on each pass over the loops around
it, so no pass count is kept across fixpoints.

This range domain runs on the forward driver of jamin.flow: a loop is
iterated to its fixpoint recording nothing, then walked once more to
record accesses and findings.  The test of an `if` or `while` records
once, when it is evaluated; refining a branch by it records nothing.
The guard of an assignment refines the assignment's two sides in the
same way.  The maybe-uninit findings come from the must-be-assigned
facts of codegen (codegen.Assigned) on the same driver, so they name
exactly the reads that a run checks for an unassigned value.

The analyses take only programs from expand, which has replaced `for`
loops by repeat nodes and unrolled statements and removed inline calls
(see expand); any other program raises interp.ContractViolation.

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
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

from . import flow, isa
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
    LIgnore,
    Program,
    SAssign,
    SDecl,
    SIf,
    SRepeat,
    SReturn,
    SWhile,
    WordTy,
)

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
# the max).  Upper bounds (`upper`): the value is <= every member; an
# empty upper set means unbounded above.


def _tighter(a: Aff, b: Aff, upper: bool) -> bool:
    """Provably a is a bound at least as tight as b."""
    return _le(a, b) if upper else _le(b, a)


def _add(bounds: tuple, a: Aff, upper: bool) -> tuple:
    """The bound set with a added; past MAX_BOUNDS the constant bounds
    are kept first, and a lower set keeps one (0 if need be)."""
    kept = []
    for b in bounds:
        if _tighter(b, a, upper):
            return bounds
        if not _tighter(a, b, upper):
            kept.append(b)
    kept.append(a)
    if len(kept) > MAX_BOUNDS:
        kept = sorted(kept, key=lambda x: (not x.is_const(), x.render()))[:MAX_BOUNDS]
        if not upper and not any(x.is_const() for x in kept):
            kept[-1] = ZERO
    return tuple(kept)


def _join(A: tuple, B: tuple, upper: bool) -> tuple:
    """The bounds of A or B that hold on both sides."""
    out: tuple = ()
    for X, Y in ((A, B), (B, A)):
        for x in X:
            if any(_tighter(y, x, upper) for y in Y):
                out = _add(out, x, upper)
    return out


def _best(bounds: tuple, upper: bool):
    """The tightest bound for display, or None for an empty set; of
    incomparable ones, a constant lower bound or a parameter-bearing
    (relational) upper bound."""
    if not bounds:
        return None
    for b in bounds:
        if all(_tighter(b, o, upper) for o in bounds):
            return b
    return sorted(bounds, key=lambda x: (x.is_const() == upper, x.render()))[0]


@dataclass(frozen=True)
class Interval:
    los: tuple = (ZERO,)
    his: tuple = ()

    def join(self, other: "Interval") -> "Interval":
        """The bounds that hold on both sides; a value is unsigned, so its
        lower bounds keep 0 when nothing else holds."""
        return Interval(_join(self.los, other.los, False) or (ZERO,),
                        _join(self.his, other.his, True))

    def meet(self, bound: Aff, upper: bool) -> "Interval":
        if upper:
            return Interval(self.los, _add(self.his, bound, True))
        return Interval(_add(self.los, bound, False), self.his)

    def widen_from(self, old: "Interval", lower: tuple = (), upper: tuple = ()) -> "Interval":
        """This interval widened from `old`: a bound is kept where it is at
        least as tight as one of old's, and the thresholds `lower` and
        `upper`, which the caller has proved to hold, are added; an empty
        lower set falls back to 0."""
        los = tuple(a for a in self.los if any(_tighter(a, o, False) for o in old.los))
        his = tuple(a for a in self.his if any(_tighter(a, o, True) for o in old.his))
        for t in lower:
            los = _add(los, t, False)
        for t in upper:
            his = _add(his, t, True)
        return Interval(los or (ZERO,), his)

    def negated(self) -> "Interval":
        return Interval(tuple(b.scale(-1) for b in self.his), tuple(b.scale(-1) for b in self.los))


TOP = Interval()


@functools.cache
def _width_interval(bits: int) -> Interval:
    return Interval((ZERO,), (Aff((1 << bits) - 1),))


def _iv_add(a: Interval, b: Interval) -> Interval:
    sides = []
    for upper, xs, ys in ((False, a.los, b.los), (True, a.his, b.his)):
        out: tuple = ()
        for x in xs:
            for y in ys:
                out = _add(out, x + y, upper)
        sides.append(out)
    return Interval(*sides)


def _iv_mul(a: Interval, b: Interval) -> Interval:
    """Nonnegative sides bound a product by their least constant upper bounds."""
    ah, bh = (min((x.const for x in iv.his if x.is_const()), default=None) for iv in (a, b))
    if ah is None or bh is None or not all(x.nonneg() for x in a.los + b.los):
        return Interval((ZERO,), ())
    return Interval((ZERO,), (Aff(ah * bh),))


def _scaled(iv: Interval, k: Fraction) -> Interval:
    """Sound bounds for floor(x * k) given those of x (k > 0): a
    non-integral lower bound drops by 1."""
    los = tuple(a if a.is_integral() else a - 1 for a in (b.scale(k) for b in iv.los))
    return Interval(los, tuple(b.scale(k) for b in iv.his))


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

    def resolve_bounds(self, a: Aff, upper: bool) -> tuple:
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
                results = _add(results, x, upper)
                continue
            if depth > 16 or len(frontier) > 64:
                continue  # drop this candidate (sound: fewer bounds)
            base = x.without(sub)
            iv = self.intervals.get(sub, TOP)
            for side in iv.his if upper == (c > 0) else iv.los:
                frontier.append((base + side.scale(c), depth + 1))
        return results

    def interval_of(self, a: Aff) -> Interval:
        if all(s[0] == "p" for s, _ in a.terms):
            return Interval((a,), (a,))
        return Interval(self.resolve_bounds(a, False), self.resolve_bounds(a, True))


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
        return self._lines("=", "empty", ")")

    def text_lines(self) -> list[str]:
        return self._lines(":", "∅", "[")

    def _lines(self, sep: str, empty: str, close: str) -> list[str]:
        out = []
        for name in self.order:
            r = self.ranges.get(name)
            shown = empty if r is None else (
                f"{name} + [{_render_bound(r[0], '-inf')}; {_render_bound(r[1], 'inf')}{close}")
            out.append(f"range({name}) {sep} {shown}")
        return out

def _render_bound(b: Aff | None, missing: str) -> str:
    return missing if b is None else b.render()


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
        self.at = None
        self.loop_syms: dict[tuple[int, str], object] = {}
        self.heads: dict = {}
        self.guard_operands: dict[int, list] = {}  # id of a loop -> _comparison_operands
        self.minted = 0  # fresh symbols made
        # id of a straight-line statement -> the scalars it rebinds if it
        # is inert, else None: _scan notes the candidates, those that
        # rebind a relevant scalar are dropped
        self.inert: dict[int, tuple | None] = {}
        seeds, defs = _definitions(self.fn.body, self._scan)
        self.relevant = _closure(seeds, defs) | _counters(self.fn, defs)
        self.inert = {k: v if v is not None and self.relevant.isdisjoint(v) else None
                      for k, v in self.inert.items()}

    def _scan(self, s) -> list:
        """The names whose values the analysis uses at s: those read by
        the test of an `if` or `while`, or by a memory address, an array
        index or a divisor (of `/`, `%` or DIV) in a straight-line s.
        Notes in self.inert whether a straight-line s holds no memory
        access, no index that is computed or out of bounds, no `/`, `%`
        or DIV, and writes no array element at such an index."""
        k = type(s)
        if k is SIf or k is SWhile:
            return flow.reads(s.cond)
        out: list = []
        if k is SDecl:
            ok, rebinds = self._scan_expr(s.init, out), s.names
        elif k is SAssign:
            ok = True
            for e in (s.rhs, s.cond, *s.dests):
                ok = self._scan_expr(e, out) and ok
            rebinds = tuple(lv.name for lv in s.dests if type(lv) is EVar)
        else:
            ok, rebinds = True, ()
            for e in s.values:
                ok = self._scan_expr(e, out) and ok
        self.inert[id(s)] = rebinds if ok else None
        return out

    def _scan_expr(self, e, out: list) -> bool:
        """Append to `out` the names that expression or destination e
        reads in an address, an index or a divisor; whether e has none of
        them and no index out of bounds or call."""
        k = type(e)
        if k is EMem:
            flow.reads(e.addr, out)
            return False
        if k is EArr:
            if type(e.index) is EInt:
                return self._in_bounds(e)
            flow.reads(e.index, out)
            return False
        if k is EBin:
            if e.op == "/" or e.op == "%":
                flow.reads(e.right, out)
                self._scan_expr(e.left, out)
                return False
            return self._scan_expr(e.left, out) & self._scan_expr(e.right, out)
        if k is EUn or k is ECast:
            return self._scan_expr(e.arg, out)
        if k is EIntr:
            ok = isa.lookup(e.name).mnemonic != "DIV"
            if not ok:
                flow.reads(e.args[2], out)
            for a in e.args:
                ok = self._scan_expr(a, out) and ok
            return ok
        return k is not ECall  # a name, a constant, `_` or no expression

    def fresh_sym(self):
        self.minted += 1
        return ("s", self.minted)

    def loop_sym(self, key, var: str):
        """The fresh symbol that stands for `var` at the join `key`."""
        sym = self.loop_syms.get((key, var))
        if sym is None:
            sym = self.loop_syms[(key, var)] = self.fresh_sym()
        return sym

    # ---------------------------------------------------- expressions

    def eval(self, st: AbsState, e) -> tuple[Aff | None, Interval | None]:
        """(the affine value of e or None, its interval).  The interval
        of an affine value is None until a caller needs it (_ival)."""
        kind = type(e)
        if kind is EInt:
            a = Aff(e.value)
            return a, Interval((a,), (a,))
        if kind is EVar:
            a = st.vals.get(e.name)
            if a is None:
                return None, _opaque_interval(e)
            return a, None
        if kind is ECast:
            a, iv = self.eval(st, e.arg)
            wiv = _width_interval(e.width)
            if a is not None and _contained(_ival(st, a, iv), wiv):
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
            self.check_index(st, e)
            return None, _opaque_interval(e)
        if kind is EIntr:
            return self.eval_intr(st, e)
        if kind is EBool:
            return None, TOP
        raise TypeError(f"not an expression: {e!r}")

    def eval_bin(self, st: AbsState, e: EBin) -> tuple[Aff | None, Interval | None]:
        op = e.op
        la, liv = self.eval(st, e.left)
        ra, riv = self.eval(st, e.right)
        if la is not None and ra is not None and not e.lanes:
            if op == "+":
                return la + ra, None
            if op == "-":
                return la - ra, None
            if op == "*" and la.is_const():
                return ra.scale(la.const), None
            if op == "*" and ra.is_const():
                return la.scale(ra.const), None
            if op == "<<" and ra.is_const():
                return la.scale(1 << int(ra.const)), None
        liv = _ival(st, la, liv)
        riv = _ival(st, ra, riv)
        if op == "/" or op == "%":
            if self.recording and not _excludes_zero(riv):
                self.note(self.findings, Finding("div-by-zero", _site(e), "divisor may be zero"))
            if op == "%" and ra is not None and ra.is_const() and ra.const > 0:
                return None, Interval((ZERO,), (Aff(ra.const - 1),))
            if op == "/" and ra is not None and ra.is_const() and ra.const > 0:
                return None, _scaled(liv, Fraction(1, int(ra.const)))
            return None, Interval((ZERO,), liv.his)
        if e.lanes:
            return None, _width_interval(e.lanes[0] * e.lanes[1])
        if op == "+":
            return None, _iv_add(liv, riv)
        if op == "-":
            return None, _iv_add(liv, riv.negated())
        if op == "*":
            return None, _iv_mul(liv, riv)
        if op == ">>":
            if ra is not None and ra.is_const():
                return None, _scaled(liv, Fraction(1, 1 << int(ra.const)))
            return None, _opaque_interval(e)
        if op == "&":
            his: tuple = ()
            for b in liv.his + riv.his:
                his = _add(his, b, True)
            if not his:
                his = _opaque_interval(e).his
            return None, Interval((ZERO,), his)
        # |, ^, rotates, comparisons, booleans
        return None, _opaque_interval(e)

    def eval_intr(self, st: AbsState, e: EIntr):
        d = isa.lookup(e.name)
        for a in e.args:
            self.eval(st, a)
        if d.mnemonic == "DIV" and self.recording:
            if not _excludes_zero(_ival(st, *self.eval(st, e.args[2]))):
                self.note(self.findings, Finding("div-by-zero", _site(e), "divisor may be zero"))
        return None, _opaque_interval(e)

    # ------------------------------------------------- access recording

    def record_access(self, st: AbsState, node, addr: Aff | None, nbytes: int):
        if not self.recording:
            return
        if addr is None:
            self.note(self.failures,
                      f"{_site(node)}: unresolvable address (not affine in tracked inputs)")
            return
        bases = [s for s in addr.syms() if s[0] == "p" and s[1] in self.pointers]
        if len(bases) != 1 or addr.coeff(bases[0]) != 1:
            self.note(self.failures, f"{_site(node)}: address mixes bases or has no pointer "
                                     f"base ({addr.render()})")
            return
        base = bases[0][1]
        off = addr - Aff.of_sym(bases[0])
        iv = st.interval_of(off)
        old = self.accesses.get(base)
        sides = []
        for upper, bounds in ((False, iv.los), (True, tuple(b + nbytes for b in iv.his))):
            out: tuple = ()
            for b in bounds:
                sb = self._sanitize(b, upper)
                if sb is not None:
                    out = _add(out, sb, upper)
            # an offset is signed, so no floor at 0 as in Interval.join
            sides.append(out if old is None else _join(old[upper], out, upper))
        self.accesses[base] = tuple(sides)

    def _sanitize(self, b: Aff, upper: bool) -> Aff | None:
        """Keep only tracked-parameter symbols in a reported bound.  The
        others are untracked parameters (AbsState.interval_of leaves no
        fresh symbol), each in [0, inf)."""
        terms = []
        for s, c in b.terms:
            if s[1] in self.tracked:
                terms.append((s, c))
            elif (c > 0) == upper:
                return None  # the bound escapes to +/- infinity
            # else its minimal contribution is 0
        return Aff._canonical(b.const, tuple(terms))

    # ------------------------------------------------- index findings

    def _in_bounds(self, node, iv: Interval | None = None) -> bool:
        """Whether the index of array access `node` stays in the array's
        bounds: decided for a constant index, else from the index's
        interval `iv`."""
        ty = self.fn.envtypes.get(node.name, (None, None))[1]
        if not isinstance(ty, ArrayTy):
            return True
        elem_bytes = (node.width or ty.bits) // 8
        step = 1 if node.byte_mode else elem_bytes
        limit = (ty.length * ty.bits // 8 - elem_bytes) // step if step else 0
        if type(node.index) is EInt:
            return 0 <= node.index.value <= limit
        return any(b.nonneg() for b in iv.los) and any(_le(b, Aff(limit)) for b in iv.his)

    def check_index(self, st: AbsState, node):
        iv = None
        if type(node.index) is not EInt:
            a, iv = self.eval(st, node.index)
            if self.recording:
                iv = _ival(st, a, iv)
        if self.recording and not self._in_bounds(node, iv):
            self.note(self.findings, Finding("array-bounds", _site(node),
                                             f"index into {node.name} may leave its bounds"))

    @staticmethod
    def note(into: list, item):
        """Record failure or finding `item` in `into`, unless an identical
        one (same kind, site and message) is recorded already."""
        if item not in into:
            into.append(item)

    # ------------------------------------------------------ statements

    copy = staticmethod(AbsState.copy)

    def forget(self, st: AbsState, private) -> AbsState:
        """The flow hook (see jamin.flow): st without the values of the
        scalars in `private`."""
        for nm in private:
            st.vals.pop(nm, None)
        return st

    def observable(self, st: AbsState, private) -> tuple:
        """The flow hook (see jamin.flow): the values of the scalars not
        in `private`, the symbols' intervals, and what the analysis has
        recorded: accesses, failures, findings and the symbols made (a
        loop symbol among them)."""
        return ({n: a for n, a in st.vals.items() if n not in private}, dict(st.intervals),
                dict(self.accesses), len(self.failures), len(self.findings), self.minted)

    def assign_var(self, st: AbsState, name, aff: Aff | None, iv: Interval):
        if name not in self.relevant:
            st.vals.pop(name, None)
            return
        if aff is not None:
            st.vals[name] = aff
            return
        sym = self.fresh_sym()
        st.intervals[sym] = iv
        st.vals[name] = Aff.of_sym(sym)

    def transfer(self, st: AbsState, s) -> AbsState:
        """The flow transfer (see jamin.flow).  An inert statement only
        forgets the scalars it rebinds."""
        kind = type(s)
        if kind is SIf or kind is SWhile:
            self.eval(st, s.cond)  # for the findings in its operands
            return st
        dropped = self.inert[id(s)]
        if dropped is not None:
            for nm in dropped:
                st.vals.pop(nm, None)
            return st
        if kind is SAssign:
            return self.t_assign(st, s)
        if kind is SDecl:
            for nm in s.names:
                st.vals.pop(nm, None)
            if s.init is not None and isinstance(s.ty, WordTy):
                a, iv = self.eval(st, s.init)
                self.assign_var(st, s.names[0], a, iv)
            return st
        if kind is SReturn:
            for v in s.values:
                self.eval(st, v)
            return st
        raise TypeError(f"not a statement: {s!r}")

    def t_assign(self, st: AbsState, s: SAssign) -> AbsState:
        if isinstance(s.rhs, ECall):
            raise AnalysisFailure(
                f"{_site(s)}: call to non-inline function {s.rhs.name!r} is not analyzable"
            )
        if isinstance(s.rhs, EIntr) and len(s.dests) != 1:
            self.eval_intr(st, s.rhs)
            d = isa.lookup(s.rhs.name)
            for lv, w in zip(s.dests, d.dst_widths):
                if type(lv) is EVar:
                    if w != "flag":
                        self.assign_var(st, lv.name, None, _width_interval(w))
                elif type(lv) is not LIgnore:
                    self.eval(st, lv)  # the access written, checked as its read
            return st
        lv = s.dests[0]
        a, iv = self.eval(st, s.rhs)
        if s.cond is not None:  # on a scalar register (typecheck)
            self.eval(st, s.cond)
            taken = self.refine(st.copy(), s.cond, True)
            self.assign_var(taken, lv.name, a, iv)
            return self.join(flow.key(s, self), self.refine(st, s.cond, False), taken)
        if type(lv) is EVar:
            if isinstance(lv.ty, WordTy):
                self.assign_var(st, lv.name, a, iv)
            else:
                st.vals.pop(lv.name, None)
        elif type(lv) is not LIgnore:
            self.eval(st, lv)
        return st

    # -------------------------------------------------------- loops

    def widen(self, s: SWhile, key, n: int, old: AbsState, new: AbsState, entry: AbsState,
              body_out: AbsState) -> AbsState:
        """The flow widening (see jamin.flow), on every pass over the body
        of loop s whose join `new` differs from the head `old`: the
        interval of each symbol that changed keeps the bounds of the join
        that did not loosen (Interval.widen_from), and gains, on either
        side, the guard thresholds of the loop that the symbol's scalar
        keeps to at loop entry and after the body.  A threshold that
        mentions a loop symbol of s is never one: that symbol stands for
        another value on the next pass.  The loop fails after
        MAX_ITERATIONS passes."""
        if n >= MAX_ITERATIONS:
            raise AnalysisFailure(f"{_site(s)}: loop analysis did not stabilize")
        out = None
        for sym, iv in new.intervals.items():
            o = old.intervals.get(sym)
            if o is None or o == iv:
                continue
            if out is None:
                out = new.copy()
                rev = {sym: var for (k, var), sym in self.loop_syms.items() if k == key}
                candidates = [t for t in self._guard_thresholds(new, s)
                              if rev.keys().isdisjoint(t.syms())]
            lower = upper = ()
            var = rev.get(sym)
            if var is not None:
                lower, upper = (
                    tuple(t for t in candidates if self._inductive(t, var, entry, body_out, side))
                    for side in (False, True))
            out.intervals[sym] = iv.widen_from(o, lower, upper)
        return new if out is None else out

    def _inductive(self, t: Aff, var: str, entry: AbsState, body_out: AbsState,
                   upper: bool) -> bool:
        """Does `var <= t` (`upper`), or `var >= t`, hold at loop entry and
        after the body?  Both hold a value of `var`: a join makes a loop
        symbol only for a scalar both its sides hold, and a relevant
        scalar loses its value only at its declaration, in the same place
        on every pass."""
        for st in (entry, body_out):
            a = st.vals[var]
            raw, full = _raw_interval(st, a, None), st.interval_of(a)
            bounds = raw.his + full.his if upper else raw.los + full.los
            if not any(_tighter(b, t, upper) for b in bounds):
                return False
        return True

    def _guard_thresholds(self, st: AbsState, s: SWhile) -> tuple:
        """The widening thresholds of loop s in state st: each affine
        operand a of a comparison in the loop's test, or in a test of an
        `if` or `while` or the guard of an assignment in its body, as a
        and a + 1 (the bound of a strict test), without repeats.  The
        operands are collected once per loop."""
        operands = self.guard_operands.get(id(s))
        if operands is None:
            operands = self.guard_operands[id(s)] = _comparison_operands(s)
        out: dict = {}
        for e in operands:
            a, _ = self.eval(st, e)
            if a is not None:
                out[a] = out[a + 1] = None
        return tuple(out)

    # --------------------------------------------------------- joins

    def join(self, key, a: AbsState, b: AbsState) -> AbsState:
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
        """The flow refinement.  It records nothing: the test's transfer
        has recorded its findings."""
        recording, self.recording = self.recording, False
        try:
            return self._refine(st, cond, taken)
        finally:
            self.recording = recording

    def _refine(self, st: AbsState, cond, taken: bool) -> AbsState:
        kind = type(cond)
        if kind is EUn and cond.op == "!":
            return self._refine(st, cond.arg, not taken)
        if kind is EBin and cond.op == "&&" and taken:
            st = self._refine(st, cond.left, True)
            return self._refine(st, cond.right, True)
        if kind is EBin and cond.op == "||" and not taken:
            st = self._refine(st, cond.left, False)
            return self._refine(st, cond.right, False)
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
                    iv = iv.meet(lo - rb, False)
            if hi is not None:
                for rb in rest_iv.los:
                    iv = iv.meet(hi - rb, True)
        elif c == -1:
            if hi is not None:
                for rb in rest_iv.los:
                    iv = iv.meet(rb - hi, False)
            if lo is not None:
                for rb in rest_iv.his:
                    iv = iv.meet(rb - lo, True)
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
                ranges[n] = (_best(los, False), _best(his, True))
            else:
                ranges[n] = None
        return RangeReport(
            order=order, ranges=ranges, failures=self.failures, findings=self.findings
        )


def _raw_interval(st: AbsState, a: Aff, target_sym) -> Interval:
    """Interval of an affine value that preserves symbolic bounds when
    the value is a single fresh symbol plus a parameter-affine offset
    (resolution would erase relations needed for join stability).  The
    bounds that mention `target_sym` are dropped, and no lower bound may
    remain: every caller joins the result (Interval.join floors it at 0)
    or only looks among its bounds for one that proves a threshold."""
    frees = [s for s in a.syms() if s[0] == "s"]
    if len(frees) == 1 and a.coeff(frees[0]) == 1:
        sym = frees[0]
        rest = a.without(sym)
        if all(s[0] == "p" for s in rest.syms()):
            iv = st.intervals.get(sym, TOP)
            los = tuple(b + rest for b in iv.los if target_sym not in b.syms())
            his = tuple(b + rest for b in iv.his if target_sym not in b.syms())
            return Interval(los, his)
    return st.interval_of(a)


def _comparison_operands(s: SWhile) -> list:
    """The operands of the comparisons in the test of while loop s and in
    every test of an `if` or `while` and guard of an assignment in its
    body, nested blocks and repeat nodes included."""
    out: list = []

    def visit(c):
        if type(c) is EUn and c.op == "!":
            visit(c.arg)
        elif type(c) is EBin and c.op in ("&&", "||"):
            visit(c.left)
            visit(c.right)
        elif type(c) is EBin and c.op in ("<", "<=", ">", ">=", "=="):
            out.extend((c.left, c.right))

    def walk(stmts):
        for x in stmts:
            k = type(x)
            if k is SIf:
                visit(x.cond)
                walk(x.then)
                walk(x.els)
            elif k is SWhile:
                visit(x.cond)
                walk(x.body)
            elif k is SRepeat:
                walk(x.body)
            elif k is SAssign and x.cond is not None:
                visit(x.cond)

    visit(s.cond)
    walk(s.body)
    return out


def _ival(st: AbsState, a: Aff | None, iv: Interval | None) -> Interval:
    """iv, or the interval of the affine value a in st when eval left it
    to be computed."""
    return st.interval_of(a) if iv is None else iv


def _expr_bits(e) -> int | None:
    ty = e.ty
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

    def observable(self, f, private) -> tuple:
        """The flow hook (see jamin.flow): the facts of the locals not in
        `private` and the findings."""
        return super().observable(f, private), len(self.findings)

    def check(self, f, e):
        """Report the reads of e that the facts f do not prove defined,
        each at the site a run reports: its own."""
        if e is None:
            return
        for v in flow.reads(e):
            if v not in self.unreported or v in f:
                continue
            self.unreported.discard(v)
            self.findings.append(Finding("maybe-uninit", _site(_read_of(e, v)),
                                         f"{v} may be read before assignment"))

    def transfer(self, f, s):
        """The reads of s, in the order and with the facts codegen emits
        them, checked; then Assigned's transfer."""
        k = type(s)
        if k is SDecl:
            self.check(super().transfer(f, s, 0), s.init)
        elif k is SAssign:
            self.check(f, s.rhs)
            self.check(f, s.cond)
            for i, lv in enumerate(s.dests):
                if type(lv) is EArr or type(lv) is EMem:
                    self.check(super().transfer(f, s, i), lv)
        elif k is SReturn:
            for v in s.values:
                self.check(f, v)
        else:
            self.check(f, s.cond)
        return super().transfer(f, s)


def _read_of(e, name: str):
    """The first EVar of expression e that reads `name`, in the order of
    flow.reads."""
    if type(e) is EVar:
        return e if e.name == name else None
    for f in fields(e):
        v = getattr(e, f.name)
        for x in v if type(v) is tuple else (v,):
            if is_dataclass(x) and (r := _read_of(x, name)) is not None:
                return r
    return None


def _uninit_findings(p, fn) -> list[Finding]:
    d = _Uninit(p, fn)
    flow.forward(fn.body, d.entry(), d)
    return d.findings


# ------------------------------------------------------------ relevance


def _definitions(stmts, seeds_of) -> tuple[set, dict]:
    """(the names seeds_of(s) gives for the statements s in stmts, the
    straight-line ones and the tests of `if` and `while`; each name ->
    the straight-line statements that rebind it).  The body of a repeat
    node is visited once, as its iterations give the same with their
    private locals renamed."""
    seeds: set = set()
    defs: dict[str, list] = {}

    def walk(stmts):
        for s in stmts:
            k = type(s)
            if k is SRepeat:
                walk(s.body)
                continue
            seeds.update(seeds_of(s))
            if k is SIf:
                walk(s.then)
                walk(s.els)
            elif k is SWhile:
                walk(s.body)
            elif k is SDecl:
                for nm in s.names:
                    defs.setdefault(nm, []).append(s)
            elif k is SAssign:
                for lv in s.dests:
                    if type(lv) is EVar:
                        defs.setdefault(lv.name, []).append(s)

    walk(stmts)
    return seeds, defs


def _closure(seeds, defs: dict) -> set:
    """The seeds closed backward through their definitions: a statement
    that rebinds a name of the set adds the names it reads (flow.summary:
    a guarded destination reads itself)."""
    closure, frontier, done = set(seeds), list(seeds), set()
    while frontier:
        for s in defs.get(frontier.pop(), ()):
            if id(s) in done:
                continue
            done.add(id(s))
            for src in flow.summary(s)[0]:
                if src not in closure:
                    closure.add(src)
                    frontier.append(src)
    return closure


def _counters(fn, defs: dict) -> set:
    """The largest set of scalars each definition of which is affine in
    constants and scalars of the set (built with `+`, `-`, and `*` or
    `<<` by a constant): counters and pointers stepped by constants,
    whatever their use.  Their values stay affine, and at a loop head
    the join may pick one of them to relate the scalars that change in
    lockstep, so the range analysis tracks them all."""
    out = {n for n, (_, ty) in fn.envtypes.items() if isinstance(ty, WordTy)}
    while True:
        keep = {n for n in out if all(_affine_def(s, out) for s in defs.get(n, ()))}
        if keep == out:
            return out
        out = keep


def _affine_def(s, names) -> bool:
    """Whether statement s, which rebinds a scalar of `names`, gives it
    a value affine in constants and `names`."""
    if type(s) is SDecl:
        return s.init is None or _affine_in(s.init, names)
    return len(s.dests) == 1 and _affine_in(s.rhs, names)


def _affine_in(e, names) -> bool:
    """Whether e is built from constants and `names` with `+`, `-`, and
    `*` or `<<` by a constant."""
    k = type(e)
    if k is EInt:
        return True
    if k is EVar:
        return e.name in names
    if k is ECast:
        return _affine_in(e.arg, names)
    if k is EBin and not e.lanes:
        if e.op == "+" or e.op == "-":
            return _affine_in(e.left, names) and _affine_in(e.right, names)
        if e.op == "*" and type(e.left) is EInt:
            return _affine_in(e.right, names)
        if e.op == "*" or e.op == "<<":
            return type(e.right) is EInt and _affine_in(e.left, names)
    return False


def preanalyze(p: Program, entry: str) -> set:
    """Suggest parameters worth tracking: scalars that flow into loop
    bounds (and, through them, into address arithmetic)."""
    require_expanded(p, "preanalyze")
    fn = p.func(entry)
    seeds, defs = _definitions(fn.body, lambda s: flow.reads(s.cond) if type(s) is SWhile else ())
    return {q.name for q in fn.params} & _closure(seeds, defs)
