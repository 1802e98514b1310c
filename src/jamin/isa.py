"""Instruction descriptors and executable semantics.

Every intrinsic is described by a Descriptor packaging its implicit and
explicit operands, a pure semantics function, and emission metadata.
New instructions are added by registering one descriptor.

At the source level an intrinsic is a pure function: it takes one value
per source (implicit register sources become explicit arguments) and
returns one value per destination.  Flag results use the five-flag
order OF, CF, SF, PF, ZF; flags an instruction leaves architecturally
undefined are returned as UNDEF, which the interpreter treats as poison.

The branch-free scalar instructions (ADD, ADC, SUB, SBB, AND, OR, XOR,
SHL, SHR, SAR, ROL, ROR, NOT, NEG, MOV, MUL, IMUL, CMOV and set0, at 8
to 64 bits) are each defined once, by a `Table` of one Python
expression per destination over the operands, plus a prelude of values
the outputs share.  The descriptor's `sem` is compiled from that table,
and codegen inlines the part of it that the destinations a statement
keeps need, so both read the same definition.  DIV is the one plain
function, because it faults (IsaFault); no table and no vector
semantics raises.

Vector instructions carry two semantics, each written once as a
positional function: `vsem(x, y, ...)` computes on the packed wide words
(the OpsV view) and returns the one result int, `ops(x, y, ...)` on the
operands' lanes (the Ops view) and returns the result int as well.  The
two are written independently and are required to agree under the
word/array bijection; neither calls the other.  The list interface
`sem(list) -> [int]` wraps `vsem`; the tests' list views derive from
both (tests/lanes.py).

An element-wise instruction is defined by one lane expression
(`lane_expr`), which its Ops form unrolls over its lanes, each operand
lane a local of its own.  The form converts all its lane sources at
once, in one `to_bytes` of their joined int and one `struct` unpack,
and packs the result lanes; converting each source on its own and
reading its lanes by subscript took 1.2 to 1.4 times as long per
VPMULUDQ call.

In OpsV, the selector- and immediate-driven data movements (VPSHUFB,
VPSHUFD, VPERMQ, VPERM2I128, VEXTRACTI128, VINSERTI128) turn each
distinct selector once into a plan of (operand, shift distance,
destination mask) groups, kept in a bounded LRU cache (`_permute_plan`,
`_half_plan`), and apply it as a few shifts and masks; VPMULUDQ and the
interleaves (VPUNPCK*) are unrolled into one expression over the whole
word.

In Ops, every data movement, these and the interleaves, is one byte
gather: the bytes of its operands joined, with zeros after them, then
`bytes.translate` through a byte table, then `int.from_bytes`.  The
byte table is expanded from a lane table, which gives for each
destination lane the position of its source lane in the concatenated
source lanes, or None for a lane the instruction zeroes, which takes a
zero byte.  The lane tables are derived from the Intel lane
definitions (`_lane_positions`, `_interleave`), not from the OpsV
plans, so Ops and OpsV remain independent semantics.  The gather of a
selector or immediate is built once per value in a bounded LRU cache
(`_lane_table`), those of the interleaves at registration.  Splitting
the operands into lanes, selecting lanes by an itemgetter and joining
them took about twice as long per VPSHUFD, VPERMQ or interleave call.

`bind(d, consts)` partially evaluates a data movement whose selector or
immediate is known: it returns the (OpsV, Ops) pair of positional
functions of the remaining operands, the OpsV one the plan compiled into
one shift-and-mask expression, the Ops one the gather of its table.
Generated code calls these for a constant selector, and the generic
pair (`vsem`, `ops`) otherwise.

`exec_intrinsic` is the Word-level boundary of the instruction set: Word
(or int) sources in, Word and flag results out.  The system runs the
positional forms above; `exec_intrinsic` is the specification layer
that the tests check them against (docs/lang.md, "Specification
layers").
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import and_, mul, or_, xor
from struct import Struct
from typing import Callable, Optional

from .words import Word, evaluator, lanes


class IsaError(Exception):
    pass


class UnknownInstruction(IsaError):
    pass


class IsaFault(IsaError):
    """Runtime fault raised by an instruction's semantics (division)."""


class _FlagUndef:
    """The value of a flag that an instruction leaves undefined.  It is
    only ever compared by identity: generated code checks every read
    that may find it, which raises UninitializedUse (codegen)."""


UNDEF = _FlagUndef()

OPS = "Ops"
OPSV = "OpsV"

# ------------------------------------------------------------- arg locs


@dataclass(frozen=True)
class F:
    """Implicit flag-register destination/source."""

    flag: str


@dataclass(frozen=True)
class R:
    """Implicit machine-register destination/source."""

    reg: str


@dataclass(frozen=True)
class E:
    """Explicit operand: `width` bits, position `index` in the emitted form."""

    width: int
    index: int


FLAGS5 = (F("OF"), F("CF"), F("SF"), F("PF"), F("ZF"))

_NAME = re.compile(r"\b[A-Za-z_]\w*")


@dataclass(frozen=True)
class Table:
    """The one definition of a branch-free scalar instruction.

    `args` names the sources in order, `prelude` binds values that
    several outputs share as (name, expression) pairs, each over the
    names before it, and `outs` holds one Python expression per
    destination.  Expressions never raise; flags are bool or U (UNDEF),
    words ints of the destination width.  `sem` is compiled from the
    whole table, and codegen inlines the part that the destinations a
    statement keeps need (`inline`).  `never_undef` marks the outputs
    that are never UNDEF.
    """

    args: tuple
    prelude: tuple
    outs: tuple

    @cached_property
    def never_undef(self) -> frozenset:
        """The indices of the outputs that are never UNDEF (sources never
        are): those not naming U.  No prelude value names U
        (tests/test_isa.py checks every table)."""
        return frozenset(i for i, e in enumerate(self.outs) if "U" not in _NAME.findall(e))

    def sem(self) -> Callable:
        unpack = f"    {', '.join(self.args)}, = a\n" if self.args else ""
        body = "".join(f"    {n} = {e}\n" for n, e in self.prelude)
        ns = {"U": UNDEF}
        exec(f"def sem(a):\n{unpack}{body}    return [{', '.join(self.outs)}]\n", ns)
        return ns["sem"]

    def inline(self, keep, args, fresh):
        """Code for the outputs in `keep` (indices) only, given the names
        `args` holding the source values: ([(temporary, expression)] to
        bind in order, {index: expression}).  `fresh()` names a new
        temporary; a prelude value used once is substituted into its user
        instead."""
        uses = Counter()
        needed = set()
        for i in keep:
            uses.update(_NAME.findall(self.outs[i]))
        for n, e in reversed(self.prelude):
            if uses[n]:
                needed.add(n)
                uses.update(_NAME.findall(e))
        names = dict(zip(self.args, args))

        def rename(e):
            return _NAME.sub(lambda m: names.get(m[0], m[0]), e)

        bindings = []
        for n, e in self.prelude:
            if n in needed:
                if uses[n] == 1:
                    names[n] = f"({rename(e)})"
                else:
                    names[n] = fresh()
                    bindings.append((names[n], rename(e)))
        return bindings, {i: rename(self.outs[i]) for i in keep}


@dataclass
class Descriptor:
    name: str
    sources: tuple
    destinations: tuple
    mnemonic: str
    sem: Callable  # list of values -> list of values
    lanes: Optional[tuple[int, int]] = None  # (n, m) when this is a vector op
    vsem: Optional[Callable] = None  # vector: OpsV semantics, operands -> result int
    lane_expr: Optional[str] = None  # element-wise vector: one lane, over u and v; `ops` from it
    src_lanes: tuple = ()  # per-source lane shape or None
    dst_lanes: tuple = ()
    src_widths: tuple = field(default=(), repr=False)  # int bits or "flag"
    dst_widths: tuple = field(default=(), repr=False)
    table: Optional[Table] = None  # the definition `sem` is compiled from, if any
    ops: Optional[Callable] = field(default=None, repr=False)  # vector: Ops, operands -> result int

    def __post_init__(self):
        if not self.src_widths:
            self.src_widths = tuple(self._loc_width(s) for s in self.sources)
        if not self.dst_widths:
            self.dst_widths = tuple(self._loc_width(d) for d in self.destinations)
        if self.lane_expr is not None:
            self.ops = _elementwise(self.lane_expr, self.src_lanes, *self.dst_lanes[0])

    def _loc_width(self, loc):
        if isinstance(loc, F):
            return "flag"
        if isinstance(loc, E):
            return loc.width
        if isinstance(loc, R):
            # vector registers are as wide as the op, scalar regs 64-bit
            return self.lanes[0] * self.lanes[1] if self.lanes else 64
        raise IsaError(f"bad argument location {loc!r}")

    @property
    def is_vector(self) -> bool:
        return self.lanes is not None


_REGISTRY: dict[str, Descriptor] = {}


def register(d: Descriptor) -> Descriptor:
    if d.name in _REGISTRY:
        raise IsaError(f"duplicate descriptor {d.name}")
    _REGISTRY[d.name] = d
    return d


def registry() -> dict[str, Descriptor]:
    return dict(_REGISTRY)


def lookup(name: str) -> Descriptor:
    key = name.lstrip("#")
    d = _REGISTRY.get(key)
    if d is None:
        raise UnknownInstruction(f"unknown instruction {name!r}")
    return d


# ------------------------------------------------------------ execution


def _coerce_sources(d: Descriptor, args):
    if len(args) != len(d.sources):
        raise IsaError(
            f"{d.name} expects {len(d.sources)} arguments, got {len(args)}"
        )
    vals = []
    for a, w in zip(args, d.src_widths):
        if w == "flag":
            if not isinstance(a, bool):
                raise IsaError(f"{d.name}: flag argument must be a bool, got {a!r}")
            vals.append(a)
        else:
            if isinstance(a, Word):
                a = a.value
            elif isinstance(a, bool) or not isinstance(a, int):
                raise IsaError(f"{d.name}: word argument expected, got {a!r}")
            vals.append(a & ((1 << w) - 1))  # implicit truncation
    return vals


def _wrap_outputs(d: Descriptor, outs):
    res = []
    for o, w in zip(outs, d.dst_widths):
        if w == "flag":
            res.append(o)
        else:
            res.append(Word(w, o))
    return res


def exec_intrinsic(d: Descriptor, args) -> list:
    """Run a descriptor's pure semantics, which give one value per
    destination (tests/test_isa.py validates every descriptor); Word in,
    Word out."""
    return _wrap_outputs(d, d.sem(_coerce_sources(d, args)))


_LANE_CODES = {16: "H", 32: "I", 64: "Q"}  # struct codes of the element-wise lane widths


def _params(k: int) -> str:
    return ", ".join(f"a{i}" for i in range(k))


def _joined(operands) -> str:
    """The operands, (index k of a<k>, width in bits) pairs, as one int
    expression whose bytes are theirs concatenated, the first lowest."""
    parts, offset = [], 0
    for k, w in operands:
        parts.append(f"a{k} << {offset}" if offset else f"a{k}")
        offset += w
    return " | ".join(parts)


def _elementwise(expr: str, src_lanes, n: int, m: int) -> Callable:
    """The positional Ops form of an element-wise instruction with n
    result lanes of m bits: `expr` once per lane, with u and v standing
    for lane i of sources 0 and 1, the locals u<i> and v<i>, or for the
    source itself when it has no lanes (a shared shift count, a broadcast
    scalar).  All lane sources convert at once, in one `to_bytes` of
    their joined int and one struct `unpack`; the result lanes are
    packed."""
    lane_srcs = [(k, shape) for k, shape in enumerate(src_lanes) if shape]

    def lane(i):
        def operand(mo):
            k = "uv".index(mo[0])
            return f"{mo[0]}{i}" if src_lanes[k] else f"a{k}"

        return re.sub(r"\b[uv]\b", operand, expr)

    env = {"from_bytes": int.from_bytes, "pack": Struct(f"<{n}{_LANE_CODES[m]}").pack}
    unpack = ""
    if lane_srcs:
        names = ", ".join(f"{'uv'[k]}{i}" for k, (c, _) in lane_srcs for i in range(c))
        fmt = "".join(f"{c}{_LANE_CODES[w]}" for _, (c, w) in lane_srcs)
        env["unpack"] = Struct(f"<{fmt}").unpack
        joined = _joined((k, c * w) for k, (c, w) in lane_srcs)
        nbytes = sum(c * w for _, (c, w) in lane_srcs) // 8
        unpack = f"    {names}, = unpack(({joined}).to_bytes({nbytes}, 'little'))\n"
    result = ", ".join(lane(i) for i in range(n))
    exec(f"def ops({_params(len(src_lanes))}):\n{unpack}"
         f"    return from_bytes(pack({result}), 'little')\n", env)
    return env["ops"]


# ------------------------------------------------- scalar definitions


def _build_scalars(w: int):
    """Register the scalar instructions of width w."""
    mask = (1 << w) - 1
    M, T = hex(mask), hex(1 << (w - 1))

    def table(args, prelude, *outs):
        return Table(tuple(args.split()), tuple(prelude), outs)

    # SF, PF (even parity of the low byte) and ZF of a result r
    szp = (f"r >= {T}", 'bin(r & 0xff).count("1") % 2 == 0', "r == 0")
    # signed overflow: both operands' signs differ from the result's
    # (addition), or the operands' signs differ and the result's
    # differs from the first operand's (subtraction)
    add_of = f"(x ^ r) & (y ^ r) >= {T}"
    sub_of = f"(x ^ y) & (x ^ r) >= {T}"

    def logic(op):
        return table("x y", [("r", f"x {op} y")], "False", "False", *szp, "r")

    def shift(r, f, of, *flags):
        """SHL, SHR, SAR, ROL or ROR: the count c is y modulo w, r the
        result and f the carry out for a count above 0.  A count of 0
        leaves x and makes every flag U; OF is defined for a count of 1
        only."""
        return table("x y", [("c", f"y & {w - 1}"), ("r", r), ("f", f)],
                     f"{of} if c == 1 else U", *[f"{e} if c else U" for e in ("f", *flags)],
                     "r")

    def div_sem(a):
        hi, lo, dv = a
        if dv == 0:
            raise IsaFault("division by zero")
        q, r = divmod((hi << w) | lo, dv)
        if q > mask:
            raise IsaFault("division overflow")
        return [UNDEF, UNDEF, UNDEF, UNDEF, UNDEF, q, r]

    res = (E(w, 0),)  # also the one source of NOT, NEG and MOV
    xy = (E(w, 0), E(w, 1))
    xyc = xy + (F("CF"),)
    flags_res = FLAGS5 + res
    # name, sources, destinations, table or plain semantics
    # [, mnemonic]; registration order is the registry's order
    for row in (
        ("x86_ADD", xy, flags_res,
         table("x y", [("s", "x + y"), ("r", f"s & {M}")], add_of, f"s > {M}", *szp, "r")),
        ("x86_ADC", xyc, flags_res,
         table("x y c", [("s", "x + y + c"), ("r", f"s & {M}")],
               add_of, f"s > {M}", *szp, "r")),
        ("x86_SUB", xy, flags_res,
         table("x y", [("r", f"(x - y) & {M}")], sub_of, "x < y", *szp, "r")),
        ("x86_AND", xy, flags_res, logic("&")),
        ("x86_OR", xy, flags_res, logic("|")),
        ("x86_XOR", xy, flags_res, logic("^")),
        ("x86_SHL", xy, flags_res,
         shift(f"x << c & {M}", f"x >> {w} - c & 1 == 1", f"(r >= {T}) != f", *szp)),
        ("x86_SHR", xy, flags_res,
         shift("x >> c", "x << 1 >> c & 1 == 1", f"x >= {T}", *szp)),
        # the carry is bit c - 1 of x, also that of its sign extension (c < w)
        ("x86_SAR", xy, flags_res,
         shift(f"((x ^ {T}) - {T}) >> c & {M}", "x << 1 >> c & 1 == 1", "False", *szp)),
        ("x86_NOT", res, res, table("x", [], f"x ^ {M}")),
        ("x86_NEG", res, flags_res,
         table("x", [("r", f"-x & {M}")], f"x == {T}", "x != 0", *szp, "r")),
        ("x86_MOV", res, res, table("x", [], "x")),
        # the product of the sign-extended operands, and whether it
        # differs from its own truncation, sign-extended
        ("x86_IMUL", xy, flags_res,
         table("x y", [("p", f"((x ^ {T}) - {T}) * ((y ^ {T}) - {T})"), ("r", f"p & {M}")],
               *[f"p != (r ^ {T}) - {T}"] * 2, "U", "U", "U", "r")),
        ("x86_ROL", (E(w, 0), E(8, 1)), (F("OF"), F("CF"), E(w, 0)),
         shift(f"(x << c | x >> {w} - c) & {M}", "r & 1 == 1", f"(r >= {T}) != f")),
        ("x86_ROR", (E(w, 0), E(8, 1)), (F("OF"), F("CF"), E(w, 0)),
         shift(f"(x >> c | x << {w} - c) & {M}", f"r >= {T}", f"f != (r >> {w - 2} & 1 == 1)")),
        ("x86_SBB", xyc, flags_res,
         table("x y c", [("r", f"(x - y - c) & {M}")], sub_of, "x < y + c", *szp, "r")),
        ("x86_MUL", (R("RAX"), E(w, 0)), FLAGS5 + (R("RDX"), R("RAX")),
         table("x y", [("p", "x * y"), ("h", f"p >> {w}")],
               "h != 0", "h != 0", "U", "U", "U", "h", f"p & {M}")),
        ("x86_DIV", (R("RDX"), R("RAX"), E(w, 0)), FLAGS5 + (R("RAX"), R("RDX")),
         div_sem),
        ("x86_CMOV", (F("cond"), E(w, 0), E(w, 1)), (E(w, 1),),
         table("c x y", [], "x if c else y"), "CMOVcc"),
        ("set0", (), flags_res,  # compiled as r := XOR r r
         table("", [], "False", "False", "False", "True", "True", "0"), "XOR"),
    ):
        name, sources, dests, how, *mnemonic = row
        t = how if isinstance(how, Table) else None
        register(
            Descriptor(
                name=f"{name}_{w}",
                sources=sources,
                destinations=dests,
                mnemonic=mnemonic[0] if mnemonic else name.split("_")[-1],
                sem=t.sem() if t else how,
                table=t,
            )
        )


for _w in (8, 16, 32, 64):
    _build_scalars(_w)


# ------------------------------------------------- vector definitions


PLAN_CACHE = 256  # entries of the selector caches: OpsV plans, Ops lane tables, bound forms
_M128 = (1 << 128) - 1


@lru_cache(maxsize=PLAN_CACHE)
def _permute_plan(width: int, n: int, sel: int) -> tuple:
    """Shift-and-mask plan of a permute of n elements of `width` bits.

    Width 8 is VPSHUFB: selector byte i picks byte `sel & 15` of the
    16-byte half holding byte i, or zero when bit 7 is set.  Wider
    elements are VPSHUFD/VPERMQ: the imm8's four 2-bit fields pick an
    element of each group of four.  The plan groups the destination
    elements by the distance their source is moved: one (operand 0,
    distance, destination mask) group per distinct distance.
    """
    groups: dict[int, int] = {}
    for i in range(n):
        if width == 8:
            b = (sel >> (8 * i)) & 0xFF
            if b & 0x80:
                continue
            src = (i // 16) * 16 + (b & 0x0F)
        else:
            src = (i // 4) * 4 + ((sel >> (2 * (i % 4))) & 3)
        d = width * (i - src)
        groups[d] = groups.get(d, 0) | (((1 << width) - 1) << (width * i))
    return tuple((0, d, mask) for d, mask in groups.items())


@lru_cache(maxsize=PLAN_CACHE)
def _half_plan(kind: str, imm: int) -> tuple:
    """Shift-and-mask plan, in `_permute_plan`'s form, of a selection of
    128-bit halves: destination half j takes half s % 2 of operand
    s // 2, or is zero.  Kind "2" is VPERM2I128: nibble j of the imm8
    picks a half of x, y by its low two bits, or zero when its bit 3 is
    set.  Kind "e" is VEXTRACTI128: the one destination half is half
    `imm & 1` of x.  Kind "i" is VINSERTI128: y replaces half `imm & 1`
    of x."""
    if kind == "2":
        srcs = [None if f & 8 else f & 3 for f in (imm & 15, imm >> 4 & 15)]
    elif kind == "e":
        srcs = [imm & 1]
    else:
        srcs = [0, 2] if imm & 1 else [2, 1]
    return tuple((s // 2, 128 * (j - s % 2), _M128 << 128 * j)
                 for j, s in enumerate(srcs) if s is not None)


def _permute(plan: tuple, *xs) -> int:
    r = 0
    for k, d, mask in plan:
        r |= (xs[k] << d if d >= 0 else xs[k] >> -d) & mask
    return r


def _plan_code(plan: tuple) -> str:
    """`_permute` of `plan` as one expression over the operands a0, a1."""
    return " | ".join(f"(a{k} & {mask:#x})" if d == 0 else
                      f"(a{k} {'<<' if d > 0 else '>>'} {abs(d)} & {mask:#x})"
                      for k, d, mask in plan) or "0"


def _lane_positions(kind: str, n: int, sel: int) -> list:
    """The lane table of a selector- or immediate-driven data movement
    with n destination lanes, from the Intel definition: for each
    destination lane, the position of its source lane in the
    concatenated source lanes (the selector or imm8 excluded), or None
    for a lane the instruction zeroes.

    Kind "b" is VPSHUFB: destination byte i takes byte `s & 15` of the
    16-byte half holding byte i, or zero when bit 7 of its selector byte
    s is set.  Kind "d" is VPSHUFD and VPERMQ: field i % 4 of the imm8's
    four 2-bit fields picks an element of element i's group of four.
    Kind "2" is VPERM2I128 over the halves x0, x1, y0, y1: each nibble
    of the imm8 picks a half by its low two bits, or zero when its bit 3
    is set.  Kind "e" is VEXTRACTI128, which takes half `imm & 1` of x0,
    x1, and kind "i" VINSERTI128, which puts y in place of that half of
    x0, x1, y."""
    if kind == "b":
        return [None if s & 0x80 else i // 16 * 16 + (s & 15)
                for i, s in enumerate(sel.to_bytes(n, "little"))]
    if kind == "d":
        return [i // 4 * 4 + (sel >> 2 * (i % 4) & 3) for i in range(n)]
    if kind == "e":
        return [sel & 1]
    if kind == "i":
        return [0, 2] if sel & 1 else [2, 1]
    return [None if f & 8 else f & 3 for f in (sel & 15, sel >> 4 & 15)]


def _interleave(n: int, high: int) -> list:
    """The lane table of VPUNPCKL (high 0) or VPUNPCKH (high 1) over n
    lanes, in `_lane_positions`' form: each 128-bit half of k elements
    interleaves the low (or high) k/2 elements of that half of x (lanes
    0..n-1) and y (lanes n..2n-1)."""
    k = n // 2
    return [src + h + high * k // 2 + j
            for h in (0, k) for j in range(k // 2) for src in (0, n)]


_ZERO = 255  # the gather source byte past every operand's: always zero


def _gather(positions, m: int) -> Callable:
    """The lane table `positions` of m-bit lanes expanded to a byte table,
    returned as its `bytes.translate`: applied to the 256 bytes of the
    joined operands (`_joined`), which puts their bytes first and zeros
    after them, it returns the destination's bytes.  A zeroed lane takes
    the zero byte `_ZERO`."""
    k = m // 8
    return bytes(_ZERO if p is None else p * k + j for p in positions for j in range(k)).translate


@lru_cache(maxsize=PLAN_CACHE)
def _lane_table(kind: str, n: int, m: int, sel: int) -> Callable:
    """The Ops gather (`_gather`) of `_lane_positions(kind, n, sel)` over
    m-bit lanes, built once per selector or imm8."""
    return _gather(_lane_positions(kind, n, sel), m)


def _gather_code(widths, table: str) -> str:
    """The Ops form of a data movement as one expression over operands
    a0, a1, ... of `widths` bits: their bytes joined, gathered by
    `table`, an expression for a `_gather`, and read back as an int."""
    joined = _joined(enumerate(widths))
    return f"from_bytes({table}(({joined}).to_bytes(256, 'little')), 'little')"


def _gather_form(widths, table: Callable) -> Callable:
    """The positional Ops form of a data movement of fixed lane table
    (a bound selector or imm8, an interleave): `_gather_code` compiled."""
    return eval(f"lambda {_params(len(widths))}: {_gather_code(widths, 't')}",
                {"from_bytes": int.from_bytes, "t": table})


_MOVES: dict[str, tuple] = {}  # data movement -> (OpsV plan, Ops table kind, lanes, lane bits)


def bind(d: Descriptor, consts: tuple):
    """The (OpsV, Ops) pair of positional functions of d's operands
    before `consts`, the values of its trailing selector or imm8, for
    a registered data movement (VPSHUFB, VPSHUFD, VPERMQ, VPERM2I128,
    VEXTRACTI128, VINSERTI128); None for any other instruction.  The
    OpsV function is the selector's plan compiled into one shift-and-mask
    expression, the Ops one the gather of its lane table.  Cached per
    (instruction, constant)."""
    if len(consts) != 1 or d.name not in _MOVES or _REGISTRY.get(d.name) is not d:
        return None
    return _bound(d.name, consts[0] & (1 << d.src_widths[-1]) - 1)


@lru_cache(maxsize=PLAN_CACHE)
def _bound(name: str, sel: int) -> tuple:
    d = _REGISTRY[name]
    vplan, kind, n, m = _MOVES[name]
    widths = d.src_widths[:-1]
    return (eval(f"lambda {_params(len(widths))}: {_plan_code(vplan(sel))}"),
            _gather_form(widths, _lane_table(kind, n, m, sel)))


def _vector(name, n, m, sources, src_lanes, vsem, how, dst=None, mnemonic=None):
    """Register a vector instruction over n lanes of m bits.  `how` is
    the lane expression of an element-wise instruction, or the
    positional Ops form of a data movement; `dst` is (destination, its
    lane shape) when that is not n lanes of m bits."""
    loc, shape = dst or (E(n * m, 0), (n, m))
    expr = how if isinstance(how, str) else None
    register(
        Descriptor(
            name=name,
            sources=tuple(sources),
            destinations=(loc,),
            mnemonic=mnemonic or name.replace("x86_", ""),
            sem=lambda a: [vsem(*a)],
            lanes=(n, m),
            vsem=vsem,
            lane_expr=expr,
            src_lanes=tuple(src_lanes),
            dst_lanes=(shape,),
            ops=None if expr else how,
        )
    )


def _movement(name, n, m, sources, src_lanes, vplan, kind, **kw):
    """Register a data movement driven by its last source, a selector or
    imm8: OpsV applies the shift-and-mask plan `vplan(sel)`, Ops the
    gather `_lane_table(kind, n, m, sel)` to the other operands."""
    widths = [s.width for s in sources[:-1]]
    ps = _params(len(widths))
    env = {"_permute": _permute, "vplan": vplan, "_lane_table": _lane_table,
           "from_bytes": int.from_bytes}
    exec(f"def vsem({ps}, s):\n    return _permute(vplan(s), {ps})\n"
         f"def ops({ps}, s):\n"
         f"    return {_gather_code(widths, f'_lane_table({kind!r}, {n}, {m}, s)')}\n", env)
    _MOVES[name] = (vplan, kind, n, m)
    _vector(name, n, m, sources, src_lanes, env["vsem"], env["ops"], **kw)


def _build_vectors():
    # lane-wise addition (SWAR on the packed word in OpsV mode)
    for n, m in ((4, 64), (8, 32)):
        _vector(f"x86_VPADD_{n}u{m}", n, m, [E(n * m, 0), E(n * m, 1)], [(n, m), (n, m)],
                evaluator("+", m, n), f"u + v & {(1 << m) - 1:#x}")

    # VPMULUDQ: the low 32 bits of each 64-bit lane multiplied, unrolled
    # in OpsV; a 32 x 32-bit product fills its lane exactly
    m32 = (1 << 32) - 1

    def pmulu_v(x, y):
        return ((x & m32) * (y & m32)
                | (x >> 64 & m32) * (y >> 64 & m32) << 64
                | (x >> 128 & m32) * (y >> 128 & m32) << 128
                | (x >> 192 & m32) * (y >> 192 & m32) << 192)

    _vector("x86_VPMULU_4u64", 4, 64, [E(256, 0), E(256, 1)], [(4, 64), (4, 64)],
            pmulu_v, f"(u & {m32:#x}) * (v & {m32:#x})", mnemonic="VPMULUDQ")

    # whole-register bitwise operations, viewed as 64-bit lanes in Ops mode
    for total in (128, 256):
        n = total // 64
        for nm, f, pyop in (("VPXOR", xor, "^"), ("VPAND", and_, "&"), ("VPOR", or_, "|")):
            _vector(f"x86_{nm}_{total}", n, 64, [E(total, 0), E(total, 1)],
                    [(n, 64), (n, 64)], f, f"u {pyop} v")

    # lane shifts by a shared count (VPSLL, VPSRL) and by a count per
    # lane (VPSLLV, VPSRLV): a count of m or more clears the lane
    def shifts(m):
        return (("VPSLL", "<<", f"u << v & {(1 << m) - 1:#x} if v < {m} else 0"),
                ("VPSRL", ">>", f"u >> v if v < {m} else 0"))

    for n, m in ((4, 64), (8, 32), (4, 32)):
        for nm, op, lane in shifts(m):
            _vector(f"x86_{nm}_{n}u{m}", n, m, [E(n * m, 0), E(8, 1)], [(n, m), None],
                    evaluator(op, m, n), lane)
    for n, m in ((4, 64), (8, 32)):
        for nm, op, lane in shifts(m):
            _vector(f"x86_{nm}V_{n}u{m}", n, m, [E(n * m, 0), E(n * m, 1)], [(n, m), (n, m)],
                    _variable_shift(op, n, m), lane)

    # broadcasts: multiplication by the all-lanes-one pattern in OpsV mode
    for name, n, m in (("x86_VPBROADCAST_4u64", 4, 64),
                       ("x86_VPBROADCAST_8u32", 8, 32),
                       ("x86_VPBROADCAST_4u32", 4, 32)):
        _vector(name, n, m, [E(m, 0)], [None], partial(mul, lanes(1, n, m)), "u")

    # dword and qword shuffles (VPSHUFD, VPERMQ): the imm8 is four 2-bit
    # source positions, applied per group of four elements
    def shuffle(name, n, m):
        _movement(name, n, m, [E(n * m, 0), E(8, 1)], [(n, m), None],
                  partial(_permute_plan, m, n), "d")

    shuffle("x86_VPSHUFD_128", 4, 32)
    shuffle("x86_VPSHUFD_256", 8, 32)

    # byte shuffles: per-byte table lookup within each 128-bit half;
    # a set high bit in the selector byte yields zero
    for n in (16, 32):
        _movement(f"x86_VPSHUFB_{8 * n}", n, 8, [E(8 * n, 0), E(8 * n, 1)], [(n, 8), (n, 8)],
                  partial(_permute_plan, 8, n), "b")

    # interleaves (per 128-bit half, AVX2 style); OpsV moves the chosen
    # elements of both halves at once, with one mask per element position
    def half_elements(m):
        return [lanes(((1 << m) - 1) << (m * k), 2, 128) for k in range(128 // m)]

    d0, d1, d2, d3 = half_elements(32)
    q0, q1 = half_elements(64)
    for name, n, m, high, v in (
        ("x86_VPUNPCKL_8u32", 8, 32, 0,
         lambda x, y: (x & d0) | ((x & d1) | (y & d0)) << 32 | (y & d1) << 64),
        ("x86_VPUNPCKH_8u32", 8, 32, 1,
         lambda x, y: (x & d2) >> 64 | ((x & d3) | (y & d2)) >> 32 | (y & d3)),
        ("x86_VPUNPCKL_4u64", 4, 64, 0, lambda x, y: (x & q0) | (y & q0) << 64),
        ("x86_VPUNPCKH_4u64", 4, 64, 1, lambda x, y: (x & q1) >> 64 | (y & q1)),
    ):
        _vector(name, n, m, [E(256, 0), E(256, 1)], [(n, m), (n, m)], v,
                _gather_form((256, 256), _gather(_interleave(n, high), m)))

    # 128-bit-half permutes, extract and insert
    _movement("x86_VPERM2I128", 2, 128, [E(256, 0), E(256, 1), E(8, 2)],
              [(2, 128), (2, 128), None], partial(_half_plan, "2"), "2")
    shuffle("x86_VPERMQ_4u64", 4, 64)
    _movement("x86_VEXTRACTI128", 2, 128, [E(256, 0), E(8, 1)], [(2, 128), None],
              partial(_half_plan, "e"), "e", dst=(E(128, 0), None))
    _movement("x86_VINSERTI128", 2, 128, [E(256, 0), E(128, 1), E(8, 2)],
              [(2, 128), None, None], partial(_half_plan, "i"), "i")


def _variable_shift(op: str, n: int, m: int) -> Callable:
    """OpsV of VPSLLV/VPSRLV: each lane of x shifted by its own count,
    a count of m or more clearing it."""
    mask = (1 << m) - 1

    def f(x, cs):
        r = 0
        for i in range(n):
            c = (cs >> (m * i)) & mask
            if c < m:
                u = (x >> (m * i)) & mask
                r |= ((u << c & mask) if op == "<<" else u >> c) << (m * i)
        return r

    return f


_build_vectors()
