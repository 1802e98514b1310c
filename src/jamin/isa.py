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
NOT, NEG, MOV, MUL, IMUL, CMOV and set0, at 8 to 64 bits) are each
defined once, by a `Table` of one Python expression per destination
over the operands, plus a prelude of values the outputs share.  The
descriptor's `sem` is compiled from that table, and codegen inlines the
part of it that the destinations a statement keeps need, so both read
the same definition.  Shifts, rotates and DIV are plain functions; only
DIV raises (IsaFault), and no vector semantics does.

Vector instructions carry two semantics: `sem` computes on the packed
wide word (the OpsV view) while `sem_lanes` computes on the array of
sub-words (the Ops view).  The two are written independently and are
required to agree under the word/array bijection; `exec_vector`
dispatches on the requested mode.  Neither calls the other.

In OpsV, the selector- and immediate-driven permutes (VPSHUFB, VPSHUFD,
VPERMQ) stay word formulas: each distinct selector is turned once into a
plan of (shift distance, destination mask) groups, kept in a bounded LRU
cache (`_permute_plan`), and applied as a few shifts and masks;
VPMULUDQ and the interleaves (VPUNPCK*) are unrolled into one expression
over the whole word.  In Ops, every vector descriptor has one
`LaneAdapter`, built at registration, that splits packed sources into
lanes, runs `sem_lanes` and joins the results; lanes of 8 to 64 bits go
through `int.to_bytes` and a `struct` format, 128-bit lanes through
shifts.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
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
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"

    def __bool__(self):
        raise IsaError("undefined flag used in a computation")


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


ArgLoc = object

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
        are): those naming U neither directly nor through the prelude."""
        undef = {"U"}
        for n, e in self.prelude:
            if undef.intersection(_NAME.findall(e)):
                undef.add(n)
        return frozenset(i for i, e in enumerate(self.outs)
                         if not undef.intersection(_NAME.findall(e)))

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
    oshape: tuple  # operand kinds of the emitted instruction
    mnemonic: str
    sem: Callable  # list of values -> list of values
    size: int  # operation width in bits (lane width for vector ops)
    lanes: Optional[tuple[int, int]] = None  # (n, m) when this is a vector op
    sem_lanes: Optional[Callable] = None  # Ops-mode semantics
    src_lanes: tuple = ()  # per-source lane shape or None
    dst_lanes: tuple = ()
    reads_memory: bool = False
    writes_memory: bool = False
    variable_time: bool = False  # extension point; no current instruction sets it
    src_widths: tuple = field(default=(), repr=False)  # int bits or "flag"
    dst_widths: tuple = field(default=(), repr=False)
    table: Optional[Table] = None  # the definition `sem` is compiled from, if any

    def __post_init__(self):
        if not self.src_widths:
            self.src_widths = tuple(self._loc_width(s) for s in self.sources)
        if not self.dst_widths:
            self.dst_widths = tuple(self._loc_width(d) for d in self.destinations)

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
_ADAPTERS: dict[str, LaneAdapter] = {}  # Ops-mode adapter per vector descriptor


def register(d: Descriptor) -> Descriptor:
    if d.name in _REGISTRY:
        raise IsaError(f"duplicate descriptor {d.name}")
    _REGISTRY[d.name] = d
    if d.is_vector:
        _ADAPTERS[d.name] = LaneAdapter(d)
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
    """Run a descriptor's pure semantics; Word in, Word out."""
    outs = d.sem(_coerce_sources(d, args))
    if len(outs) != len(d.destinations):
        raise IsaError(f"{d.name}: semantics returned {len(outs)} values")
    return _wrap_outputs(d, outs)


# Lanes of 8 to 64 bits convert through one bytes object and a struct
# format; struct has no 128-bit code, so those lanes use shifts.
_LANE_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@cache
def _lane_codec(n: int, m: int):
    """(split, join) between an int and its n lanes of m bits, lane 0 lowest."""
    if m in _LANE_CODES:
        nbytes = n * m // 8
        st = Struct(f"<{n}{_LANE_CODES[m]}")
        unpack, pack = st.unpack, st.pack
        return (lambda v: unpack(v.to_bytes(nbytes, "little")),
                lambda lanes: int.from_bytes(pack(*lanes), "little"))
    mask = (1 << m) - 1

    def join(lanes):
        v = 0
        for x in reversed(lanes):
            v = (v << m) | x
        return v

    return (lambda v: [(v >> (m * i)) & mask for i in range(n)]), join


def _join_int(vals, m: int) -> int:
    return _lane_codec(len(vals), m)[1](vals)


class LaneAdapter:
    """The Ops view of one vector descriptor, built once: `split` turns
    its packed sources into lane sequences (other sources pass through),
    `join` packs its lane results, and `run` is split, `sem_lanes`, join
    on ints.  Each is compiled for the descriptor's operand shapes: a
    loop over the shapes on every call made VPSHUFD_256's Ops call about
    40% slower."""

    __slots__ = ("d", "split", "join", "run")

    def __init__(self, d: Descriptor):
        ns = {"sem_lanes": d.sem_lanes}

        def convert(shapes, codec, arg):  # "[conv0(arg[0]), arg[1], ...]"
            items = []
            for i, shape in enumerate(shapes):
                if shape:
                    ns[f"{arg}{i}"] = _lane_codec(*shape)[codec]
                    items.append(f"{arg}{i}({arg}[{i}])")
                else:
                    items.append(f"{arg}[{i}]")
            return f"[{', '.join(items)}]"

        split = convert(d.src_lanes, 0, "v")
        self.d = d
        self.split = eval(f"lambda v: {split}", ns)
        self.join = ns["join"] = eval(f"lambda o: {convert(d.dst_lanes, 1, 'o')}", ns)
        self.run = eval(f"lambda v: join(sem_lanes({split}))", ns)


def lane_adapter(d: Descriptor) -> LaneAdapter:
    """The registered descriptor's adapter; a fresh one for any other."""
    a = _ADAPTERS.get(d.name)
    return a if a is not None and a.d is d else LaneAdapter(d)


def exec_ops(d: Descriptor, args) -> list:
    """Ops-mode execution: vector operands as sequences of sub-word ints."""
    if not d.is_vector:
        raise IsaError(f"{d.name} is not a vector instruction")
    return d.sem_lanes(lane_adapter(d).split(_coerce_sources(d, args)))


def exec_vector(d: Descriptor, mode: str, args) -> list:
    """Execute a vector intrinsic in the chosen representation.

    Both modes return packed Words so callers can store results
    uniformly; in Ops mode the lane results are joined through the
    word/array bijection.
    """
    if mode == OPSV:
        return exec_intrinsic(d, args)
    if mode != OPS:
        raise IsaError(f"unknown vector mode {mode!r}")
    return _wrap_outputs(d, lane_adapter(d).join(exec_ops(d, args)))


def validate_descriptor(d: Descriptor) -> list[str]:
    """Well-formedness checks, established by computation."""
    problems = []
    if len(d.sources) != len(d.src_widths):
        problems.append("source width list out of sync")
    seen = set()
    for loc in d.destinations:
        if loc in seen:
            problems.append(f"duplicate destination {loc!r}")
        seen.add(loc)
    e_idx = sorted(loc.index for loc in d.sources if isinstance(loc, E))
    if e_idx != list(range(len(e_idx))):
        problems.append("explicit-argument indices are not dense from 0")
    for w in d.src_widths + d.dst_widths:
        if w != "flag" and w not in (8, 16, 32, 64, 128, 256):
            problems.append(f"illegal operand width {w}")
    if d.is_vector and d.sem_lanes is None:
        problems.append("vector descriptor without lane semantics")
    # probe the semantics with benign inputs
    probe = [False if w == "flag" else 1 for w in d.src_widths]
    try:
        outs = d.sem(probe)
    except IsaFault:
        outs = None
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        problems.append(f"semantics raised {exc!r} on probe input")
        outs = None
    if outs is not None:
        if len(outs) != len(d.destinations):
            problems.append(
                f"semantics returns {len(outs)} values for {len(d.destinations)} destinations"
            )
        else:
            for o, w in zip(outs, d.dst_widths):
                if w == "flag":
                    if not (isinstance(o, bool) or o is UNDEF):
                        problems.append(f"flag output is {o!r}")
                elif not isinstance(o, int) or o < 0 or o >> w:
                    problems.append(f"word output {o!r} does not fit {w} bits")
    if d.is_vector and not problems:
        vec = exec_vector(d, OPS, probe)
        vecv = exec_vector(d, OPSV, probe)
        if vec != vecv:
            problems.append("Ops and OpsV disagree on probe input")
    return problems


# ------------------------------------------------------- flag helpers


def _msb(v: int, w: int) -> bool:
    return bool((v >> (w - 1)) & 1)


def _szp(r: int, w: int):
    return _msb(r, w), bin(r & 0xFF).count("1") % 2 == 0, r == 0


# ------------------------------------------------- scalar definitions


def _build_scalars(w: int):
    """Register the scalar instructions of width w."""
    mask = (1 << w) - 1
    top = 1 << (w - 1)
    M, T = hex(mask), hex(top)

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

    def shl_sem(a):
        x, cnt = a
        c = cnt & (w - 1)
        if c == 0:
            return [UNDEF, UNDEF, UNDEF, UNDEF, UNDEF, x]
        r = (x << c) & mask
        cf = bool((x >> (w - c)) & 1)
        of = (_msb(r, w) != cf) if c == 1 else UNDEF
        return [of, cf, *_szp(r, w), r]

    def shr_sem(a):
        x, cnt = a
        c = cnt & (w - 1)
        if c == 0:
            return [UNDEF, UNDEF, UNDEF, UNDEF, UNDEF, x]
        r = x >> c
        cf = bool((x >> (c - 1)) & 1)
        of = _msb(x, w) if c == 1 else UNDEF
        return [of, cf, *_szp(r, w), r]

    def sar_sem(a):
        x, cnt = a
        c = cnt & (w - 1)
        if c == 0:
            return [UNDEF, UNDEF, UNDEF, UNDEF, UNDEF, x]
        sx = x - (1 << w) if x & top else x
        r = (sx >> c) & mask
        cf = bool((sx >> (c - 1)) & 1)
        of = False if c == 1 else UNDEF
        return [of, cf, *_szp(r, w), r]

    def rol_sem(a):
        x, cnt = a
        c = cnt & (w - 1)
        if c == 0:
            return [UNDEF, UNDEF, x]
        r = ((x << c) | (x >> (w - c))) & mask
        cf = bool(r & 1)
        of = (_msb(r, w) != cf) if c == 1 else UNDEF
        return [of, cf, r]

    def ror_sem(a):
        x, cnt = a
        c = cnt & (w - 1)
        if c == 0:
            return [UNDEF, UNDEF, x]
        r = ((x >> c) | (x << (w - c))) & mask
        cf = _msb(r, w)
        of = (_msb(r, w) != bool((r >> (w - 2)) & 1)) if c == 1 else UNDEF
        return [of, cf, r]

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
    two, one, imm = ("oprd", "oprd"), ("oprd",), ("oprd", "imm8")
    # name, sources, destinations, oshape, table or plain semantics
    # [, mnemonic]; registration order is the registry's order
    for row in (
        ("x86_ADD", xy, flags_res, two,
         table("x y", [("s", "x + y"), ("r", f"s & {M}")], add_of, f"s > {M}", *szp, "r")),
        ("x86_ADC", xyc, flags_res, two,
         table("x y c", [("s", "x + y + c"), ("r", f"s & {M}")],
               add_of, f"s > {M}", *szp, "r")),
        ("x86_SUB", xy, flags_res, two,
         table("x y", [("r", f"(x - y) & {M}")], sub_of, "x < y", *szp, "r")),
        ("x86_AND", xy, flags_res, two, logic("&")),
        ("x86_OR", xy, flags_res, two, logic("|")),
        ("x86_XOR", xy, flags_res, two, logic("^")),
        ("x86_SHL", xy, flags_res, imm, shl_sem),
        ("x86_SHR", xy, flags_res, imm, shr_sem),
        ("x86_SAR", xy, flags_res, imm, sar_sem),
        ("x86_NOT", res, res, one, table("x", [], f"x ^ {M}")),
        ("x86_NEG", res, flags_res, one,
         table("x", [("r", f"-x & {M}")], f"x == {T}", "x != 0", *szp, "r")),
        ("x86_MOV", res, res, one, table("x", [], "x")),
        # the product of the sign-extended operands, and whether it
        # differs from its own truncation, sign-extended
        ("x86_IMUL", xy, flags_res, two,
         table("x y", [("p", f"((x ^ {T}) - {T}) * ((y ^ {T}) - {T})"), ("r", f"p & {M}")],
               *[f"p != (r ^ {T}) - {T}"] * 2, "U", "U", "U", "r")),
        ("x86_ROL", (E(w, 0), E(8, 1)), (F("OF"), F("CF"), E(w, 0)), imm, rol_sem),
        ("x86_ROR", (E(w, 0), E(8, 1)), (F("OF"), F("CF"), E(w, 0)), imm, ror_sem),
        ("x86_SBB", xyc, flags_res, two,
         table("x y c", [("r", f"(x - y - c) & {M}")], sub_of, "x < y + c", *szp, "r")),
        ("x86_MUL", (R("RAX"), E(w, 0)), FLAGS5 + (R("RDX"), R("RAX")), one,
         table("x y", [("p", "x * y"), ("h", f"p >> {w}")],
               "h != 0", "h != 0", "U", "U", "U", "h", f"p & {M}")),
        ("x86_DIV", (R("RDX"), R("RAX"), E(w, 0)), FLAGS5 + (R("RAX"), R("RDX")), one,
         div_sem),
        ("x86_CMOV", (F("cond"), E(w, 0), E(w, 1)), (E(w, 1),), two,
         table("c x y", [], "x if c else y"), "CMOVcc"),
        ("set0", (), flags_res, one,  # compiled as r := XOR r r
         table("", [], "False", "False", "False", "True", "True", "0"), "XOR"),
    ):
        name, sources, dests, oshape, how, *mnemonic = row
        t = how if isinstance(how, Table) else None
        register(
            Descriptor(
                name=f"{name}_{w}",
                sources=sources,
                destinations=dests,
                oshape=oshape,
                mnemonic=mnemonic[0] if mnemonic else name.split("_")[-1],
                sem=t.sem() if t else how,
                size=w,
                table=t,
            )
        )


for _w in (8, 16, 32, 64):
    _build_scalars(_w)


# ------------------------------------------------- vector definitions


@lru_cache(maxsize=256)
def _permute_plan(width: int, n: int, sel: int) -> tuple:
    """Shift-and-mask plan of a permute of n elements of `width` bits.

    Width 8 is VPSHUFB: selector byte i picks byte `sel & 15` of the
    16-byte half holding byte i, or zero when bit 7 is set.  Wider
    elements are VPSHUFD/VPERMQ: the imm8's four 2-bit fields pick an
    element of each group of four.  The plan groups the destination
    elements by the distance their source is moved: one (distance,
    destination mask) pair per distinct distance.
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
    return tuple(groups.items())


def _permute(x: int, plan: tuple) -> int:
    r = 0
    for d, mask in plan:
        r |= (x << d if d >= 0 else x >> -d) & mask
    return r


def _lane_form(op: str, n: int, m: int) -> Callable:
    """The OpsV semantics of the DSL's lane form of `op` (words.LANES)."""
    f = evaluator(op, m, n)
    return lambda a: [f(*a)]


def _vector(name, n, m, sources, src_lanes, sem, sem_lanes, dst=None, dst_lanes=None,
            oshape=("oprd", "oprd"), mnemonic=None):
    total = n * m
    register(
        Descriptor(
            name=name,
            sources=tuple(sources),
            destinations=(dst if dst is not None else E(total, 0),),
            oshape=oshape,
            mnemonic=mnemonic or name.replace("x86_", ""),
            sem=sem,
            size=m,
            lanes=(n, m),
            sem_lanes=sem_lanes,
            src_lanes=tuple(src_lanes),
            dst_lanes=(dst_lanes if dst_lanes is not None else (n, m),),
        )
    )


def _build_vectors():
    # lane-wise addition (SWAR on the packed word in OpsV mode)
    for n, m in ((4, 64), (8, 32)):
        total = n * m
        lane_mask = (1 << m) - 1

        def padd_l(a, *, lane_mask=lane_mask):
            x, y = a
            return [[(u + v) & lane_mask for u, v in zip(x, y)]]

        _vector(f"x86_VPADD_{n}u{m}", n, m,
                [E(total, 0), E(total, 1)], [(n, m), (n, m)], _lane_form("+", n, m), padd_l)

    # VPMULUDQ: the low 32 bits of each 64-bit lane multiplied, unrolled
    # in OpsV; a 32 x 32-bit product fills its lane exactly
    m32 = (1 << 32) - 1

    def pmulu_v(a):
        x, y = a
        return [(x & m32) * (y & m32)
                | (x >> 64 & m32) * (y >> 64 & m32) << 64
                | (x >> 128 & m32) * (y >> 128 & m32) << 128
                | (x >> 192 & m32) * (y >> 192 & m32) << 192]

    def pmulu_l(a):
        x, y = a
        return [[(u & m32) * (v & m32) for u, v in zip(x, y)]]

    _vector("x86_VPMULU_4u64", 4, 64, [E(256, 0), E(256, 1)], [(4, 64), (4, 64)],
            pmulu_v, pmulu_l, mnemonic="VPMULUDQ")

    # whole-register bitwise operations, viewed as 64-bit lanes in Ops mode
    for total in (128, 256):
        n = total // 64
        for nm, pyop in (("VPXOR", "^"), ("VPAND", "&"), ("VPOR", "|")):
            if pyop == "^":
                sem = lambda a: [a[0] ^ a[1]]
                sem_l = lambda a: [[u ^ v for u, v in zip(a[0], a[1])]]
            elif pyop == "&":
                sem = lambda a: [a[0] & a[1]]
                sem_l = lambda a: [[u & v for u, v in zip(a[0], a[1])]]
            else:
                sem = lambda a: [a[0] | a[1]]
                sem_l = lambda a: [[u | v for u, v in zip(a[0], a[1])]]
            _vector(f"x86_{nm}_{total}", n, 64,
                    [E(total, 0), E(total, 1)], [(n, 64), (n, 64)], sem, sem_l)

    # lane shifts by a shared count
    for n, m in ((4, 64), (8, 32), (4, 32)):
        total = n * m
        lane_mask = (1 << m) - 1

        def psll_l(a, *, m=m, lane_mask=lane_mask):
            x, c = a
            if c >= m:
                return [[0] * len(x)]
            return [[(u << c) & lane_mask for u in x]]

        def psrl_l(a, *, m=m):
            x, c = a
            if c >= m:
                return [[0] * len(x)]
            return [[u >> c for u in x]]

        _vector(f"x86_VPSLL_{n}u{m}", n, m,
                [E(total, 0), E(8, 1)], [(n, m), None], _lane_form("<<", n, m), psll_l,
                oshape=("oprd", "imm8"))
        _vector(f"x86_VPSRL_{n}u{m}", n, m,
                [E(total, 0), E(8, 1)], [(n, m), None], _lane_form(">>", n, m), psrl_l,
                oshape=("oprd", "imm8"))

    # per-lane variable shifts (vector of counts)
    for nm in ("4u64", "8u32"):
        n, m = (4, 64) if nm == "4u64" else (8, 32)
        total = n * m
        lane_mask = (1 << m) - 1

        def psllv_v(a, *, n=n, m=m, lane_mask=lane_mask):
            x, cs = a
            r = 0
            for i in range(n):
                c = (cs >> (m * i)) & lane_mask
                if c < m:
                    r |= (((x >> (m * i)) & lane_mask) << c & lane_mask) << (m * i)
            return [r]

        def psllv_l(a, *, m=m, lane_mask=lane_mask):
            x, cs = a
            return [[(u << c) & lane_mask if c < m else 0 for u, c in zip(x, cs)]]

        def psrlv_v(a, *, n=n, m=m, lane_mask=lane_mask):
            x, cs = a
            r = 0
            for i in range(n):
                c = (cs >> (m * i)) & lane_mask
                if c < m:
                    r |= (((x >> (m * i)) & lane_mask) >> c) << (m * i)
            return [r]

        def psrlv_l(a, *, m=m, lane_mask=lane_mask):
            x, cs = a
            return [[u >> c if c < m else 0 for u, c in zip(x, cs)]]

        _vector(f"x86_VPSLLV_{nm}", n, m,
                [E(total, 0), E(total, 1)], [(n, m), (n, m)], psllv_v, psllv_l)
        _vector(f"x86_VPSRLV_{nm}", n, m,
                [E(total, 0), E(total, 1)], [(n, m), (n, m)], psrlv_v, psrlv_l)

    # broadcasts: multiplication by the all-lanes-one pattern in OpsV mode
    for name, n, m in (("x86_VPBROADCAST_4u64", 4, 64),
                       ("x86_VPBROADCAST_8u32", 8, 32),
                       ("x86_VPBROADCAST_4u32", 4, 32)):
        mult = lanes(1, n, m)

        def bcast_v(a, *, mult=mult):
            return [a[0] * mult]

        def bcast_l(a, *, n=n):
            return [[a[0]] * n]

        _vector(name, n, m, [E(m, 0)], [None], bcast_v, bcast_l, oshape=("oprd",))

    # selector- and immediate-driven permutes: OpsV applies the
    # selector's shift-and-mask plan, Ops indexes the lane array
    def permute_v(width, n):
        def v(a):
            x, sel = a
            return [_permute(x, _permute_plan(width, n, sel))]

        return v

    # dword shuffles: imm8 is four 2-bit source positions, applied per
    # 128-bit half in the 256-bit form
    def shufd128_l(a):
        x, imm = a
        return [[x[(imm >> (2 * i)) & 3] for i in range(4)]]

    _vector("x86_VPSHUFD_128", 4, 32,
            [E(128, 0), E(8, 1)], [(4, 32), None], permute_v(32, 4), shufd128_l,
            oshape=("oprd", "imm8"))

    def shufd256_l(a):
        x, imm = a
        return [[x[h + ((imm >> (2 * i)) & 3)] for h in (0, 4) for i in range(4)]]

    _vector("x86_VPSHUFD_256", 8, 32,
            [E(256, 0), E(8, 1)], [(8, 32), None], permute_v(32, 8), shufd256_l,
            oshape=("oprd", "imm8"))

    # byte shuffles: per-byte table lookup within each 128-bit half;
    # a set high bit in the selector byte yields zero
    half_base = [(i // 16) * 16 for i in range(32)]  # first byte of byte i's half

    def shufb_l(a):
        x, s = a
        return [[0 if sel & 0x80 else x[h + (sel & 0x0F)] for h, sel in zip(half_base, s)]]

    _vector("x86_VPSHUFB_128", 16, 8,
            [E(128, 0), E(128, 1)], [(16, 8), (16, 8)], permute_v(8, 16), shufb_l)
    _vector("x86_VPSHUFB_256", 32, 8,
            [E(256, 0), E(256, 1)], [(32, 8), (32, 8)], permute_v(8, 32), shufb_l)

    # interleaves (per 128-bit half, AVX2 style); OpsV moves the chosen
    # elements of both halves at once, with one mask per element position
    def half_elements(m):
        return [lanes(((1 << m) - 1) << (m * k), 2, 128) for k in range(128 // m)]

    d0, d1, d2, d3 = half_elements(32)

    def unpckl32_v(a):
        x, y = a
        return [(x & d0) | ((x & d1) | (y & d0)) << 32 | (y & d1) << 64]

    def unpckh32_v(a):
        x, y = a
        return [(x & d2) >> 64 | ((x & d3) | (y & d2)) >> 32 | (y & d3)]

    def unpck32_l(off):
        def l(a):
            x, y = a
            out = []
            for h in (0, 4):
                out += [x[h + off], y[h + off], x[h + off + 1], y[h + off + 1]]
            return [out]

        return l

    _vector("x86_VPUNPCKL_8u32", 8, 32,
            [E(256, 0), E(256, 1)], [(8, 32), (8, 32)], unpckl32_v, unpck32_l(0))
    _vector("x86_VPUNPCKH_8u32", 8, 32,
            [E(256, 0), E(256, 1)], [(8, 32), (8, 32)], unpckh32_v, unpck32_l(2))

    q0, q1 = half_elements(64)

    def unpckl64_v(a):
        x, y = a
        return [(x & q0) | (y & q0) << 64]

    def unpckh64_v(a):
        x, y = a
        return [(x & q1) >> 64 | (y & q1)]

    def unpck64_l(off):
        def l(a):
            x, y = a
            return [[x[off], y[off], x[2 + off], y[2 + off]]]

        return l

    _vector("x86_VPUNPCKL_4u64", 4, 64,
            [E(256, 0), E(256, 1)], [(4, 64), (4, 64)], unpckl64_v, unpck64_l(0))
    _vector("x86_VPUNPCKH_4u64", 4, 64,
            [E(256, 0), E(256, 1)], [(4, 64), (4, 64)], unpckh64_v, unpck64_l(1))

    # 128-bit-lane permutes / extract / insert
    m128 = (1 << 128) - 1

    def perm2i_v(a):
        x, y, imm = a
        halves = [x & m128, x >> 128, y & m128, y >> 128]
        lo = 0 if imm & 0x08 else halves[imm & 3]
        hi = 0 if imm & 0x80 else halves[(imm >> 4) & 3]
        return [lo | (hi << 128)]

    def perm2i_l(a):
        x, y, imm = a
        halves = [x[0], x[1], y[0], y[1]]
        lo = 0 if imm & 0x08 else halves[imm & 3]
        hi = 0 if imm & 0x80 else halves[(imm >> 4) & 3]
        return [[lo, hi]]

    _vector("x86_VPERM2I128", 2, 128, [E(256, 0), E(256, 1), E(8, 2)],
            [(2, 128), (2, 128), None], perm2i_v, perm2i_l, oshape=("oprd", "oprd", "imm8"))

    def permq_l(a):
        x, imm = a
        return [[x[(imm >> (2 * i)) & 3] for i in range(4)]]

    _vector("x86_VPERMQ_4u64", 4, 64,
            [E(256, 0), E(8, 1)], [(4, 64), None], permute_v(64, 4), permq_l,
            oshape=("oprd", "imm8"))

    def extract_v(a):
        x, imm = a
        return [(x >> 128) & m128 if imm & 1 else x & m128]

    def extract_l(a):
        x, imm = a
        return [x[imm & 1]]

    register(
        Descriptor(
            name="x86_VEXTRACTI128",
            sources=(E(256, 0), E(8, 1)),
            destinations=(E(128, 0),),
            oshape=("oprd", "imm8"),
            mnemonic="VEXTRACTI128",
            sem=extract_v,
            size=128,
            lanes=(2, 128),
            sem_lanes=extract_l,
            src_lanes=((2, 128), None),
            dst_lanes=(None,),
        )
    )

    def insert_v(a):
        x, y, imm = a
        if imm & 1:
            return [(x & m128) | (y << 128)]
        return [(x & (m128 << 128)) | y]

    def insert_l(a):
        x, y, imm = a
        return [[x[0], y] if imm & 1 else [y, x[1]]]

    _vector("x86_VINSERTI128", 2, 128, [E(256, 0), E(128, 1), E(8, 2)],
            [(2, 128), None, None], insert_v, insert_l, oshape=("oprd", "oprd", "imm8"))


_build_vectors()
