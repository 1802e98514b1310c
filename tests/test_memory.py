import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import memory_ref
from jamin import interp, memory
from jamin.expand import expand
from jamin.memory import Memory, OutOfRegion, UninitializedRead
from jamin.parser import parse
from jamin.typecheck import typecheck
from jamin.words import Word


def fresh(base=0, length=64):
    return memory.add_region(Memory(), base, length)


def test_get_set_axiom_small():
    m = fresh(0, 16)
    m = memory.store8(m, 5, 0xAB)
    m2 = memory.store8(m, 10, 0xCD)
    assert memory.load8(m2, 10) == 0xCD
    assert memory.load8(m2, 5) == 0xAB  # frame


def test_out_of_region():
    m = fresh(0, 16)
    with pytest.raises(OutOfRegion):
        memory.load8(m, 16)
    memory.store8(m, 15, 1)  # half-open upper bound is permitted
    with pytest.raises(OutOfRegion):
        memory.store8(m, 16, 1)


def test_uninitialized_read_faults():
    m = fresh(0, 16)
    with pytest.raises(UninitializedRead):
        memory.load8(m, 3)


def test_region_merge():
    m = memory.add_region(memory.add_region(Memory(), 0, 8), 8, 8)
    assert m.regions() == [(0, 16)]
    m = memory.store_bytes(m, 6, bytes(4))  # crosses the old boundary
    assert memory.loadW(m, 6, 32).value == 0


def test_region_overflow():
    with pytest.raises(ValueError):
        memory.add_region(Memory(), 2**64 - 4, 8)
    with pytest.raises(ValueError):
        memory.add_region(Memory(), 0, -1)


def test_storeW_little_endian():
    m = fresh(0, 16)
    m = memory.storeW(m, 0, Word(64, 1))
    assert memory.load8(m, 0) == 1
    assert memory.load8(m, 7) == 0


def test_type_punning():
    m = fresh(0, 16)
    m = memory.storeW(m, 0, Word(32, 0xAABBCCDD))
    assert memory.loadW(m, 1, 16).value == 0xBBCC


@given(st.integers(0, 2**64 - 1), st.sampled_from((16, 32, 64, 128, 256)))
def test_loadW_equals_byte_join(value, width):
    from jamin import words

    m = fresh(0, 64)
    m = memory.storeW(m, 8, Word(width, value))
    parts = [Word(8, memory.load8(m, 8 + i)) for i in range(width // 8)]
    assert words.join(parts, width) == memory.loadW(m, 8, width)


def test_storeW_serialization_oracle():
    rng = random.Random(0)
    m = fresh(0, 64)
    for _ in range(200):
        v = rng.getrandbits(128)
        m2 = memory.storeW(m, 16, Word(128, v))
        assert memory.load_bytes(m2, 16, 16) == v.to_bytes(16, "little")


def test_store_is_functional():
    m = fresh(0, 16)
    m1 = memory.store8(m, 0, 1)
    m2 = memory.store8(m, 0, 2)
    assert memory.load8(m1, 0) == 1
    assert memory.load8(m2, 0) == 2
    with pytest.raises(UninitializedRead):
        memory.load8(m, 0)


def test_address_wrap_in_wide_access():
    m = memory.add_region(Memory(), 2**64 - 8, 8)
    m = memory.add_region(m, 0, 8)
    m = memory.storeW(m, 2**64 - 4, Word(64, 0x1122334455667788))
    # bytes wrap around the address space, region checks after wrapping
    assert memory.load8(m, 0) == 0x44
    assert memory.loadW(m, 2**64 - 4, 64).value == 0x1122334455667788


@pytest.mark.parametrize("impl", [memory, memory_ref], ids=["memory", "memory_ref"])
def test_store_bytes_inplace_wraps_at_the_top_of_memory(impl):
    m = impl.add_region(impl.add_region(impl.Memory(), 2**64 - 2, 2), 0, 2)
    m.store_bytes_inplace(2**64 - 2, b"\x01\x02\x03\x04")
    assert impl.load_bytes(m, 2**64 - 2, 4) == b"\x01\x02\x03\x04"
    assert impl.load_bytes(m, 0, 2) == b"\x03\x04"


def test_dump_and_parse_roundtrip():
    m = fresh(0x1000, 40)
    m = memory.store_bytes(m, 0x1000, bytes(range(20)))
    text = memory.dump(m)
    lines = text.splitlines()
    assert lines[0].startswith("00001000: 00 01 02")
    assert ".." in lines[1]  # uninitialized tail bytes
    back = memory.parse_dump(text)
    assert memory.load_bytes(back, 0x1000, 20) == bytes(range(20))
    assert back.regions() == m.regions()
    with pytest.raises(UninitializedRead):
        memory.load8(back, 0x1000 + 25)


def test_dump_format_16_per_line():
    m = fresh(0, 32)
    m = memory.store_bytes(m, 0, bytes(32))
    for line in memory.dump(m).splitlines():
        addr, _, rest = line.partition(": ")
        assert len(addr) == 8 and addr == addr.lower()
        assert len(rest.split()) == 16


def _reference_dump(m):
    """The dump format, formatted one cell at a time."""
    lines = []
    for base, end in m.regions():
        for row in range(base, end, 16):
            cells = [f"{memory.load8(m, a):02x}" if m.is_initialized(a) else ".."
                     for a in range(row, min(row + 16, end))]
            lines.append(f"{row:08x}: " + " ".join(cells))
    return "\n".join(lines) + ("\n" if lines else "")


def _dump_cases():
    m = memory.add_region(Memory(), 0x2000, 37)  # a partial last row
    m = memory.store_bytes(m, 0x2000, bytes(range(37)))
    yield m
    yield memory.store8(memory.store8(m, 0x2005, 0xFF), 0x2013, 7)
    holes = memory.add_region(Memory(), 0x2000, 37)
    holes = memory.store_bytes(holes, 0x2000, bytes(range(5)))
    holes = memory.store_bytes(holes, 0x2008, b"\xab" * 20)  # unwritten 5..7 mid-row
    yield holes
    adjacent = memory.add_region(holes, 0x2025, 11)  # adjacent: merged with the first
    yield memory.store8(adjacent, 0x202F, 0x10)
    apart = memory.add_region(holes, 0x2026, 40)  # one byte apart: a second region
    yield memory.store_bytes(apart, 0x2030, b"\x01\x02")
    yield Memory()
    yield from _whole_cases()
    rng = random.Random(8)
    for _ in range(20):
        m = Memory()
        for _ in range(rng.randrange(1, 4)):
            m = memory.add_region(m, rng.randrange(0, 200), rng.randrange(1, 50))
        for base, end in m.regions():
            for a in range(base, end):
                if rng.random() < 0.9:
                    m = memory.store8(m, a, rng.getrandbits(8))
        yield m


def _whole_cases():
    """Memories holding regions built whole (no init map) next to
    regions with one, partly written or not."""
    whole = Memory.from_spans([(0x3000, bytes(range(256)) * 8), (0x2000, bytes(range(37))),
                               (0x2030, b"\xee")])
    yield whole
    mixed = memory.add_region(whole, 0x4000, 40)  # unwritten
    mixed = memory.store_bytes(mixed, 0x4003, b"\x05" * 20)
    yield mixed
    yield memory.add_region(mixed, 0x2025, 3)  # adjacent: merged into an init map
    yield memory.store8(mixed, 0x2010, 0xAA)


def test_dump_matches_per_cell_reference_and_round_trips():
    for m in _dump_cases():
        text = memory.dump(m)
        assert text == _reference_dump(m)
        back = memory.parse_dump(text)
        assert back.regions() == m.regions()
        assert memory.dump(back) == text
    assert memory.dump(Memory()) == ""


def test_dump_is_the_same_with_or_without_an_init_map():
    """A region built whole prints the rows the same region built by
    add_region and store_bytes prints, next to regions with holes."""
    for m in _whole_cases():
        built = Memory()
        for base, end in m.regions():
            built = memory.add_region(built, base, end - base)
            for a in range(base, end):
                if m.is_initialized(a):
                    built = memory.store8(built, a, memory.load8(m, a))
        assert memory.dump(m) == memory.dump(built) == _reference_dump(m)
        assert [r[3] is None for r in m._regions] != [r[3] is None for r in built._regions]


def test_from_spans_builds_regions_without_an_init_map():
    m = Memory.from_spans([(0x100, b"\x01\x02"), (0x80, bytes(3)), (0x103, b""), (0x200, b"")])
    assert m.regions() == [(0x80, 0x83), (0x100, 0x102)]
    assert [r[3] for r in m._regions] == [None, None]
    assert memory.load_bytes(m, 0x100, 2) == b"\x01\x02" and m.is_initialized(0x82)
    assert m._lines == {0x80 >> memory.LINE: 0, 0x100 >> memory.LINE: 1}
    inside = memory.add_region(m, 0x100, 1)  # a region inside one changes nothing
    assert inside._regions == m._regions
    grown = memory.add_region(m, 0x102, 2)  # adjacent: merged, written bytes kept
    assert grown.regions() == [(0x80, 0x83), (0x100, 0x104)]
    assert memory.load_bytes(grown, 0x100, 2) == b"\x01\x02"
    with pytest.raises(UninitializedRead):
        memory.load8(grown, 0x102)
    assert m._regions[1][3] is None  # the copy's merge leaves the original as it was


def test_from_spans_merges_touching_spans_as_add_region_and_store_bytes_do():
    m = Memory.from_spans([(0x10, b"\x01" * 4), (0x14, b"\x02" * 2), (0x12, b"\x03")])
    assert m.regions() == [(0x10, 0x16)]
    assert memory.load_bytes(m, 0x10, 6) == b"\x01\x01\x03\x01\x02\x02"
    with pytest.raises(ValueError, match="64-bit"):
        Memory.from_spans([(0, b"\x00"), (TOP - 1, b"\x00\x00")])
    with pytest.raises(ValueError, match="64-bit"):
        Memory.from_spans([(TOP + 1, b"")])
    half = bytes(memory.MAX_BYTES // 2)
    with pytest.raises(ValueError, match="MiB"):
        Memory.from_spans([(0, half), (memory.MAX_BYTES, half + b"\x00")])


def test_from_spans_takes_init_maps():
    """A span's init map marks its written bytes: a region of one span
    keeps the map, and a merged region drops it once all is written."""
    m = Memory.from_spans([(0x10, b"\x01\x02", b"\x01\x00"), (0x20, b"\x03", b"\x01")])
    assert [r[3] for r in m._regions] == [bytearray(b"\x01\x00"), bytearray(b"\x01")]
    assert memory.load8(m, 0x10) == 1 and not m.is_initialized(0x11)
    merged = Memory.from_spans([(0x10, b"\x01\x02", b"\x01\x00"), (0x11, b"\x05", b"\x01"),
                                (0x10, b"\x09\x09", b"\x00\x00")])
    assert merged.regions() == [(0x10, 0x12)] and merged._regions[0][3] is None
    assert memory.load_bytes(merged, 0x10, 2) == b"\x01\x05"


def test_parse_dump_rejects_a_cell_that_is_not_a_byte():
    for cell in ("1ff", "-1"):
        with pytest.raises(ValueError, match="not a byte"):
            memory.parse_dump(f"00001000: 00 {cell}\n")


@pytest.mark.parametrize("text, message", [
    ("zz: 00\n", "bad dump line 1: 'zz: 00'"),
    ("# a comment\n\n00001000:" + " 00" * 17 + "\n", "dump line 3 has more than 16 bytes"),
], ids=["address", "long-row"])
def test_parse_dump_rejects_a_malformed_line(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        memory.parse_dump(text)


def test_parse_dump_skips_blank_and_comment_lines():
    m = memory.parse_dump("# written by hand\n\n  \n00001000: 07 ..\n# end\n")
    assert memory.dump(m) == "00001000: 07 ..\n"


def test_parse_dump_names_the_line_of_a_cell_that_is_not_hex():
    for cell in ("zz", "0g", "1.5"):
        with pytest.raises(ValueError, match=f"^dump line 2: '{cell}' is not a byte$"):
            memory.parse_dump(f"00001000: 00\n00002000: 11 {cell}\n")


def _parse_timed(text: str):
    start = time.perf_counter()
    m = memory.parse_dump(text)
    return m, time.perf_counter() - start


@pytest.mark.wallclock
def test_large_dumps_parse_in_linear_time():
    """A dump's rows are the spans of one Memory.from_spans call, which
    builds each region once: 256 KiB parse in well under a second (about
    0.15 s), where merging row by row took about 3 s.  A fully written
    region gets no init map; one with unwritten (`..`) bytes keeps one."""
    whole = Memory.from_spans([(0x10000, bytes(range(256)) * 1024)])
    holes = memory.add_region(Memory.from_spans([(0x1000, b"\x07" * 40)]), 0x100000, 1 << 18)
    for a in range(0x100000, 0x140000, 0x1000):
        holes.store_bytes_inplace(a + 3, bytes(range(256)) * 7)
    for m, maps in ((whole, [None]), (holes, [None, bytearray])):
        text = memory.dump(m)
        back, seconds = _parse_timed(text)
        assert memory.dump(back) == text and back.regions() == m.regions()
        assert [r[3] if r[3] is None else type(r[3]) for r in back._regions] == maps
        assert seconds < 1.0, seconds


def test_parse_dump_merges_rows_that_overlap_or_go_back():
    """Rows out of address order, overlapping or touching, give the
    regions and bytes add_region then a store of each row give: a later
    row's byte wins, and its `..` leaves an earlier byte as it was."""
    text = ("00000020: 01 02 03 04\n00000010: 05 06\n00000012: 07 .. 09\n"
            "00000000: 0a\n00000011: .. 0b\n00000040: 0c\n00000041: ..\n")
    back = memory.parse_dump(text)
    assert back.regions() == memory_ref.parse_dump(text).regions() == [
        (0, 1), (0x10, 0x15), (0x20, 0x24), (0x40, 0x42)]
    assert memory.dump(back) == memory_ref.dump(memory_ref.parse_dump(text))
    assert memory.load_bytes(back, 0x10, 3) == b"\x05\x06\x0b"
    with pytest.raises(ValueError, match="64-bit"):
        memory.parse_dump(f"{TOP - 1:x}: 00 01\n")
    with pytest.raises(ValueError, match="64-bit"):
        memory.parse_dump(f"{TOP + 1:x}:\n")


def _outcome(f, *args):
    """What a load returns, or the class and address of its fault."""
    try:
        return f(*args)
    except (OutOfRegion, UninitializedRead) as exc:
        return type(exc), exc.address


def _per_byte(m, a, n):
    return bytes(memory.load8(m, (a + i) & memory.ADDR_MASK) for i in range(n))


def _per_byte_int(m, a, width):
    v = 0
    for i in reversed(range(width // 8)):  # highest byte first
        v = (v << 8) | memory.load8(m, (a + i) & memory.ADDR_MASK)
    return v


def test_span_loads_fault_like_per_byte_loads():
    top = (1 << 64) - 16
    m = Memory()
    for base, length in ((0x100, 40), (0x12A, 20), (top, 16), (0, 8)):
        m = memory.add_region(m, base, length)
    # written: 0x100..0x10F and 0x114..0x127 (a hole at 0x110..0x113),
    # the second region partly, the 16 bytes below 2^64 and 0..7
    for a, data in ((0x100, bytes(range(16))), (0x114, b"\xee" * 20),
                    (0x12A, b"\x01" * 6), (top, bytes(range(1, 17))), (0, b"\x07" * 8)):
        m = memory.store_bytes(m, a, data)
    spans = [(0x100, 16), (0x104, 8), (0x10C, 8), (0x110, 4), (0x112, 30), (0x120, 16),
             (0x126, 8), (0x128, 4), (0x12A, 6), (0x12C, 12), (0x13E, 4), (0xF8, 16),
             (top + 8, 16), (top, 16), (top + 12, 8), (0x100, 0), (0x200, 0), (0x200, 1)]
    rng = random.Random(9)
    spans += [(rng.randrange(0xF0, 0x150), rng.randrange(0, 40)) for _ in range(200)]
    for a, n in spans:
        assert _outcome(memory.load_bytes, m, a, n) == _outcome(_per_byte, m, a, n), (a, n)
        for width in (8, 16, 32, 64, 128, 256):
            assert (_outcome(m.load_int, a, width)
                    == _outcome(_per_byte_int, m, a, width)), (a, width)


# -- differential: the region buffers against the per-byte reference model

TOP = 1 << 64
# addresses near 0 and in the 40 bytes below 2^64, so that spans straddle
# regions and wide accesses wrap
ADDRS = st.one_of(st.integers(0, 160), st.integers(TOP - 40, TOP - 1))
WIDTHS = st.sampled_from((8, 16, 32, 64, 128, 256))


def _result(f, *args, **kw):
    """What a call returns, or the class and address of its fault."""
    try:
        return "ok", f(*args, **kw)
    except (OutOfRegion, UninitializedRead) as exc:
        return type(exc), exc.address
    except ValueError:
        return ValueError, None


def _interp_result(f, *args):
    """_result for an interpreter helper, its faults named as memory's."""
    try:
        return "ok", f(*args)
    except interp.OutOfRegion as exc:
        return OutOfRegion, exc.address
    except interp.UninitializedUse as exc:  # "memory byte 0x..."
        return UninitializedRead, int(exc.var.split()[-1], 16)


def _one_access(nbytes: int, store: bool):
    """A program making one nbytes-byte load or store at address a."""
    w = 8 * nbytes
    src = (f"fn f(reg u64 a, reg u{w} v) {{ (u{w})[a] = v; }}" if store else
           f"fn f(reg u64 a) -> reg u{w} {{ reg u{w} v; v = (u{w})[a]; return v; }}")
    return expand(typecheck(parse(src)))


ONE_ACCESS = {(n, store): _one_access(n, store)
              for n in (1, 2, 4, 8, 16, 32) for store in (False, True)}


class MemoryModel(RuleBasedStateMachine):
    """The same operations on a jamin Memory and on the reference model
    give the same values, faults, regions and dumps."""

    @initialize()
    def start(self):
        self.m, self.ref = Memory(), memory_ref.Memory()

    def addr(self, data):
        """An address in ADDRS or, as often, near a region's first or
        last byte."""
        edges = [x for r in self.m.regions() for x in r]
        if edges and data.draw(st.booleans()):
            return (data.draw(st.sampled_from(edges)) + data.draw(st.integers(-33, 8))) % TOP
        return data.draw(ADDRS)

    def unwritten(self, data, nbytes):
        """An address whose nbytes bytes lie in one region and start at an
        unwritten byte, or None when there is none."""
        spots = [a for b, e in self.m.regions() for a in range(b, e - nbytes + 1)
                 if not self.m.is_initialized(a)]
        return data.draw(st.sampled_from(spots)) if spots else None

    def both(self, name, *args, **kw):
        got = _result(getattr(self.m, name), *args, **kw)
        want = _result(getattr(self.ref, name), *args, **kw)
        assert got == want, (name, args, kw)

    @rule(base=ADDRS, length=st.integers(-1, 48))
    def add_region(self, base, length):
        self.both("_add_region_inplace", base, length)

    @rule(length=st.integers(1, 24))
    def add_region_at_the_top(self, length):
        """The last bytes below 2^64, where wide accesses wrap to 0."""
        self.both("_add_region_inplace", TOP - length, length)

    @rule(data=st.data(), gap=st.sampled_from((-3, -1, 0, 1)), length=st.integers(1, 24),
          below=st.booleans())
    def add_region_near(self, data, gap, length, below):
        """A region overlapping (gap < 0), adjacent to (0) or one byte
        apart from (1) an existing one, above or below it."""
        regions = self.m.regions()
        if not regions:
            return
        b, e = data.draw(st.sampled_from(regions))
        self.both("_add_region_inplace", b - gap - length if below else e + gap, length)

    @rule(data=st.data())
    def fill_region(self, data):
        """Write all of a region, so that accesses at its ends slice it."""
        regions = self.m.regions()
        if regions:
            b, e = data.draw(st.sampled_from(regions))
            self.both("store_bytes_inplace", b, data.draw(st.binary(min_size=e - b, max_size=e - b)))

    @rule(data=st.data(), spaced=st.booleans())
    def from_spans(self, data, spaced):
        """A memory built whole from (base, bytes) spans, which the model
        builds by add_region and a store of each span's bytes in turn.  Spans
        at least one byte apart (`spaced`) become regions without an init
        map, which the other rules then load, store, thaw and dump."""
        chunks = st.binary(min_size=1, max_size=24)
        if spaced:
            spans, base = [], data.draw(ADDRS)
            for chunk in data.draw(st.lists(chunks, min_size=1, max_size=4)):
                spans.append((base, chunk))
                base += len(chunk) + data.draw(st.integers(1, 9))
            spans = data.draw(st.permutations(spans))
        else:  # some spans with an init map: the model stores their written bytes only
            spans = data.draw(st.lists(st.tuples(ADDRS, st.binary(max_size=24)), max_size=4))
            spans = [(b, d, bytes(data.draw(st.lists(st.integers(0, 1), min_size=len(d),
                                                     max_size=len(d)))))
                     if data.draw(st.booleans()) else (b, d) for b, d in spans]
        got = _result(Memory.from_spans, spans)
        want = _result(_ref_from_spans, spans)
        assert got[0] == want[0]
        if got[0] == "ok":
            self.m, self.ref = got[1], want[1]
            if spaced:
                assert all(init is None for _, _, _, init in self.m._regions)

    @rule(at=st.data(), w=st.integers(0, 255))
    def store8(self, at, w):
        a = self.addr(at)
        self.both("_store8_inplace", a, w)

    @rule(at=st.data(), width=WIDTHS, value=st.integers(0, (1 << 256) - 1))
    def store_int(self, at, width, value):
        a = self.addr(at)
        self.both("store_int_inplace", a, width, value)

    @rule(at=st.data(), data=st.binary(max_size=40))
    def store_bytes(self, at, data):
        a = self.addr(at)
        self.both("store_bytes_inplace", a, data)

    @rule(at=st.data(), data=st.binary(max_size=40))
    def store_bytes_functional(self, at, data):
        a = self.addr(at)
        got = _result(memory.store_bytes, self.m, a, data)
        want = _result(memory_ref.store_bytes, self.ref, a, data)
        if got[0] == "ok" and want[0] == "ok":
            self.m, self.ref = got[1], want[1]  # compared by the invariant
        else:
            assert got == want

    @rule(at=st.data())
    def load8(self, at):
        a = self.addr(at)
        self.both("_load8", a)

    @rule(at=st.data(), width=WIDTHS)
    def load_int(self, at, width):
        a = self.addr(at)
        self.both("load_int", a, width)

    @rule(at=st.data(), n=st.integers(0, 40), highest_first=st.booleans())
    def load_span(self, at, n, highest_first):
        a = self.addr(at)
        self.both("load_span", a, n, highest_first=highest_first)

    @rule(at=st.data(), nbytes=st.sampled_from((1, 2, 4, 8, 16, 32)), value=st.integers(0, 255),
          store=st.booleans())
    def interp_access(self, at, nbytes, value, store):
        """The interpreter's load and store helpers, which access through
        Memory's load_span and store_bytes_inplace, and the code generated
        for the same access, which tests a hit itself and calls the
        helper on a miss: the model's values and faults, the event first,
        and the model's memory.  Half the accesses start at an unwritten
        byte inside a region, where a store hits and must mark its bytes
        written."""
        a = self.unwritten(at, nbytes) if at.draw(st.booleans()) else None
        if a is None:
            a = self.addr(at)
        trace, pending, run_trace = [], (7,), []
        program = ONE_ACCESS[nbytes, store]
        ran = _interp_result(lambda: interp.run(program, "f", [a, value] if store else [a],
                                                self.m, trace=run_trace))
        if store:
            got = _interp_result(interp._st, self.m, trace, pending, value, a, nbytes, None)
            want = _result(self.ref.store_int_inplace, a, nbytes * 8, value)
        else:
            got = _interp_result(interp._ld, self.m, trace, pending, a, nbytes, None)
            want = _result(self.ref.load_int, a, nbytes * 8)
        assert got == want
        assert trace == [*pending, a]
        assert run_trace == [a]
        if ran[0] == "ok":  # a faulting run's memory is not returned
            results, after = ran[1].results, ran[1].memory
            ran = "ok", results[0].value if results else None
            assert memory.dump(after) == memory.dump(self.m)
        assert ran == got

    @rule(at=st.data(), w=st.integers(0, 255))
    def thaw_is_isolated(self, at, w):
        """A store to a thawed copy leaves the original as it was."""
        a = self.addr(at)
        before = memory.dump(self.m)
        work, ref_work = self.m.thaw(), self.ref.thaw()
        assert _result(work._store8_inplace, a, w) == _result(ref_work._store8_inplace, a, w)
        assert memory.dump(self.m) == before
        assert memory.dump(work) == memory_ref.dump(ref_work)
        self.m, self.ref = work, ref_work

    @rule()
    def parse_dump(self):
        text = memory.dump(self.m)
        back = memory.parse_dump(text)
        assert back.regions() == memory_ref.parse_dump(text).regions()
        assert memory.dump(back) == text
        self.m = back

    @rule(data=st.data())
    def parse_shuffled_dump(self, data):
        """The memory's dump with its rows shuffled, some repeated and some
        cells of the rows blanked to `..`: rows that overlap, touch or go
        back merge into the model's regions and bytes, a later row's byte
        winning and its `..` leaving an earlier byte as it was."""
        rows = memory.dump(self.m).splitlines()
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        rows = data.draw(st.permutations(rows))
        for i, row in enumerate(rows):
            addr, _, cells = row.partition(": ")
            cells = cells.split()
            for j in data.draw(st.sets(st.integers(0, len(cells) - 1), max_size=3)):
                cells[j] = ".."
            rows[i] = f"{addr}: {' '.join(cells)}"
        text = "".join(row + "\n" for row in rows)
        self.m, self.ref = memory.parse_dump(text), memory_ref.parse_dump(text)

    @invariant()
    def same_state(self):
        if hasattr(self, "m"):
            assert self.m.regions() == self.ref.regions()
            assert memory.dump(self.m) == memory_ref.dump(self.ref)


TestMemoryModel = MemoryModel.TestCase
TestMemoryModel.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


def test_zero_length_spans_and_the_top_of_memory():
    for m in (Memory(), memory.add_region(Memory(), 0, 4), memory.add_region(Memory(), 1, 4)):
        assert memory.load_bytes(m, 0, 0) == b""
        m.store_bytes_inplace(0, b"")
    top = memory.add_region(memory.add_region(Memory(), TOP - 16, 16), 0, 16)
    top = memory.storeW(top, TOP - 16, Word(256, (1 << 256) - 1 - 0xAB))
    assert top.regions() == [(0, 16), (TOP - 16, TOP)]
    assert memory.load8(top, TOP - 16) == 0x54 and memory.load8(top, 15) == 0xFF
    assert memory.load_bytes(top, TOP - 8, 16) == b"\xff" * 16
    with pytest.raises(OutOfRegion) as exc:
        memory.loadW(top, TOP - 8, 256)  # from the highest address, TOP + 23 wrapped
    assert exc.value.address == 23


def test_regions_past_the_cap_are_rejected():
    m = memory.add_region(Memory(), 0, memory.MAX_BYTES)
    with pytest.raises(ValueError, match="MiB"):
        memory.add_region(m, memory.MAX_BYTES + 1, 1)
    assert memory.add_region(m, memory.MAX_BYTES, 0).regions() == [(0, memory.MAX_BYTES)]


def test_corpus_accesses_never_take_the_fallback(monkeypatch):
    """ct_check places a program's regions 16 to 256 bytes apart, so
    several share a 64-byte line; every access the corpus makes lies in
    written bytes of one region, which generated code or, on a miss of
    its line lookup, Memory's line walk finds, never Memory's byte-by-byte
    fault path."""
    from jamin import leakage
    from jamin.primitives.corpus import PROGRAMS, load_program

    fallbacks, shared = Counter(), Counter()
    for method in ("_load8", "_store8_inplace"):
        def counted(self, *args, _f=getattr(Memory, method), _name=method):
            fallbacks[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(Memory, method, counted)
    run = interp.run

    def run_counting_shared_lines(p, entry, args, m, **kw):
        touched = Counter(line for b, e in m.regions()
                          for line in range(b >> memory.LINE, ((e - 1) >> memory.LINE) + 1))
        shared[entry] += sum(n > 1 for n in touched.values())
        return run(p, entry, args, m, **kw)

    monkeypatch.setattr(interp, "run", run_counting_shared_lines)
    for name, info in PROGRAMS.items():
        v = leakage.ct_check(load_program(name), info.entry, info.public,
                             trials=20, seed=5, shape=info.shape)
        assert v.secure, name
    assert shared["poly1305"] and shared["chacha20"]
    assert fallbacks == Counter()


def _ref_from_spans(spans):
    """memory_ref's memory of from_spans' spans: each span's region
    added, then its written bytes stored, span by span."""
    ref = memory_ref.Memory()
    for base, chunk, *init in spans:
        ref._add_region_inplace(base, len(chunk))
        for i, byte in enumerate(chunk):
            if not init or init[0] is None or init[0][i]:
                ref._store8_inplace(base + i, byte)
    return ref


@st.composite
def _span_lists(draw):
    """Span lists of every kind from_spans takes: in address order and
    apart (its direct path), or unordered, touching, overlapping, empty,
    with init maps, at 0 or past 2^64."""
    spans, base = [], draw(st.one_of(st.integers(0, 3), st.integers(0, 300),
                                     st.integers(TOP - 80, TOP)))
    for _ in range(draw(st.integers(0, 5))):
        data = draw(st.binary(max_size=70))
        if draw(st.integers(0, 3)) == 0:
            init = bytes(draw(st.lists(st.integers(0, 1), min_size=len(data), max_size=len(data))))
            spans.append((base, data, draw(st.sampled_from((init, None)))))
        else:
            spans.append((base, data))
        base += len(data) + draw(st.sampled_from((1, 1, 2, 17, 64, 0, -3)))
    return draw(st.permutations(spans)) if draw(st.booleans()) else spans


@settings(max_examples=400, deadline=None)
@given(spans=_span_lists(), cap=st.sampled_from((memory.MAX_BYTES, 0, 1, 40, 150)))
def test_from_spans_direct_path_is_the_merge(spans, cap):
    """from_spans' direct path gives the table, line index and dump that
    the general merge gives, and the same ValueError past MAX_BYTES (cut
    to `cap` here) or past 2^64; both agree with memory_ref."""
    saved = memory.MAX_BYTES
    memory.MAX_BYTES = cap
    try:
        got, want = _result(Memory.from_spans, spans), _result(Memory._merged, list(spans))
    finally:
        memory.MAX_BYTES = saved
    assert got[0] == want[0]
    if got[0] == "ok":
        m, w = got[1], want[1]
        assert m._regions == w._regions and m._lines == w._lines
        assert memory.dump(m) == memory.dump(w) == memory_ref.dump(_ref_from_spans(spans))
        assert m.regions() == _ref_from_spans(spans).regions()
    elif cap == saved:
        assert _result(_ref_from_spans, spans)[0] is ValueError


def test_ct_trials_build_memories_without_the_merge(monkeypatch):
    """Every ct trial's regions are in address order and apart, so no
    trial memory takes from_spans' merge path, not even one with an
    empty region (a length drawn as 0)."""
    from jamin import leakage
    from jamin.primitives.corpus import PROGRAMS, load_program

    merged, empty = [], 0
    monkeypatch.setattr(Memory, "_merged", classmethod(lambda cls, spans: merged.append(spans)))
    for name, info in PROGRAMS.items():
        rng = random.Random(3)
        plan = leakage._plan(load_program(name), info.entry, info.shape, info.public)
        for _ in range(50):
            public, regions, pub, sec, _ = leakage.build_inputs(
                load_program(name), info.entry, info.shape, info.public, rng)
            empty += not all(size for _, size in regions.values())
            leakage._materialize(plan, public, regions, pub, sec)
    assert merged == [] and empty  # empty regions included


def test_wide_misses_fault_where_per_byte_accesses_do():
    """A 16- or 32-byte access that misses goes byte by byte: a load from
    the highest address, a store from the lowest, and the interpreter's
    helper reports the first bad byte that order meets at its `loc`."""
    m = memory.add_region(Memory(), 0x100, 16)
    m.store_bytes_inplace(0x100, bytes(range(8)))  # 0x108..0x10f stay unwritten
    loc = (3, 7)
    for a, n, fault, at in ((0x108, 16, interp.OutOfRegion, 0x117),
                            (0x100, 16, interp.UninitializedUse, 0x10F),
                            (0xF0, 32, interp.UninitializedUse, 0x10F),
                            (0xF8, 16, interp.OutOfRegion, 0xFF)):
        with pytest.raises(fault) as exc:
            interp._ld(m, None, (), a, n, loc)
        assert exc.value.loc == loc
        assert str(exc.value).startswith(f"{loc[0]}:{loc[1]}: ")
        assert f"0x{at:x}" in str(exc.value)
    with pytest.raises(interp.OutOfRegion) as exc:
        interp._st(m.thaw(), None, (), 1, 0xF8, 16, loc)
    assert exc.value.address == 0xF8 and exc.value.loc == loc  # the lowest bad byte
    work = m.thaw()
    with pytest.raises(interp.OutOfRegion) as exc:
        interp._st(work, None, (), (1 << 128) - 1, 0x108, 16, loc)
    assert exc.value.address == 0x110 and exc.value.loc == loc
    assert memory.load_bytes(work, 0x108, 8) == b"\xff" * 8  # stored up to the fault
    program = _one_access(16, False)
    with pytest.raises(interp.OutOfRegion) as exc:
        interp.run(program, "f", [0x108], m)
    assert exc.value.address == 0x117 and exc.value.loc == (1, 47)  # the load's statement
