import random

import pytest
from hypothesis import given, strategies as st

from jamin import memory
from jamin.memory import Memory, OutOfRegion, UninitializedRead
from jamin.words import Word


def fresh(base=0, length=64, strict=True):
    return memory.add_region(Memory(strict=strict), base, length)


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


def test_uninitialized_strict_and_permissive():
    m = fresh(0, 16)
    with pytest.raises(UninitializedRead):
        memory.load8(m, 3)
    lax = fresh(0, 16, strict=False)
    assert memory.load8(lax, 3) == 0


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


def test_dump_matches_per_cell_reference_and_round_trips():
    for m in _dump_cases():
        text = memory.dump(m)
        assert text == _reference_dump(m)
        back = memory.parse_dump(text)
        assert back.regions() == m.regions()
        assert back._bytes == m._bytes
        assert memory.dump(back) == text
    assert memory.dump(Memory()) == ""


def test_parse_dump_rejects_a_cell_that_is_not_a_byte():
    for cell in ("1ff", "-1"):
        with pytest.raises(ValueError, match="not a byte"):
            memory.parse_dump(f"00001000: 00 {cell}\n")


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
    for strict in (True, False):
        m = Memory(strict=strict)
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
