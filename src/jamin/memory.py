"""Byte-addressed global memory with declared valid regions.

Memory is a set of half-open intervals [base, base+len) of 64-bit
addresses that accesses must stay inside (the memory calling contract),
sorted, disjoint and non-adjacent.  Each is materialised as a tuple
(base, end, buf, init): a bytearray of its bytes and an optional init
map, a bytearray holding 1 for each byte written, or None when every
byte of the region is written.  `Memory.from_spans`, which builds a
memory from its full contents, gives each region it makes no init map;
a region made by add_region (and so by parse_dump) has one, as has a
region that add_region merges with another.  The regions hold at most
MAX_BYTES bytes together; a region past that cap, or past 2^64, raises
ValueError.  `_lines` maps each 2^LINE-byte line a region touches to
the position in `_regions` of the last region touching it: the
interpreter's load and store helpers read that region, or an earlier
one sharing the line, themselves and call the methods below only for an
access outside every region or of an unwritten byte.

The persistent functions at the end of the module (load8, store8,
loadW, storeW, add_region, load_bytes, store_bytes) return a new Memory
value for a store; they, with `Memory.is_initialized`, are the
specification layer that criterion 2 and tests/test_memory.py check
against tests/memory_ref.py (docs/lang.md, "Specification layers").  The
system mostly runs the in-place methods: the interpreter obtains a
private copy via `thaw` and mutates that one.  Multi-byte
accesses are little-endian compositions of single-byte accesses, so
accesses of different widths ("type punning") overlap per the byte
semantics.  An access not inside one region goes byte by byte, loads
from the highest address and stores from the lowest, and faults at the
first bad byte that order meets.

Reading a byte that was never written raises UninitializedRead.

Dump format: one line per 16 bytes, `addr: b0 b1 ...` in lowercase hex,
rows starting at each region base; unwritten bytes print as `..`.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable

from .words import Word

ADDR_MASK = (1 << 64) - 1
MAX_BYTES = 64 << 20  # the bytes all regions of one Memory hold together
LINE = 6  # log2 of the line size of the region index

_BASE = itemgetter(0)


class MemAccessError(Exception):
    def __init__(self, address: int, message: str):
        self.address = address
        super().__init__(message)


class OutOfRegion(MemAccessError):
    def __init__(self, address: int):
        super().__init__(address, f"address 0x{address:x} outside all declared regions")


class UninitializedRead(MemAccessError):
    def __init__(self, address: int):
        super().__init__(address, f"read of uninitialized byte at 0x{address:x}")


class Memory:
    __slots__ = ("_regions", "_lines")

    def __init__(self):
        self._regions: list[tuple[int, int, bytearray, bytearray | None]] = []
        self._lines: dict[int, int] = {}

    # -- construction ------------------------------------------------

    @classmethod
    def from_spans(cls, spans: Iterable[tuple[int, bytes]]) -> "Memory":
        """The memory that add_region and then store_bytes of each (base,
        data) span in turn build.  When the spans are disjoint and not
        adjacent, each becomes a region of its own, fully written and so
        without an init map, in one pass."""
        spans = list(spans)
        m = cls()
        lines, end, total = m._lines, -1, 0
        for base, data in sorted(spans, key=_BASE):
            n = len(data)
            if base < 0 or base + n > 1 << 64:
                raise ValueError("region overflows the 64-bit address space")
            if not n:
                continue
            if base <= end:  # overlapping or adjacent: merged below
                break
            end = base + n
            total += n
            if total > MAX_BYTES:
                raise ValueError(f"regions exceed {MAX_BYTES >> 20} MiB together")
            lines.update(dict.fromkeys(range(base >> LINE, ((end - 1) >> LINE) + 1),
                                       len(m._regions)))
            m._regions.append((base, end, bytearray(data), None))
        else:
            return m
        m = cls()
        for base, data in spans:
            m._add_region_inplace(base, len(data))
            m.store_bytes_inplace(base, data)
        return m

    def copy(self) -> "Memory":
        m = Memory()
        m._regions = [(b, e, bytearray(buf), None if init is None else bytearray(init))
                      for b, e, buf, init in self._regions]
        m._lines = self._lines
        return m

    thaw = copy  # the interpreter's private working copy

    def regions(self) -> list[tuple[int, int]]:
        return [(b, e) for b, e, _, _ in self._regions]

    def _add_region_inplace(self, base: int, length: int) -> None:
        if length < 0:
            raise ValueError("region length must be non-negative")
        if base < 0 or base + length > 1 << 64:
            raise ValueError("region overflows the 64-bit address space")
        if length == 0:
            return
        lo, hi = base, base + length
        kept, merged = [], []
        for r in self._regions:
            if r[1] < lo or r[0] > hi:  # disjoint and non-adjacent
                kept.append(r)
            else:
                merged.append(r)
                lo, hi = min(lo, r[0]), max(hi, r[1])
        if len(merged) == 1 and (lo, hi) == merged[0][:2]:
            return  # inside one region: nothing changes
        if hi - lo + sum(e - b for b, e, _, _ in kept) > MAX_BYTES:
            raise ValueError(f"regions exceed {MAX_BYTES >> 20} MiB together")
        buf, init = bytearray(hi - lo), bytearray(hi - lo)
        for b, e, rbuf, rinit in merged:
            buf[b - lo:e - lo] = rbuf
            init[b - lo:e - lo] = b"\x01" * (e - b) if rinit is None else rinit
        kept.append((lo, hi, buf, init))
        kept.sort(key=_BASE)
        self._regions = kept
        self._lines = {}  # a new dict: copies share the old one
        for i, (b, e, _, _) in enumerate(kept):
            self._lines.update(dict.fromkeys(range(b >> LINE, ((e - 1) >> LINE) + 1), i))

    def _span(self, a: int, n: int):
        """(offset, buf, init) of the region holding [a, a+n), or None."""
        i = bisect_right(self._regions, a, key=_BASE)
        if i:
            base, end, buf, init = self._regions[i - 1]
            if a + n <= end:
                return a - base, buf, init
        return None

    # -- byte level ----------------------------------------------------

    def _load8(self, a: int) -> int:
        s = self._span(a, 1)
        if s is None:
            raise OutOfRegion(a)
        o, buf, init = s
        if init is not None and not init[o]:
            raise UninitializedRead(a)
        return buf[o]

    def _store8_inplace(self, a: int, w: int) -> None:
        s = self._span(a, 1)
        if s is None:
            raise OutOfRegion(a)
        o, buf, init = s
        buf[o] = w & 0xFF
        if init is not None:
            init[o] = 1

    def is_initialized(self, a: int) -> bool:
        s = self._span(a, 1)
        return s is not None and (s[2] is None or s[2][s[0]] == 1)

    # -- multi-byte, little-endian --------------------------------------

    def load_span(self, a: int, n: int, *, highest_first: bool = False) -> bytes:
        """The n bytes at a, a+1, ... (addresses wrap at 2^64): one slice
        when the span is inside one region and written;
        otherwise, to locate the fault, byte by byte from the lowest
        address (or the highest)."""
        s = self._span(a, n)
        if s is not None:
            o, buf, init = s
            if init is None or init.find(0, o, o + n) < 0:
                return bytes(buf[o:o + n])
        order = reversed(range(n)) if highest_first else range(n)
        got = {i: self._load8((a + i) & ADDR_MASK) for i in order}
        return bytes(got[i] for i in range(n))

    def load_int(self, a: int, width: int) -> int:
        return int.from_bytes(self.load_span(a, width // 8, highest_first=True), "little")

    def store_int_inplace(self, a: int, width: int, value: int) -> None:
        self.store_bytes_inplace(a, (value & ((1 << width) - 1)).to_bytes(width // 8, "little"))

    def store_bytes_inplace(self, a: int, data) -> None:
        """Store `data` at a, a+1, ... (addresses wrap at 2^64): one slice
        when the span lies inside one region, byte by byte otherwise."""
        n = len(data)
        s = self._span(a, n)
        if s is None:
            for i, b in enumerate(data):
                self._store8_inplace((a + i) & ADDR_MASK, b)
            return
        o, buf, init = s
        buf[o:o + n] = data
        if init is not None:
            init[o:o + n] = b"\x01" * n


# -- functional interface: the specification layer ----------------------


def load8(m: Memory, a: int) -> int:
    return m._load8(a)


def store8(m: Memory, a: int, w: int) -> Memory:
    m2 = m.copy()
    m2._store8_inplace(a, w)
    return m2


def loadW(m: Memory, a: int, width: int) -> Word:
    return Word(width, m.load_int(a, width))


def storeW(m: Memory, a: int, x: Word) -> Memory:
    m2 = m.copy()
    m2.store_int_inplace(a, x.width, x.value)
    return m2


def add_region(m: Memory, base: int, length: int) -> Memory:
    m2 = m.copy()
    m2._add_region_inplace(base, length)
    return m2


def load_bytes(m: Memory, a: int, n: int) -> bytes:
    return m.load_span(a, n)


def store_bytes(m: Memory, a: int, data: bytes) -> Memory:
    m2 = m.copy()
    m2.store_bytes_inplace(a, data)
    return m2


# -- hex dumps ----------------------------------------------------------


def dump(m: Memory) -> str:
    lines = []
    for base, _, buf, init in m._regions:
        if init is None or 0 not in init:  # every byte written: rows of one hex string
            cells = buf.hex(" ")  # three characters a byte
            lines += [f"{base + o:08x}: {cells[3 * o:3 * o + 47]}"
                      for o in range(0, len(buf), 16)]
            continue
        for o in range(0, len(buf), 16):
            row, written = buf[o:o + 16], init[o:o + 16]
            if 0 in written:  # the row holds an unwritten byte
                cells = " ".join(f"{b:02x}" if w else ".." for b, w in zip(row, written))
            else:
                cells = row.hex(" ")
            lines.append(f"{base + o:08x}: {cells}")
    return "\n".join(lines) + ("\n" if lines else "")


def _byte(cell: str, lineno: int) -> int:
    """The value of hex byte `cell` on dump line `lineno`."""
    try:
        b = int(cell, 16)
    except ValueError:
        b = -1
    if not 0 <= b <= 0xFF:
        raise ValueError(f"dump line {lineno}: {cell!r} is not a byte")
    return b


def parse_dump(text: str) -> Memory:
    m = Memory()
    rows: list[tuple[int, list]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            addr_part, _, rest = line.partition(":")
            addr = int(addr_part, 16)
            cells = rest.split()
        except ValueError as exc:
            raise ValueError(f"bad dump line {lineno}: {raw!r}") from exc
        if len(cells) > 16:
            raise ValueError(f"dump line {lineno} has more than 16 bytes")
        rows.append((addr, [None if cell == ".." else _byte(cell, lineno) for cell in cells]))
    for addr, row in rows:
        m._add_region_inplace(addr, len(row))
    for addr, row in rows:
        for i, b in enumerate(row):
            if b is not None:
                m._store8_inplace(addr + i, b)
    return m
