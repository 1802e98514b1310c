"""Byte-addressed global memory with declared valid regions.

Memory is a set of half-open intervals [base, base+len) of 64-bit
addresses that accesses must stay inside (the memory calling contract),
sorted, disjoint and non-adjacent.  Each is materialised as a tuple
(base, end, buf, init): a bytearray of its bytes and an optional init
map, a bytearray holding 1 for each byte written, or None when every
byte of the region is written.  This module alone builds and searches
that table.  One constructor, `Memory.from_spans`, builds every table:
of a memory's contents, of a dump's rows (parse_dump) and of a memory's
regions plus an added one (add_region); spans that overlap or touch
merge, a later span's written byte winning.  A region of one span keeps
that span's init map (add_region's span is unwritten, so a region it
adds alone has one), and a merged region has none when all its bytes
are written.  The regions hold at most MAX_BYTES bytes together; a
region past that cap, or past 2^64, raises ValueError.  `_lines` maps
each 2^LINE-byte line a region touches to the position in `_regions`
of the last region touching it.  One lookup, `_span`, walks from there
to earlier regions (load_span, the path of every 16- and 32-byte load,
writes that walk out and slices its hit once); the code generated for
an access reads the region `_lines` names itself (see codegen) and on a
miss calls the interpreter's helpers, which call the methods below.

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
parse_dump makes each row a span, so rows in any order are merged as
add_region merges regions, a later row's byte winning.
"""

from __future__ import annotations

from typing import Iterable

from .words import Word

ADDR_MASK = (1 << 64) - 1
MAX_BYTES = 64 << 20  # the bytes all regions of one Memory hold together
LINE = 6  # log2 of the line size of the region index


def _merge(base: int, end: int, pieces) -> tuple:
    """The bytes and init map (None when all are written) of the region
    [base, end) that the (position, base, data, init) pieces write in
    turn: each written byte of a piece replaces what is there, and each
    unwritten one leaves it."""
    buf, init = bytearray(end - base), bytearray(end - base)
    for _, b, data, written in pieces:
        o, n = b - base, len(data)
        if written is None:
            buf[o:o + n] = data
            init[o:o + n] = b"\x01" * n
            continue
        w = int.from_bytes(written, "little")
        mask = w * 0xFF  # init maps hold 0 and 1: 0xff at each written byte
        kept = int.from_bytes(buf[o:o + n], "little") & ~mask
        buf[o:o + n] = (kept | int.from_bytes(data, "little") & mask).to_bytes(n, "little")
        init[o:o + n] = (int.from_bytes(init[o:o + n], "little") | w).to_bytes(n, "little")
    return buf, None if init.find(0) < 0 else init


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
    def from_spans(cls, spans: Iterable[tuple]) -> "Memory":
        """The memory whose regions are the (base, data) or (base, data,
        init) spans, init a 0/1 map of the bytes of data that are written
        (no init: all are).  Spans that overlap or touch merge into one
        region, in the order given: a later span's written byte wins, and
        its unwritten byte leaves an earlier one as it was.  A region of
        one span keeps that span's init; a merged region gets none when
        all its bytes are written.  The address and size limits are
        checked before anything is allocated.

        Spans given in address order, each at least a byte past the last
        (empty ones aside, which make no region), are each a region as
        they stand, which is every trial layout of leakage.build_inputs:
        they are copied in without the sort and the merge pieces
        (`_merged`) that any other list takes."""
        spans = spans if type(spans) is list else list(spans)
        last, total = -1, 0
        for span in spans:
            base = span[0]
            end = base + len(span[1])
            if not last < base < end <= 1 << 64:
                if base == end and 0 <= base <= 1 << 64:
                    continue
                return cls._merged(spans)
            total += end - base
            last = end
        if total > MAX_BYTES:
            raise ValueError(f"regions exceed {MAX_BYTES >> 20} MiB together")
        m = cls()
        regions, lines = m._regions, m._lines
        for span in spans:
            base, data = span[0], span[1]
            end = base + len(data)
            if base == end:
                continue
            init = span[2] if len(span) > 2 else None
            for line in range(base >> LINE, ((end - 1) >> LINE) + 1):
                lines[line] = len(regions)
            regions.append((base, end, bytearray(data), None if init is None else bytearray(init)))
        return m

    @classmethod
    def _merged(cls, spans: list) -> "Memory":
        """from_spans on any list of spans: sorted by base, and those that
        overlap or touch merged."""
        runs: list[list] = []  # per region: its base, its end and its spans as pieces
        total = 0
        for k, span in sorted(enumerate(spans), key=lambda ks: ks[1][0]):
            base, data = span[0], span[1]
            end = base + len(data)
            if base < 0 or end > 1 << 64:
                raise ValueError("region overflows the 64-bit address space")
            if base == end:
                continue
            piece = (k, base, data, span[2] if len(span) > 2 else None)
            if runs and base <= runs[-1][1]:  # overlapping or touching the last run
                run = runs[-1]
                if end > run[1]:
                    total += end - run[1]
                    run[1] = end
                run[2].append(piece)
            else:
                total += end - base
                runs.append([base, end, [piece]])
        if total > MAX_BYTES:
            raise ValueError(f"regions exceed {MAX_BYTES >> 20} MiB together")
        m = cls()
        for base, end, pieces in runs:
            if len(pieces) == 1:
                _, _, data, init = pieces[0]
                buf, init = bytearray(data), None if init is None else bytearray(init)
            else:
                buf, init = _merge(base, end, sorted(pieces))  # in the order given
            lines = range(base >> LINE, ((end - 1) >> LINE) + 1)
            m._lines.update(dict.fromkeys(lines, len(m._regions)))
            m._regions.append((base, end, buf, init))
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
        if length > MAX_BYTES:  # refused before its span is allocated
            raise ValueError(f"regions exceed {MAX_BYTES >> 20} MiB together")
        unwritten = bytes(length)
        m = Memory.from_spans([*((b, buf, init) for b, _, buf, init in self._regions),
                               (base, unwritten, unwritten)])
        self._regions, self._lines = m._regions, m._lines  # a new dict: copies share the old one

    def _span(self, a: int, n: int):
        """(offset, buf, init) of the region holding [a, a+n), or None."""
        i = self._lines.get(a >> LINE)
        while i is not None:  # the last region touching a's line, then earlier ones
            base, end, buf, init = self._regions[i]
            if a >= base:
                return (a - base, buf, init) if a + n <= end else None
            i = i - 1 if i else None
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

    def load_span(self, a: int, n: int, *, highest_first: bool = False) -> bytearray:
        """A new bytearray of the n bytes at a, a+1, ... (addresses wrap
        at 2^64): one slice of the region when the span is inside one
        region and written (the line walk of `_span`, written out);
        otherwise, to locate the fault, byte by byte from the lowest
        address (or the highest)."""
        i = self._lines.get(a >> LINE)
        while i is not None:
            base, end, buf, init = self._regions[i]
            if a >= base:
                o = a - base
                if a + n <= end and (init is None or init.find(0, o, o + n) < 0):
                    return buf[o:o + n]
                break
            i = i - 1 if i else None
        order = reversed(range(n)) if highest_first else range(n)
        got = {i: self._load8((a + i) & ADDR_MASK) for i in order}
        return bytearray(got[i] for i in range(n))

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
    return bytes(m.load_span(a, n))


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
    spans = []
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
        row = [None if cell == ".." else _byte(cell, lineno) for cell in cells]
        written = bytes(b is not None for b in row) if None in row else None
        spans.append((addr, bytes(b or 0 for b in row), written))
    return Memory.from_spans(spans)
