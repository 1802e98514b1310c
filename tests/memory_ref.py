"""The dict-backed byte memory jamin used before regions held buffers,
kept as a per-byte reference model for `jamin.memory`: a partial map
from 64-bit addresses to bytes plus sorted, disjoint, non-adjacent
(base, end) intervals.  It raises jamin.memory's fault classes, so the
two compare by class and address.  It has no size cap.
"""

from __future__ import annotations

from bisect import bisect_right

from jamin.memory import ADDR_MASK, OutOfRegion, UninitializedRead
from jamin.words import Word


class Memory:
    __slots__ = ("_bytes", "_regions")

    def __init__(self):
        self._bytes: dict[int, int] = {}
        # sorted, pairwise disjoint, non-adjacent (base, end) intervals
        self._regions: list[tuple[int, int]] = []

    # -- construction ------------------------------------------------

    def copy(self) -> "Memory":
        m = Memory()
        m._bytes = dict(self._bytes)
        m._regions = list(self._regions)
        return m

    thaw = copy  # the interpreter's private working copy

    def regions(self) -> list[tuple[int, int]]:
        return list(self._regions)

    # -- region contract ----------------------------------------------

    def in_region(self, a: int) -> bool:
        i = bisect_right(self._regions, (a, 1 << 65))
        if i == 0:
            return False
        base, end = self._regions[i - 1]
        return base <= a < end

    def _check_region(self, a: int) -> None:
        if not self.in_region(a):
            raise OutOfRegion(a)

    def _add_region_inplace(self, base: int, length: int) -> None:
        if length < 0:
            raise ValueError("region length must be non-negative")
        if base < 0 or base + length > 1 << 64:
            raise ValueError("region overflows the 64-bit address space")
        if length == 0:
            return
        lo, hi = base, base + length
        merged = []
        for b, e in self._regions:
            if e < lo or b > hi:  # disjoint and non-adjacent
                merged.append((b, e))
            else:
                lo, hi = min(lo, b), max(hi, e)
        merged.append((lo, hi))
        merged.sort()
        self._regions = merged

    # -- byte level ----------------------------------------------------

    def _load8(self, a: int) -> int:
        self._check_region(a)
        v = self._bytes.get(a)
        if v is None:
            raise UninitializedRead(a)
        return v

    def _store8_inplace(self, a: int, w: int) -> None:
        self._check_region(a)
        self._bytes[a] = w & 0xFF

    def is_initialized(self, a: int) -> bool:
        return a in self._bytes

    # -- multi-byte, little-endian --------------------------------------

    def _check_span(self, a: int, n: int) -> bool:
        """True when [a, a+n) sits inside one region (no wraparound)."""
        if a + n > 1 << 64:
            return False
        i = bisect_right(self._regions, (a, 1 << 65))
        if i == 0:
            return False
        base, end = self._regions[i - 1]
        return base <= a and a + n <= end

    def load_span(self, a: int, n: int, *, highest_first: bool = False) -> bytes:
        """The n bytes at a, a+1, ... (addresses wrap at 2^64).  A span
        inside one region is read in one step; otherwise, and to locate a
        fault, byte by byte from the lowest address (or the highest), so
        the fault raised is the one that order meets first."""
        if self._check_span(a, n):
            try:
                return bytes(map(self._bytes.get, range(a, a + n)))
            except TypeError:  # a byte was never written: find it below
                pass
        order = reversed(range(n)) if highest_first else range(n)
        got = {i: self._load8((a + i) & ADDR_MASK) for i in order}
        return bytes(got[i] for i in range(n))

    def load_int(self, a: int, width: int) -> int:
        n = width // 8
        if self._check_span(a, n):
            try:
                return int.from_bytes(bytes(map(self._bytes.get, range(a, a + n))), "little")
            except TypeError:  # an unwritten byte: the fault, below
                pass
        return int.from_bytes(self.load_span(a, n, highest_first=True), "little")

    def store_int_inplace(self, a: int, width: int, value: int) -> None:
        self.store_bytes_inplace(a, (value & ((1 << width) - 1)).to_bytes(width // 8, "little"))

    def store_bytes_inplace(self, a: int, data) -> None:
        """Store `data` at a, a+1, ... (addresses wrap at 2^64); the span
        is checked once when it lies inside one region, byte by byte
        otherwise."""
        n = len(data)
        if self._check_span(a, n):
            self._bytes.update(zip(range(a, a + n), data))
            return
        for i, b in enumerate(data):
            self._store8_inplace((a + i) & ADDR_MASK, b)

    def _loadW(self, a: int, width: int) -> Word:
        return Word(width, self.load_int(a, width))

    def _storeW_inplace(self, a: int, x: Word) -> None:
        self.store_int_inplace(a, x.width, x.value)


# -- functional interface ----------------------------------------------


def load8(m: Memory, a: int) -> int:
    return m._load8(a)


def store8(m: Memory, a: int, w: int) -> Memory:
    m2 = m.copy()
    m2._store8_inplace(a, w)
    return m2


def loadW(m: Memory, a: int, width: int) -> Word:
    return m._loadW(a, width)


def storeW(m: Memory, a: int, x: Word) -> Memory:
    m2 = m.copy()
    m2._storeW_inplace(a, x)
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
    get = m._bytes.get
    lines = []
    for base, end in m._regions:
        for row in range(base, end, 16):
            span = range(row, min(row + 16, end))
            try:
                cells = bytes(map(get, span)).hex(" ")
            except TypeError:  # the row holds an unwritten byte
                cells = " ".join(".." if (b := get(a)) is None else f"{b:02x}" for a in span)
            lines.append(f"{row:08x}: {cells}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_dump(text: str) -> Memory:
    m = Memory()
    spans: list[tuple[int, int]] = []
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
        spans.append((addr, len(cells)))
        for i, cell in enumerate(cells):
            if cell != "..":
                b = int(cell, 16)
                if not 0 <= b <= 0xFF:
                    raise ValueError(f"dump line {lineno}: {cell!r} is not a byte")
                m._bytes[addr + i] = b
    for base, n in spans:
        m._add_region_inplace(base, n)
    return m
