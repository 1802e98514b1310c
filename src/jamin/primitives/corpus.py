"""Corpus of DSL implementations and their declared contracts.

Each program carries the metadata the tools need: entry point, the
constant-time public specification, and the checker's sampling shape,
whose Ptr and Len parameters the range analysis takes as pointers and
tracked lengths.  The programs are the package's `corpus/*.jz` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..expand import expand
from ..leakage import Len, Ptr, PublicSpec, Val
from ..parser import parse
from ..typecheck import typecheck

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@dataclass(frozen=True)
class ProgramInfo:
    name: str
    entry: str
    kind: str  # poly1305 | chacha20 | gimli
    public: PublicSpec
    shape: dict

    @property
    def pointers(self) -> tuple:  # the range analysis' pointers: the shape's Ptr parameters
        return tuple(n for n, s in self.shape.items() if type(s) is Ptr)

    @property
    def tracked(self) -> tuple:  # its tracked lengths: the shape's Len parameters
        return tuple(n for n, s in self.shape.items() if type(s) is Len)


def _poly_info(name, in_name, len_name, max_len):
    return ProgramInfo(
        name=name,
        entry="poly1305",
        kind="poly1305",
        public=PublicSpec.of(["out", in_name, len_name, "k"]),
        shape={
            "out": Ptr(16),
            in_name: Ptr(len_name),
            len_name: Len(max=max_len),
            "k": Ptr(32),
        },
    )


def _chacha_info(name, max_len):
    return ProgramInfo(
        name=name,
        entry="chacha20",
        kind="chacha20",
        public=PublicSpec.of(["output", "plain", "len", "key", "nonce", "counter"]),
        shape={
            "output": Ptr("len"),
            "plain": Ptr("len"),
            "len": Len(max=max_len),
            "key": Ptr(32),
            "nonce": Ptr(12),
            "counter": Val(32),
        },
    )


def _gimli_info(name):
    return ProgramInfo(
        name=name,
        entry="gimli",
        kind="gimli",
        public=PublicSpec.of(["state"]),
        shape={"state": Ptr(48)},
    )


PROGRAMS: dict[str, ProgramInfo] = {
    p.name: p
    for p in (
        _poly_info("poly1305_ref", "in", "inlen", 320),
        _poly_info("poly1305_avx2", "inn", "inl", 520),
        _chacha_info("chacha20_scalar", 200),
        _chacha_info("chacha20_avx2_small", 300),
        _chacha_info("chacha20_avx2_big", 640),
        _gimli_info("gimli_ref"),
        _gimli_info("gimli_sse"),
    )
}

_cache: dict[str, object] = {}


def load_program(name: str):
    """Parse, typecheck and expand one corpus program (cached)."""
    if name not in _cache:
        _cache[name] = expand(typecheck(parse(load_source(name))))
    return _cache[name]


def load_source(name: str) -> str:
    """The text of one corpus program."""
    return (CORPUS_DIR / f"{name}.jz").read_text()
