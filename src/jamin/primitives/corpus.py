"""Corpus of DSL implementations and their declared contracts.

Each program carries the metadata the tools need: entry point, the
constant-time public specification, sampling shapes for the checker,
and the pointer/tracked sets for the range analysis.  The programs
are the `.jz` files of the package's `corpus` directory.
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
    pointers: tuple
    tracked: tuple


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
        pointers=("out", in_name, "k"),
        tracked=(len_name,),
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
        pointers=("output", "plain", "key", "nonce"),
        tracked=("len",),
    )


def _gimli_info(name):
    return ProgramInfo(
        name=name,
        entry="gimli",
        kind="gimli",
        public=PublicSpec.of(["state"]),
        shape={"state": Ptr(48)},
        pointers=("state",),
        tracked=(),
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
