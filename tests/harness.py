"""Test-side views of the system's results.

`bound_range` reads a safety report's symbolic range under concrete
parameter values (criterion 7 checks every traced address against it);
`corpus_chain` is the spec -> reference -> vectorized difftest chain of
one family, the corpus programs in the order they refine each other;
`tagged` is a leakage trace with each event's kind spelled out, the form
in which the recorded trace digests were taken.
"""

from __future__ import annotations

from jamin.ir import EVENT_KINDS
from jamin.isa import OPSV
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.primitives.difftest import SHAPES, DslEntry, SpecEntry


def _eval_bound(b, params: dict, inf_sign: int):
    """The value of affine bound b (a safety.Aff, or None for no bound)
    when every parameter symbol takes its value in `params`; infinite,
    with the sign `inf_sign`, when b is missing or names a fresh symbol."""
    if b is None:
        return inf_sign * float("inf")
    v = b.const
    for s, c in b.terms:
        if s[0] != "p":
            return inf_sign * float("inf")
        v += c * params[s[1]]
    return v


def bound_range(report, base: str, params: dict):
    """The range of `base` in a safety.RangeReport as (lo, hi) numbers
    under parameter values `params`; None when `base` is never a base."""
    r = report.ranges.get(base)
    if r is None:
        return None
    lo, hi = r
    return (_eval_bound(lo, params, -1), _eval_bound(hi, params, +1))


def tagged(trace: list) -> list:
    """Trace with each event as (its kind, its value), its kind from its
    type (ir.EVENT_KINDS): ("branch", b) for a branch outcome b,
    ("addr", (a,)) for an address or index a and ("division", operands)."""
    return [(EVENT_KINDS[type(e)], (e,) if type(e) is int else e) for e in trace]


def corpus_chain(kind: str, vector_mode: str = OPSV) -> list:
    """The standard spec -> reference -> optimized chain for a family."""
    shape = SHAPES[kind]
    chain: list = [SpecEntry(f"{kind}_spec", shape.spec_output)]
    order = {
        "poly1305": ("poly1305_ref", "poly1305_avx2"),
        "chacha20": ("chacha20_scalar", "chacha20_avx2_small", "chacha20_avx2_big"),
        "gimli": ("gimli_ref", "gimli_sse"),
    }[kind]
    for name in order:
        info = PROGRAMS[name]
        chain.append(DslEntry(name, load_program(name), info.entry, vector_mode))
    return chain
