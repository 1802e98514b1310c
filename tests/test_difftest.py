"""Hop-chain equivalence runs and mutation sensitivity.

The mutations are single-token edits of corpus sources (wrong rotation
constant, off-by-one in the reduction, swapped shuffle immediate, ...);
each mutant must be caught by the differential harness quickly.
"""

import pytest

from harness import corpus_chain
from jamin.expand import expand
from jamin.parser import parse
from jamin.typecheck import typecheck
from jamin.primitives.corpus import PROGRAMS, load_source
from jamin.primitives.difftest import (
    DslEntry,
    SHAPES,
    SpecEntry,
    hop_difftest,
)


def test_chains_boundary_lengths():
    for kind in ("poly1305", "chacha20", "gimli"):
        rep = hop_difftest(corpus_chain(kind), runs=14, seed=5, input_shape=kind)
        assert rep.ok, [p.first_counterexample for p in rep.pairs if p.failures]


@pytest.mark.parametrize("entries", [0, 1])
def test_a_chain_of_fewer_than_two_entries_is_refused(entries):
    """A chain of one entry, or none, has no pair to compare: it is an
    error before any case is sampled, not a match."""
    chain = [SpecEntry("gimli_spec", SHAPES["gimli"].spec_output)][:entries]
    with pytest.raises(ValueError, match=f"two or more entries, got {entries}$"):
        hop_difftest(chain, runs=3, seed=0, input_shape="gimli")


def test_length_zero_tag_everywhere():
    import random

    from jamin.primitives.poly1305 import poly1305_mac

    shape = SHAPES["poly1305"]
    rng = random.Random(0)
    case = {"msg": b"", "key": rng.randbytes(32), "out": 0x1000, "in": 0x10000,
            "k": 0x3000}
    s = int.from_bytes(case["key"][16:], "little")
    expect = (s % 2**128).to_bytes(16, "little")
    assert shape.spec_output(case) == expect
    from jamin.primitives import difftest

    for name in ("poly1305_ref", "poly1305_avx2"):
        from jamin.primitives.corpus import load_program

        entry = difftest.DslEntry(name, load_program(name), "poly1305")
        out, _ = difftest._execute(entry, shape, case)
        assert out == expect


# (file, broken token, replacement, description)
MUTATIONS = [
    ("poly1305_ref", "r0 = r0 & 0x0ffffffc0fffffff;",
     "r0 = r0 & 0x0ffffffc0ffffffe;", "clamp mask bit"),
    ("poly1305_ref", "c = c + (d2 & 0xfffffffffffffffc);",
     "c = c + (d2 & 0xfffffffffffffff8);", "reduction multiple"),
    ("poly1305_ref", "s1 = r1 >> 2;", "s1 = r1 >> 3;", "folded s1 shift"),
    ("poly1305_ref", "(u8)last.[j] = 1;", "(u8)last.[j] = 2;", "padding byte"),
    # the final conditional subtraction of p (four rows here, four for poly1305_avx2):
    # random cases never reach it, the shape's edge cases do
    ("poly1305_ref", "g0 = #x86_ADD_64(h0, 5);", "g0 = #x86_ADD_64(h0, 6);", "final addend 6"),
    ("poly1305_ref", "g0 = #x86_ADD_64(h0, 5);", "g0 = #x86_ADD_64(h0, 4);", "final addend 4"),
    ("poly1305_ref", "g1 = #x86_ADC_64(h1, 0, cf);", "g1 = #x86_ADC_64(h1, 1, cf);",
     "final carry addend"),
    ("poly1305_ref", "c = g2 >> 2;", "c = g2 >> 3;", "final select shift"),
    ("poly1305_avx2", "w = q41 * 5;", "w = q41 * 4;", "folded limb factor"),
    ("poly1305_avx2", "c5 = c <<4u64 2;", "c5 = c <<4u64 3;", "vector carry fold"),
    ("poly1305_avx2", "g0 = #x86_ADD_64(h0, 5);", "g0 = #x86_ADD_64(h0, 6);", "final addend 6"),
    ("poly1305_avx2", "g0 = #x86_ADD_64(h0, 5);", "g0 = #x86_ADD_64(h0, 4);", "final addend 4"),
    ("poly1305_avx2", "g1 = #x86_ADC_64(h1, 0, cf);", "g1 = #x86_ADC_64(h1, 1, cf);",
     "final carry addend"),
    ("poly1305_avx2", "c = g2 >> 2;", "c = g2 >> 3;", "final select shift"),
    ("chacha20_scalar", "w[d] = w[d] <<r 16;", "w[d] = w[d] <<r 15;",
     "rotation constant"),
    ("chacha20_scalar", "st[12] = st[12] + 1;", "st[12] = st[12] + 2;",
     "counter step"),
    ("chacha20_avx2_small", "w1 = #x86_VPSHUFD_256(w1, (4u2)[1, 2, 3, 0]);",
     "w1 = #x86_VPSHUFD_256(w1, (4u2)[1, 2, 0, 3]);", "shuffle immediate"),
    ("chacha20_avx2_big", "t = x[b] <<8u32 12;  u = x[b] >>8u32 20;",
     "t = x[b] <<8u32 12;  u = x[b] >>8u32 19;", "rotation complement"),
    ("gimli_ref", "x = s[col] <<r 24;", "x = s[col] <<r 23;", "rotation constant"),
    ("gimli_sse", "x = x ^ (0x9e377900 ^ round);",
     "x = x ^ (0x9e377901 ^ round);", "round constant"),
]


def _mutant_program(name, old, new):
    src = load_source(name)
    assert src.count(old) == 1, (name, old)
    return expand(typecheck(parse(src.replace(old, new))))


@pytest.mark.parametrize("name,old,new,desc", MUTATIONS,
                         ids=[f"{m[0]}-{m[3].replace(' ', '-')}" for m in MUTATIONS])
def test_mutation_caught(name, old, new, desc):
    info = PROGRAMS[name]
    mutant = _mutant_program(name, old, new)
    shape = SHAPES[info.kind]
    chain = [
        SpecEntry(f"{info.kind}_spec", shape.spec_output),
        DslEntry(f"{name}[{desc}]", mutant, info.entry),
    ]
    rep = hop_difftest(chain, runs=1000, seed=23, input_shape=info.kind,
                       stop_on_failure=True)
    assert not rep.ok, f"mutation not caught: {name} {desc}"
    assert rep.runs <= 1000
    cex = rep.pairs[0].first_counterexample
    assert cex is not None and "case" in cex


def test_report_counterexample_reproduction_data():
    info = PROGRAMS["gimli_ref"]
    mutant = _mutant_program("gimli_ref", "x = s[col] <<r 24;", "x = s[col] <<r 25;")
    shape = SHAPES["gimli"]
    chain = [
        SpecEntry("gimli_spec", shape.spec_output),
        DslEntry("gimli_broken", mutant, "gimli"),
    ]
    rep = hop_difftest(chain, runs=50, seed=4, input_shape="gimli",
                       stop_on_failure=True)
    cex = rep.pairs[0].first_counterexample
    assert cex["seed"] == 4
    assert "state" in cex["case"]
    assert cex["left_output"] != cex["right_output"]
