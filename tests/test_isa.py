import random

import pytest
from hypothesis import given, settings, strategies as st

from jamin import isa
from jamin.words import Word
from lanes import exec_ops, exec_vector, validate_descriptor


def test_lookup_mul_descriptor():
    d = isa.lookup("#x86_MUL_64")
    assert len(d.destinations) == 7
    assert len(d.sources) == 2
    assert d.mnemonic == "MUL"


def test_lookup_set0():
    d = isa.lookup("set0_64")
    assert len(d.sources) == 0
    out = isa.exec_intrinsic(d, [])
    of, cf, sf, pf, zf, r = out
    assert (of, cf, sf, pf, zf) == (False, False, False, True, True)
    assert r == Word(64, 0)


def test_lookup_unknown():
    with pytest.raises(isa.UnknownInstruction):
        isa.lookup("#nope")


def test_mul_flags_and_product():
    d = isa.lookup("x86_MUL_64")
    out = isa.exec_intrinsic(d, [Word(64, 2**63), Word(64, 2)])
    of, cf, sf, pf, zf, hi, lo = out
    assert of is True and cf is True
    assert sf is isa.UNDEF and pf is isa.UNDEF and zf is isa.UNDEF
    assert (hi.value, lo.value) == (1, 0)
    # small product leaves the overflow flags clear
    out = isa.exec_intrinsic(d, [Word(64, 3), Word(64, 4)])
    assert out[0] is False and out[1] is False and out[6].value == 12


def test_div_faults():
    d = isa.lookup("x86_DIV_64")
    with pytest.raises(isa.IsaFault):
        isa.exec_intrinsic(d, [Word(64, 0), Word(64, 5), Word(64, 0)])
    with pytest.raises(isa.IsaFault):  # quotient overflow
        isa.exec_intrinsic(d, [Word(64, 2), Word(64, 0), Word(64, 1)])
    out = isa.exec_intrinsic(d, [Word(64, 0), Word(64, 17), Word(64, 5)])
    assert (out[5].value, out[6].value) == (3, 2)


def test_shift_count_masking():
    d = isa.lookup("x86_SHL_64")
    out = isa.exec_intrinsic(d, [Word(64, 3), Word(8, 64)])  # masks to 0
    assert out[5].value == 3
    assert out[0] is isa.UNDEF  # flags undefined for a zero count
    out = isa.exec_intrinsic(d, [Word(64, 3), Word(8, 65)])  # masks to 1
    assert out[5].value == 6


def test_vpshufd_identity():
    d = isa.lookup("x86_VPSHUFD_256")
    x = Word(256, random.Random(3).getrandbits(256))
    out = isa.exec_intrinsic(d, [x, Word(8, 0b11100100)])
    assert out[0] == x


def test_vpshufd_0xb1_involution():
    d = isa.lookup("x86_VPSHUFD_128")
    rng = random.Random(4)
    for _ in range(50):
        x = Word(128, rng.getrandbits(128))
        once = isa.exec_intrinsic(d, [x, Word(8, 0xB1)])[0]
        twice = isa.exec_intrinsic(d, [once, Word(8, 0xB1)])[0]
        assert twice == x


def test_vpshufb_high_bit_zeroes():
    d = isa.lookup("x86_VPSHUFB_128")
    x = Word(128, (1 << 128) - 1)
    sel = Word(128, 0x80)  # byte 0 selects nothing
    out = isa.exec_intrinsic(d, [x, sel])[0]
    assert out.value & 0xFF == 0


def test_vpbroadcast_ops_mode_lanes():
    d = isa.lookup("x86_VPBROADCAST_4u64")
    v = Word(64, 0x1234)
    lanes = exec_ops(d, [v])[0]
    assert lanes == [0x1234] * 4


def test_vpadd_lanewise():
    d = isa.lookup("x86_VPADD_4u64")
    from jamin import words

    a = words.join([Word(64, v) for v in (1, 2, 3, 4)], 256)
    b = words.join([Word(64, v) for v in (10, 20, 30, 40)], 256)
    out = isa.exec_intrinsic(d, [a, b])[0]
    assert [w.value for w in words.split(out, 64)] == [11, 22, 33, 44]


def test_validate_all_registered():
    for name, d in isa.registry().items():
        assert validate_descriptor(d) == [], name


@pytest.mark.parametrize("args, message", [
    ([Word(64, 1)], "x86_ADC_64 expects 3 arguments, got 1"),
    ([Word(64, 1), Word(64, 2), 1], "x86_ADC_64: flag argument must be a bool, got 1"),
    ([True, Word(64, 2), False], "x86_ADC_64: word argument expected, got True"),
    (["1", Word(64, 2), False], "x86_ADC_64: word argument expected, got '1'"),
], ids=["arity", "flag", "bool-for-word", "text-for-word"])
def test_exec_intrinsic_rejects_malformed_arguments(args, message):
    with pytest.raises(isa.IsaError) as err:
        isa.exec_intrinsic(isa.lookup("x86_ADC_64"), args)
    assert str(err.value) == message


def test_a_name_is_registered_once():
    d = isa.lookup("x86_ADD_64")
    with pytest.raises(isa.IsaError, match="^duplicate descriptor x86_ADD_64$"):
        isa.register(d)
    assert isa.lookup("x86_ADD_64") is d


def test_no_prelude_value_names_undef():
    """Table.never_undef reads only the outputs' own expressions."""
    for name, d in isa.registry().items():
        if d.table is not None:
            assert not any("U" in isa._NAME.findall(e) for _, e in d.table.prelude), name


def test_no_instruction_has_a_flag_as_its_one_destination():
    """An intrinsic in an expression has one destination (typecheck), so
    its value is a word, never an UNDEF flag (codegen.Assigned)."""
    assert not [name for name, d in isa.registry().items()
                if len(d.destinations) == 1 and d.dst_widths[0] == "flag"]


def test_validate_catches_duplicate_destination():
    d = isa.Descriptor(
        name="bogus_dup",
        sources=(isa.E(64, 0),),
        destinations=(isa.E(64, 0), isa.E(64, 0)),
        mnemonic="BOGUS",
        sem=lambda a: [a[0], a[0]],
    )
    assert any("duplicate" in p for p in validate_descriptor(d))


def test_validate_catches_wrong_arity():
    d = isa.Descriptor(
        name="bogus_arity",
        sources=(isa.E(64, 0),),
        destinations=(isa.E(64, 0),),
        mnemonic="BOGUS",
        sem=lambda a: [a[0], a[0]],
    )
    assert any("returns" in p for p in validate_descriptor(d))


def _vector_args(d, rng):
    args = []
    for w in d.src_widths:
        args.append(rng.random() < 0.5 if w == "flag" else Word(w, rng.getrandbits(w)))
    return args


def test_ops_opsv_equivalence_randomized():
    rng = random.Random(99)
    for name, d in isa.registry().items():
        if not d.is_vector:
            continue
        for _ in range(200):
            args = _vector_args(d, rng)
            assert exec_vector(d, isa.OPS, args) == exec_vector(
                d, isa.OPSV, args
            ), name


def test_scalar_adc_chain_against_bigint():
    rng = random.Random(5)
    add = isa.lookup("x86_ADD_64")
    adc = isa.lookup("x86_ADC_64")
    for _ in range(200):
        x = rng.getrandbits(128)
        y = rng.getrandbits(128)
        x0, x1 = x & (2**64 - 1), x >> 64
        y0, y1 = y & (2**64 - 1), y >> 64
        _, cf, _, _, _, lo = isa.exec_intrinsic(add, [Word(64, x0), Word(64, y0)])
        _, cf2, _, _, _, hi = isa.exec_intrinsic(
            adc, [Word(64, x1), Word(64, y1), cf]
        )
        got = (cf2 << 128) | (hi.value << 64) | lo.value
        assert got == x + y


# Selector- and immediate-driven permutes: OpsV applies a cached
# shift-and-mask plan per selector (_permute_plan), Ops a cached lane-index
# table per selector (_lane_table); the two are derived independently, so
# Ops≡OpsV checks each against the other.

ROT16 = 0x0D0C0F0E09080B0A0504070601000302_0D0C0F0E09080B0A0504070601000302
ROT8 = 0x0E0D0C0F0A09080B0605040702010003_0E0D0C0F0A09080B0605040702010003


def _assert_permute_modes_agree(d, *args):
    words = [Word(w, v) for w, v in zip(d.src_widths, args)]
    assert exec_vector(d, isa.OPS, words) == exec_vector(d, isa.OPSV, words), (
        d.name, [hex(a) for a in args])
    assert [d.ops(*args)] == d.sem(list(args)), (d.name, hex(args[-1]))


@pytest.mark.parametrize("name", ["x86_VPSHUFD_128", "x86_VPSHUFD_256", "x86_VPERMQ_4u64",
                                  "x86_VPERM2I128"])
def test_every_immediate_of_dword_and_qword_permutes(name):
    d = isa.lookup(name)
    rng = random.Random(name)
    for imm in range(256):
        _assert_permute_modes_agree(d, *[rng.getrandbits(w) for w in d.src_widths[:-1]], imm)


def _byte_selector(rng, nbytes, zero_rate=0.0):
    return int.from_bytes(bytes(0x80 | rng.getrandbits(7) if rng.random() < zero_rate
                                else rng.getrandbits(4) for _ in range(nbytes)), "little")


@pytest.mark.parametrize("name", ["x86_VPSHUFB_128", "x86_VPSHUFB_256"])
def test_byte_shuffle_plans_reused_and_evicted(name):
    """Selector pools smaller and larger than both caches, with zeroing
    (0x80) bytes: each Ops and OpsV call agrees, a small pool hits, and a
    large pool's second pass finds its first pass's entries evicted."""
    d = isa.lookup(name)
    nbytes = d.src_widths[1] // 8
    caches = (isa._permute_plan, isa._lane_table)
    bound = isa.PLAN_CACHE
    assert all(c.cache_info().maxsize == bound for c in caches)
    rng = random.Random(name)
    small = [ROT16 & ((1 << (8 * nbytes)) - 1), ROT8 & ((1 << (8 * nbytes)) - 1)]
    small += [_byte_selector(rng, nbytes, 0.2) for _ in range(6)]
    large = [_byte_selector(rng, nbytes, 0.2) for _ in range(bound + 50)]
    assert any(b & 0x80 for sel in small for b in sel.to_bytes(nbytes, "little"))
    before = [c.cache_info() for c in caches]
    for sel in small * 20:
        _assert_permute_modes_agree(d, rng.getrandbits(8 * nbytes), sel)
    for c, b in zip(caches, before):
        assert c.cache_info().hits - b.hits >= 19 * len(small), c
    for sel in large * 2:
        _assert_permute_modes_agree(d, rng.getrandbits(8 * nbytes), sel)
    for c, b in zip(caches, before):
        info = c.cache_info()
        assert info.currsize == bound and info.misses - b.misses >= 2 * len(large), c


@pytest.mark.parametrize("name", ["x86_VPSHUFB_128", "x86_VPSHUFB_256"])
def test_byte_shuffle_zeroing_selectors(name):
    d = isa.lookup(name)
    nbytes = d.src_widths[1] // 8
    rng = random.Random(name)
    everything = (1 << (8 * nbytes)) - 1
    assert d.sem([everything, int("80" * nbytes, 16)]) == [0]
    assert d.ops(everything, int("80" * nbytes, 16)) == 0
    for rate in (0.1, 0.5, 0.9):
        for _ in range(50):
            _assert_permute_modes_agree(d, rng.getrandbits(8 * nbytes),
                                        _byte_selector(rng, nbytes, rate))


def test_exec_ops_returns_lists():
    rng = random.Random(12)
    for name, d in isa.registry().items():
        if not d.is_vector:
            continue
        outs = exec_ops(d, _vector_args(d, rng))
        assert type(outs) is list, name
        for o, shape in zip(outs, d.dst_lanes):
            if shape:
                assert type(o) is list and len(o) == shape[0], name
                assert all(type(x) is int and 0 <= x < 1 << shape[1] for x in o), name
            else:
                assert type(o) is int, name


def test_chacha_rotations_are_two_shift_groups():
    assert len(isa._permute_plan(8, 32, ROT16)) == 2
    assert len(isa._permute_plan(8, 32, ROT8)) == 2


# Interleaves and VPMULUDQ are unrolled word formulas in OpsV; in Ops the
# interleaves are constant lane-index tables and VPMULUDQ a product per lane.


@pytest.mark.parametrize("name", ["x86_VPUNPCKL_8u32", "x86_VPUNPCKH_8u32",
                                  "x86_VPUNPCKL_4u64", "x86_VPUNPCKH_4u64",
                                  "x86_VPMULU_4u64"])
def test_word_formula_interleaves_and_multiply_match_lanes(name):
    d = isa.lookup(name)
    rng = random.Random(name)
    ones = (1 << 256) - 1
    n, m = d.lanes
    counting = sum((i + 1) << (m * i) for i in range(n))  # every lane distinct
    pairs = [(ones, ones), (ones, 0), (0, ones), (counting, ones ^ counting)]
    pairs += [(rng.getrandbits(256), rng.getrandbits(256)) for _ in range(300)]
    for x, y in pairs:
        assert [d.ops(x, y)] == d.sem([x, y]), (name, hex(x), hex(y))
        words = [Word(256, x), Word(256, y)]
        assert exec_vector(d, isa.OPS, words) == exec_vector(d, isa.OPSV, words)


# Positional forms and bound forms.  Every vector instruction's OpsV
# semantics is `vsem(x, y, ...)` and its Ops form `ops`;
# `bind` partially evaluates a data movement for a known selector or
# imm8.  All of them must equal the list interfaces they derive from.

VECTORS = sorted(n for n, d in isa.registry().items() if d.is_vector)
BINDABLE = ["x86_VPSHUFD_128", "x86_VPSHUFD_256", "x86_VPERMQ_4u64", "x86_VPERM2I128",
            "x86_VEXTRACTI128", "x86_VINSERTI128", "x86_VPSHUFB_128", "x86_VPSHUFB_256"]
ROT24 = 0x0C0F0E0D080B0A090407060500030201  # gimli_sse's 128-bit rotation


def _operand(w):
    """A w-bit operand, biased to the values at the edges of a lane."""
    edges = [0, 1, (1 << w) - 1, 1 << (w - 1)] + ([31, 32, 63, 64, 65] if w == 8 else [])
    return st.one_of(st.integers(0, (1 << w) - 1), st.sampled_from(edges))


@pytest.mark.parametrize("name", VECTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_positional_forms_equal_exec_vector(name, data):
    d = isa.lookup(name)
    args = [data.draw(_operand(w)) for w in d.src_widths]
    words = [Word(w, a) for w, a in zip(d.src_widths, args)]
    want = exec_vector(d, isa.OPSV, words)
    assert want == exec_vector(d, isa.OPS, words)
    assert [Word(d.dst_widths[0], d.vsem(*args))] == want
    assert [Word(d.dst_widths[0], d.ops(*args))] == want


def _assert_bound_forms_agree(d, rng, sel):
    opsv, ops = isa.bind(d, (sel,))
    assert isa.bind(d, (sel,)) == (opsv, ops)  # cached per (instruction, constant)
    for _ in range(4):
        rest = [rng.getrandbits(w) for w in d.src_widths[:-1]]
        words = [Word(w, a) for w, a in zip(d.src_widths, rest + [sel])]
        want = exec_vector(d, isa.OPSV, words)[0].value
        assert exec_vector(d, isa.OPS, words)[0].value == want
        assert opsv(*rest) == want and ops(*rest) == want, (d.name, hex(sel), hex(want))


@pytest.mark.parametrize("name", [n for n in BINDABLE if "VPSHUFB" not in n])
def test_every_immediate_binds(name):
    d = isa.lookup(name)
    rng = random.Random(name)
    for imm in range(256):
        _assert_bound_forms_agree(d, rng, imm)


@pytest.mark.parametrize("name", ["x86_VPSHUFB_128", "x86_VPSHUFB_256"])
def test_byte_shuffle_selectors_bind(name):
    d = isa.lookup(name)
    nbytes = d.src_widths[1] // 8
    rng = random.Random(name)
    mask = (1 << (8 * nbytes)) - 1
    corpus = [ROT16 & mask, ROT8 & mask, ROT24 | ROT24 << 128 & mask, int("80" * nbytes, 16)]
    for sel in corpus + [_byte_selector(rng, nbytes, rate) for rate in (0, 0.2, 0.9)
                         for _ in range(30)]:
        _assert_bound_forms_agree(d, rng, sel)


def test_bind_covers_the_data_movements_only():
    assert isa._bound.cache_info().maxsize == isa.PLAN_CACHE
    for name in VECTORS:
        d = isa.lookup(name)
        assert (isa.bind(d, (0,)) is not None) == (name in BINDABLE), name
    assert isa.bind(isa.lookup("x86_ADD_64"), (0,)) is None
