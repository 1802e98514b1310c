import random

import pytest
from hypothesis import given, settings, strategies as st

from jamin import isa
from jamin.words import Word


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
    lanes = isa.exec_ops(d, [v])[0]
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
        assert isa.validate_descriptor(d) == [], name


def test_validate_catches_duplicate_destination():
    d = isa.Descriptor(
        name="bogus_dup",
        sources=(isa.E(64, 0),),
        destinations=(isa.E(64, 0), isa.E(64, 0)),
        oshape=("oprd",),
        mnemonic="BOGUS",
        sem=lambda a: [a[0], a[0]],
        size=64,
    )
    assert any("duplicate" in p for p in isa.validate_descriptor(d))


def test_validate_catches_wrong_arity():
    d = isa.Descriptor(
        name="bogus_arity",
        sources=(isa.E(64, 0),),
        destinations=(isa.E(64, 0),),
        oshape=("oprd",),
        mnemonic="BOGUS",
        sem=lambda a: [a[0], a[0]],
        size=64,
    )
    assert any("returns" in p for p in isa.validate_descriptor(d))


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
            assert isa.exec_vector(d, isa.OPS, args) == isa.exec_vector(
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


def test_variable_time_flag_unused():
    assert not any(d.variable_time for d in isa.registry().values())


# Selector- and immediate-driven permutes: OpsV applies a cached
# shift-and-mask plan per selector, Ops indexes the lane array, so Ops≡OpsV
# checks each plan against a semantics that has none.

ROT16 = 0x0D0C0F0E09080B0A0504070601000302_0D0C0F0E09080B0A0504070601000302
ROT8 = 0x0E0D0C0F0A09080B0605040702010003_0E0D0C0F0A09080B0605040702010003


def _assert_permute_modes_agree(d, x, sel):
    words = [Word(w, v) for w, v in zip(d.src_widths, (x, sel))]
    assert isa.exec_vector(d, isa.OPS, words) == isa.exec_vector(d, isa.OPSV, words), (
        d.name, hex(sel))
    assert isa.exec_vector_raw(d, isa.OPS, [x, sel]) == isa.exec_vector_raw(
        d, isa.OPSV, [x, sel]), (d.name, hex(sel))


@pytest.mark.parametrize("name", ["x86_VPSHUFD_128", "x86_VPSHUFD_256", "x86_VPERMQ_4u64"])
def test_every_immediate_of_dword_and_qword_permutes(name):
    d = isa.lookup(name)
    rng = random.Random(name)
    for imm in range(256):
        _assert_permute_modes_agree(d, rng.getrandbits(d.src_widths[0]), imm)


def _byte_selector(rng, nbytes, zero_rate=0.0):
    return int.from_bytes(bytes(0x80 | rng.getrandbits(7) if rng.random() < zero_rate
                                else rng.getrandbits(4) for _ in range(nbytes)), "little")


@pytest.mark.parametrize("name", ["x86_VPSHUFB_128", "x86_VPSHUFB_256"])
def test_byte_shuffle_plans_reused_and_evicted(name):
    d = isa.lookup(name)
    nbytes = d.src_widths[1] // 8
    bound = isa._permute_plan.cache_info().maxsize
    rng = random.Random(name)
    small = [ROT16 & ((1 << (8 * nbytes)) - 1), ROT8 & ((1 << (8 * nbytes)) - 1)]
    small += [_byte_selector(rng, nbytes) for _ in range(6)]
    large = [_byte_selector(rng, nbytes) for _ in range(bound + 50)]
    before = isa._permute_plan.cache_info()
    for sel in small * 20:
        _assert_permute_modes_agree(d, rng.getrandbits(8 * nbytes), sel)
    assert isa._permute_plan.cache_info().hits - before.hits >= 19 * len(small)
    for sel in large * 2:  # the second pass finds the first pass's plans evicted
        _assert_permute_modes_agree(d, rng.getrandbits(8 * nbytes), sel)
    info = isa._permute_plan.cache_info()
    assert info.currsize == bound and info.misses - before.misses >= 2 * len(large)


@pytest.mark.parametrize("name", ["x86_VPSHUFB_128", "x86_VPSHUFB_256"])
def test_byte_shuffle_zeroing_selectors(name):
    d = isa.lookup(name)
    nbytes = d.src_widths[1] // 8
    rng = random.Random(name)
    everything = (1 << (8 * nbytes)) - 1
    assert isa.exec_vector_raw(d, isa.OPSV, [everything, int("80" * nbytes, 16)]) == [0]
    for rate in (0.1, 0.5, 0.9):
        for _ in range(50):
            _assert_permute_modes_agree(d, rng.getrandbits(8 * nbytes),
                                        _byte_selector(rng, nbytes, rate))


def test_chacha_rotations_are_two_shift_groups():
    assert len(isa._permute_plan(8, 32, ROT16)) == 2
    assert len(isa._permute_plan(8, 32, ROT8)) == 2


# Interleaves and VPMULUDQ are unrolled word formulas in OpsV; the lane
# semantics of Ops is the reference.


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
        assert isa.exec_vector_raw(d, isa.OPS, [x, y]) == isa.exec_vector_raw(
            d, isa.OPSV, [x, y]), (name, hex(x), hex(y))
        words = [Word(256, x), Word(256, y)]
        assert isa.exec_vector(d, isa.OPS, words) == isa.exec_vector(d, isa.OPSV, words)
