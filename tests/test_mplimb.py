import random

import pytest
from hypothesis import given, settings, strategies as st

from jamin import mplimb as mp


def _pad(x, n):
    """x with zero limbs, certified at 0 bits, added up to n limbs."""
    if len(x) >= n:
        return x
    pad = n - len(x)
    return mp.LimbNum(x.limbs + (0,) * pad, x.radix, x.bounds + (0,) * pad)


def rand_limbnum(rng, radix, count, bits=None):
    bits = bits if bits is not None else (radix if radix < 64 else 62)
    return mp.make([rng.getrandbits(bits) for _ in range(count)], radix)


def test_repres_examples():
    assert mp.repres(mp.make([1, 0, 0, 0, 0], 26)) == 1
    assert mp.repres(mp.make([0, 0, 1], 64)) == 2**128
    assert mp.repres(mp.make([5, 3, 0, 0, 0], 26)) == 5 + 3 * 2**26


def test_bound_certificates_validate():
    with pytest.raises(mp.BoundError):
        mp.LimbNum((8,), 26, (3,))  # 8 needs 4 bits
    x = mp.make([7], 26)
    assert x.bounds == (3,)


def test_add_examples():
    a = mp.make([1, 0, 0, 0, 0], 26)
    s = mp.add_generic(a, a)
    assert s.limbs[0] == 2 and s.bounds[0] == 2
    b27 = mp.make([2**27 - 1] * 5, 26)
    four = mp.add_generic(mp.add_generic(b27, b27), mp.add_generic(b27, b27))
    assert mp.bRep(four, 29)


def test_add_overflow_precondition():
    full = mp.make([2**64 - 1] * 3, 64)
    with pytest.raises(mp.BoundError):
        mp.add_generic(full, full)


@settings(max_examples=200)
@given(st.integers(3, 9), st.sampled_from((26, 64)), st.integers(0, 2**31))
def test_add_mul_oracle_generic(count, radix, seed):
    rng = random.Random(seed)
    a = rand_limbnum(rng, radix, count)
    b = rand_limbnum(rng, radix, count)
    assert mp.repres(mp.add_generic(a, b)) == mp.repres(a) + mp.repres(b)
    assert mp.repres(mp.mul_schoolbook(a, b)) == mp.repres(a) * mp.repres(b)


def test_mul_unit():
    rng = random.Random(1)
    b = rand_limbnum(rng, 26, 5)
    one = mp.make([1, 0, 0, 0, 0], 26)
    assert mp.repres(mp.mul_schoolbook(one, b)) == mp.repres(b)
    zero = mp.make([0] * 5, 26)
    assert mp.repres(mp.mul_schoolbook(zero, b)) == 0


def test_propagate_normalizes():
    x = mp.make([2**26 + 5, 2**26 - 1, 0, 0, 0], 26)
    c = mp.propagate(x)
    assert mp.repres(c) == mp.repres(x)
    assert all(b <= 26 for b in c.bounds)


def test_reduce_examples():
    assert mp.repres(mp.reduce_p1305(mp.from_int(2**130, 26, 6))) == 5
    assert mp.repres(mp.reduce_p1305(mp.from_int(12345, 26, 6))) == 12345


@settings(max_examples=300)
@given(st.integers(0, 2**260 - 1))
def test_reduce_oracle(v):
    r5 = mp.reduce_p1305(mp.from_int(v, 26, 10))
    assert mp.repres(r5) % mp.P1305 == v % mp.P1305
    assert len(r5) == 5 and mp.bRep(r5, 27)
    r3 = mp.reduce_p1305(mp.from_int(v, 64, 5))
    assert mp.repres(r3) % mp.P1305 == v % mp.P1305
    assert len(r3) == 3 and mp.ubW64(r3, 2, 3)


def test_reduce_idempotent_mod_p():
    rng = random.Random(3)
    for _ in range(200):
        v = rng.getrandbits(260)
        once = mp.reduce_p1305(mp.from_int(v, 26, 10))
        twice = mp.reduce_p1305(_pad(once, 5))
        assert mp.repres(twice) == mp.repres(once)


@settings(max_examples=200)
@given(st.integers(0, 2**130 - 1))
def test_convert_bit_exact(v):
    a = mp.from_int(v, 26, 5)
    c = mp.convert(a, 64, 3)
    assert mp.repres(c) == v
    assert mp.repres(mp.convert(c, 26, 6)) == v


def test_convert_capacity_check():
    with pytest.raises(mp.BoundError):
        mp.convert(mp.from_int(2**100, 64, 2), 26, 3)


def test_add_rep5_pack_trivial():
    one = mp.make([1, 0, 0, 0, 0], 26)
    r = mp.add_Rep5_Pack(one, one, one, one)
    assert mp.repres(r) == 4
    assert r.limbs[2] == 0
    zero = mp.make([0] * 5, 26)
    r = mp.add_Rep5_Pack(zero, one, one, one)
    assert mp.repres(r) == 3


def test_add_rep5_pack_exact_fold_equation():
    rng = random.Random(9)
    mx = mp.make([2**27 - 1] * 5, 26)
    cases = [[mx] * 4]
    for _ in range(300):
        hs = []
        for _ in range(4):
            k = rng.random()
            if k < 0.3:
                hs.append(mx)
            elif k < 0.45:
                hs.append(mp.make([0] * 5, 26))
            else:
                hs.append(mp.make([rng.getrandbits(27) for _ in range(5)], 26))
        cases.append(hs)
    for hs in cases:
        r = mp.add_Rep5_Pack(*hs)
        s = sum(mp.repres(h) for h in hs)
        assert mp.repres(r) == (s & ((1 << 130) - 1)) + 5 * (s >> 130)
        assert r.limbs[2] < 2**4


def test_add_rep5_pack_rejects_oversized_limbs():
    bad = mp.make([2**28] + [0] * 4, 26)
    ok = mp.make([1, 0, 0, 0, 0], 26)
    with pytest.raises(mp.BoundError):
        mp.add_Rep5_Pack(bad, ok, ok, ok)


R26 = mp.make([1, 0, 0, 0, 0], 26)
W64 = mp.make([2**64 - 1, 2**64 - 1], 64)

# Every refusal of mplimb: the call, the exception and its whole text.
REFUSALS = {
    "radix-low": (lambda: mp.LimbNum((), 0, ()), "radix 0 out of range"),
    "radix-high": (lambda: mp.make([], 65), "radix 65 out of range"),
    "arity": (lambda: mp.LimbNum((1,), 26, ()), "limb/bound arity mismatch"),
    "bound-negative": (lambda: mp.LimbNum((0,), 26, (-1,)), "bound -1 out of range"),
    "bound-high": (lambda: mp.LimbNum((1,), 26, (65,)), "bound 65 out of range"),
    "limb-over-bound": (lambda: mp.LimbNum((8,), 26, (3,)), "limb 0x8 exceeds its 3-bit certificate"),
    "from-int-negative": (lambda: mp.from_int(-1, 26, 5), "negative values are not representable"),
    "from-int-too-many-limbs": (lambda: mp.from_int(2**130, 26, 5), "value needs more than 5 radix-26 limbs"),
    "add-shape": (lambda: mp.add_generic(R26, mp.make([1, 0, 0], 26)),
                  "operands must share radix and limb count"),
    "add-overflow": (lambda: mp.add_generic(W64, W64), "limb-wise addition could overflow 64 bits"),
    "mul-radix": (lambda: mp.mul_schoolbook(R26, mp.make([1], 64)), "operands must share a radix"),
    "mul-128-bit-partial": (lambda: mp.mul_schoolbook(W64, W64), "convolution term could overflow 128 bits"),
    "mul-partial-past-limb": (lambda: mp.mul_schoolbook(mp.make([2**40], 26), mp.make([2**30], 26)),
                              "partial product does not fit one limb; propagate first"),
    "reduce-radix": (lambda: mp.reduce_p1305(mp.from_int(1, 32, 5)),
                     "reduction is defined for the radix-26 and radix-64 forms"),
    "reduce-width": (lambda: mp.reduce_p1305(mp.from_int(1, 26, 4)), "representation narrower than 130 bits"),
    "reduce-no-convergence": (lambda: mp.reduce_p1305(mp.from_int(2**2000, 64, 32)),
                              "reduction did not converge"),
    "convert-capacity": (lambda: mp.convert(mp.from_int(2**130, 26, 6), 64, 2),
                         "value does not fit the target shape"),
    "pack-shape": (lambda: mp.add_Rep5_Pack(R26, R26, R26, mp.make([1, 0, 0, 0], 26)),
                   "inputs must be 5-limb radix-26 numbers"),
    "pack-certificate": (lambda: mp.add_Rep5_Pack(R26, mp.make([2**27, 0, 0, 0, 0], 26), R26, R26),
                         "inputs must satisfy the 27-bit limb certificate"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal(name):
    call, text = REFUSALS[name]
    with pytest.raises(ValueError) as exc:
        call()
    # a negative value is the one refusal that is no BoundError
    kind = ValueError if name == "from-int-negative" else mp.BoundError
    assert (type(exc.value), str(exc.value)) == (kind, text)


def test_propagate_carries_out_of_the_top_limb():
    c = mp.propagate(mp.make([2**26 - 1, 2**26 + 1], 26))
    assert (c.limbs, c.bounds) == ((2**26 - 1, 1, 1), (26, 26, 26))


def test_split_of_fewer_limbs_than_130_bits():
    lo, hi = mp._split_at_130(mp.make([3, 4], 26))
    assert (lo.limbs, lo.bounds) == ((3, 4, 0, 0, 0), (2, 3, 0, 0, 0))
    assert (hi.limbs, hi.bounds) == ((0,), (0,))
