"""Multi-precision limb arithmetic with per-limb bit-bound certificates.

A LimbNum holds 64-bit limbs at a chosen radix (bit weight step between
positions) together with a certified maximum bit-length per limb, which
the constructor verifies the limbs satisfy.  Bounds are data, set in one
of three ways:
- derived from the input bounds alone: `add_generic`, `mul_schoolbook`
  and `add_Rep5_Pack`;
- fixed by the shape, `radix` bits per limb: `from_int`, `propagate` and
  `convert`;
- read off the values, as `make` does by default: `_split_at_130` and
  `reduce_p1305`.  Such a bound holds for the limbs it was read from, and
  certifies nothing about another input.
Keeping limbs below the certified widths is what makes delayed-carry
algorithms sound, so bound violations raise instead of wrapping.

Addition and schoolbook multiplication are generic in the limb count;
only the modular reduction is specific to 2^130 - 5.  Two
representations get dedicated support: the packed radix-64 form (three
limbs for a residue, top limb a couple of bits) and the radix-26
five-limb form whose canonical relaxation allows 27-bit limbs.  Every
change of shape goes through the represented integer: `_digits` is the
inverse of `repres`.
"""

from __future__ import annotations

from dataclasses import dataclass

P1305 = (1 << 130) - 5
LIMB_BITS = 64
_M64 = (1 << 64) - 1


class BoundError(ValueError):
    """A bound certificate precondition does not hold."""


@dataclass(frozen=True)
class LimbNum:
    limbs: tuple
    radix: int
    bounds: tuple

    def __post_init__(self):
        if not 1 <= self.radix <= 64:
            raise BoundError(f"radix {self.radix} out of range")
        if len(self.limbs) != len(self.bounds):
            raise BoundError("limb/bound arity mismatch")
        for v, b in zip(self.limbs, self.bounds):
            if not 0 <= b <= LIMB_BITS:
                raise BoundError(f"bound {b} out of range")
            if v >> b:
                raise BoundError(f"limb {v:#x} exceeds its {b}-bit certificate")

    def __len__(self):
        return len(self.limbs)


def make(limbs, radix: int, bounds=None) -> LimbNum:
    """Wrap raw limbs; bounds default to each limb's actual bit length."""
    limbs = tuple(limbs)
    if bounds is None:
        bounds = tuple(v.bit_length() for v in limbs)
    return LimbNum(limbs, radix, tuple(bounds))


def from_int(x: int, radix: int, count: int) -> LimbNum:
    if x < 0:
        raise ValueError("negative values are not representable")
    limbs = _digits(x, radix, count)
    if x >> (radix * len(limbs)):
        raise BoundError(f"value needs more than {count} radix-{radix} limbs")
    return LimbNum(tuple(limbs), radix, (radix,) * len(limbs))


def repres(x: LimbNum) -> int:
    """The represented integer: sum of limb_i * 2^(radix*i)."""
    v = 0
    for limb in reversed(x.limbs):
        v = (v << x.radix) + limb
    return v


def _digits(x: int, radix: int, count=None) -> list:
    """The radix-bit digits of x >= 0, least significant first: the
    inverse of repres.  `count` of them, any bits above dropped; as many
    as x needs when count is None."""
    mask = (1 << radix) - 1
    if count is None:
        count = -(-x.bit_length() // radix)
    return [(x >> (radix * i)) & mask for i in range(count)]


def _carried(x: int, radix: int, count: int = 0) -> LimbNum:
    """The carry chain: x in canonical limbs (< 2^radix, certified at radix
    bits), at least `count` of them, more if the top carries out."""
    limbs = _digits(x, radix)
    limbs += [0] * (count - len(limbs))
    return LimbNum(tuple(limbs), radix, (radix,) * len(limbs))


def bRep(x: LimbNum, k: int) -> bool:
    """All limbs certified at most k bits."""
    return all(b <= k for b in x.bounds)


def ubW64(x: LimbNum, i: int, k: int) -> bool:
    """Limb i certified at most k bits."""
    return x.bounds[i] <= k


def _check_same_shape(a: LimbNum, b: LimbNum):
    if a.radix != b.radix or len(a) != len(b):
        raise BoundError("operands must share radix and limb count")


def add_generic(a: LimbNum, b: LimbNum) -> LimbNum:
    """Limb-wise addition with delayed carries (no propagation)."""
    _check_same_shape(a, b)
    bounds = []
    for ba, bb in zip(a.bounds, b.bounds):
        nb = max(ba, bb) + 1
        if nb > LIMB_BITS:
            raise BoundError("limb-wise addition could overflow 64 bits")
        bounds.append(nb)
    limbs = tuple(x + y for x, y in zip(a.limbs, b.limbs))
    return LimbNum(limbs, a.radix, tuple(bounds))


def mul_schoolbook(a: LimbNum, b: LimbNum) -> LimbNum:
    """Double-length schoolbook product at the shared radix.

    Convolution terms are accumulated in 128-bit partials (checked via
    the bound certificates).  For radices below 64 the partials must fit
    a single limb; at radix 64 they are split and carried.
    """
    if a.radix != b.radix:
        raise BoundError("operands must share a radix")
    na, nb = len(a), len(b)
    n = na + nb - 1
    conv = [0] * n
    conv_bounds = [0] * n
    for k in range(n):
        terms = []
        for i in range(max(0, k - nb + 1), min(na, k + 1)):
            terms.append(a.bounds[i] + b.bounds[k - i])
            conv[k] += a.limbs[i] * b.limbs[k - i]
        if terms:
            conv_bounds[k] = max(terms) + (len(terms) - 1).bit_length()
        if conv_bounds[k] > 128:
            raise BoundError("convolution term could overflow 128 bits")
    if a.radix == LIMB_BITS:
        limbs, bounds = [], []
        carry, carry_bound = 0, 0
        for k in range(n):
            tot = conv[k] + carry
            tot_bound = max(conv_bounds[k], carry_bound) + 1
            limbs.append(tot & _M64)
            bounds.append(min(LIMB_BITS, tot_bound))
            carry = tot >> LIMB_BITS
            carry_bound = max(0, tot_bound - LIMB_BITS)
        limbs.append(carry)
        bounds.append(carry_bound)
        return LimbNum(tuple(limbs), a.radix, tuple(bounds))
    for bk in conv_bounds:
        if bk > LIMB_BITS:
            raise BoundError("partial product does not fit one limb; propagate first")
    # keep double-length shape: one extra (zero) position
    conv.append(0)
    conv_bounds.append(0)
    return LimbNum(tuple(conv), a.radix, tuple(conv_bounds))


def propagate(x: LimbNum) -> LimbNum:
    """Carry-propagate to canonical limbs (< 2^radix), extending the
    limb count if the top carries out."""
    return _carried(repres(x), x.radix, len(x))


def _split_at_130(x: LimbNum) -> tuple[LimbNum, LimbNum]:
    """(low 130 bits in ceil(130 / radix) limbs, value >> 130 in as many
    limbs as it needs, at least one), each bound read off its limb."""
    v = repres(x)
    lo = _digits(v & ((1 << 130) - 1), x.radix, -(-130 // x.radix))
    return make(lo, x.radix), make(_digits(v >> 130, x.radix) or [0], x.radix)


def reduce_p1305(x: LimbNum) -> LimbNum:
    """Reduce modulo 2^130 - 5 by folding the bits above 2^130 with
    weight 5, then carrying; only bounded, not fully canonical.

    Radix 26 yields the 5-limb form within the 27-bit relaxation; radix
    64 yields the 3-limb packed form with a small top limb.
    """
    if x.radix not in (26, 64):
        raise BoundError("reduction is defined for the radix-26 and radix-64 forms")
    if x.radix * len(x.limbs) < 130:
        raise BoundError("representation narrower than 130 bits")
    five = make([5], x.radix, (3,))
    y = x
    for _ in range(8):
        lo, hi = _split_at_130(y)
        if not repres(hi):
            break
        y = _carried(repres(lo) + repres(mul_schoolbook(hi, five)), x.radix)
    else:
        raise BoundError("reduction did not converge")
    # y < 2^130, so its low part is y itself
    assert repres(lo) % P1305 == repres(x) % P1305
    return lo


def convert(a: LimbNum, to_radix: int, to_count: int) -> LimbNum:
    """Repack the represented value bit-exactly into another shape."""
    v = repres(a)
    out = _digits(v, to_radix, to_count)
    if v >> (to_radix * len(out)):
        raise BoundError("value does not fit the target shape")
    res = LimbNum(tuple(out), to_radix, (to_radix,) * len(out))
    assert repres(res) == v
    return res


def add_Rep5_Pack(h1: LimbNum, h2: LimbNum, h3: LimbNum, h4: LimbNum) -> LimbNum:
    """Sum four radix-26 values (limbs at most 27 bits) into the packed
    3-limb form, folding the bits above 2^130 with weight 5.

    The exact contract is repres(out) = (S mod 2^130) + 5*(S >> 130)
    with S the integer sum of the four inputs; the fold is what keeps
    the top output limb within 4 bits even for maximal inputs.
    """
    for h in (h1, h2, h3, h4):
        if h.radix != 26 or len(h) != 5:
            raise BoundError("inputs must be 5-limb radix-26 numbers")
        if not bRep(h, 27):
            raise BoundError("inputs must satisfy the 27-bit limb certificate")
    s = add_generic(add_generic(h1, h2), add_generic(h3, h4))  # bounds <= 29
    # gather 26-bit-weighted limbs into 64-bit-weighted words
    acc = [0, 0, 0]
    for i, v in enumerate(s.limbs):
        pos = 26 * i
        j, bit = divmod(pos, 64)
        acc[j] += v << bit
    # carry-normalize the three accumulators (acc[2] receives bits >= 128)
    l0 = acc[0] & _M64
    t1 = acc[1] + (acc[0] >> 64)
    l1 = t1 & _M64
    l2 = acc[2] + (t1 >> 64)
    # fold the bits at and above 2^130 (weight 2^130 = 5 mod p)
    hi = l2 >> 2
    l2 &= 3
    t0 = l0 + 5 * hi
    l0 = t0 & _M64
    t1 = l1 + (t0 >> 64)
    l1 = t1 & _M64
    l2 = l2 + (t1 >> 64)
    out = LimbNum((l0, l1, l2), 64, (64, 64, 4))
    ss = repres(h1) + repres(h2) + repres(h3) + repres(h4)
    assert repres(out) == (ss & ((1 << 130) - 1)) + 5 * (ss >> 130)
    return out
