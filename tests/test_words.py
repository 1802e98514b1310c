import random

import pytest
from hypothesis import given, strategies as st

from jamin import words
from jamin.words import Word


def test_of_uint_reduces():
    assert Word(32, 0).value == 0
    assert Word(32, 2**32).value == 0
    assert Word(8, -1).value == 255


def test_to_sint():
    assert words.to_sint(Word(8, 0)) == 0
    assert words.to_sint(Word(8, 255)) == -1
    assert words.to_sint(Word(8, 128)) == -128


def test_rol_examples():
    assert words.rol(Word(32, 0x80000000), 1).value == 1
    x = Word(32, 0xDEADBEEF)
    assert words.rol(x, 0) == x
    # frozen from the bit-level big-integer oracle below
    assert words.rol(Word(32, 0x12345678), 8).value == 0x34567812


def _rol_oracle(x: int, w: int, i: int) -> int:
    bits = [(x >> k) & 1 for k in range(w)]
    out = 0
    for k in range(w):
        out |= bits[(k - i) % w] << k
    return out


def test_rol_matches_bit_oracle():
    rng = random.Random(0)
    for _ in range(300):
        w = rng.choice(words.WIDTHS)
        x = rng.getrandbits(w)
        i = rng.randrange(w + 1)
        assert words.rol(Word(w, x), i).value == _rol_oracle(x, w, i)


def test_shift_count_contract():
    with pytest.raises(words.WordError):
        words.shl(Word(32, 1), 33)
    with pytest.raises(words.WordError):
        words.shr(Word(32, 1), -1)
    assert words.shl(Word(32, 1), 32).value == 0


def test_shl_shr_rol_identity_exhaustive_w8():
    for x in range(256):
        w = Word(8, x)
        for i in range(1, 8):
            lhs = words.xor(words.shl(w, i), words.shr(w, 8 - i))
            assert lhs == words.rol(w, i)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 63))
def test_shl_shr_rol_identity_w64(x, i):
    w = Word(64, x)
    assert words.xor(words.shl(w, i), words.shr(w, 64 - i)) == words.rol(w, i)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 31))
def test_shl_is_multiplication(x, i):
    assert words.shl(Word(32, x), i).value == (x * 2**i) % 2**32


def test_split_examples():
    parts = words.split(Word(64, 0x0123456789ABCDEF), 32)
    assert [p.value for p in parts] == [0x89ABCDEF, 0x01234567]
    assert [p.value for p in words.split(Word(16, 0), 8)] == [0, 0]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_split_join_roundtrip(x):
    w = Word(64, x)
    assert words.join(words.split(w, 8), 64) == w


def test_split_nested_views():
    rng = random.Random(1)
    for _ in range(100):
        x = Word(256, rng.getrandbits(256))
        direct = words.split(x, 8)
        nested = []
        for part in words.split(x, 64):
            nested.extend(words.split(part, 8))
        assert direct == nested


def test_split_requires_dividing_width():
    with pytest.raises(words.WordError):
        words.split(Word(64, 1), 256)
    with pytest.raises(words.WordError):
        words.join([Word(8, 1)] * 3, 32)


def test_mul_wide():
    hi, lo = words.mul_wide(Word(64, 2), Word(64, 3))
    assert (hi.value, lo.value) == (0, 6)
    hi, lo = words.mul_wide(Word(64, 2**63), Word(64, 2))
    assert (hi.value, lo.value) == (1, 0)
    hi, lo = words.mul_wide(Word(64, 0), Word(64, 12345))
    assert (hi.value, lo.value) == (0, 0)
    with pytest.raises(words.WordError):
        words.mul_wide(Word(64, 1), Word(32, 1))


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_arithmetic_matches_bigint(x, y):
    a, b = Word(64, x), Word(64, y)
    assert words.add(a, b).value == (x + y) % 2**64
    assert words.sub(a, b).value == (x - y) % 2**64
    assert words.mul(a, b).value == (x * y) % 2**64
    hi, lo = words.mul_wide(a, b)
    assert hi.value * 2**64 + lo.value == x * y


def test_sar():
    assert words.sar(Word(8, 0x80), 1).value == 0xC0
    assert words.sar(Word(8, 0x40), 1).value == 0x20


@pytest.mark.parametrize("call, message", [
    (lambda: Word(7, 0), "unsupported word width 7"),
    (lambda: words.join([], 64), "cannot join an empty list"),
    (lambda: words.join([Word(32, 1), Word(16, 2)], 48), "join requires uniform sub-word width"),
], ids=["width", "join-empty", "join-mixed"])
def test_word_layer_rejects_malformed_words(call, message):
    with pytest.raises(words.WordError, match=f"^{message}$"):
        call()
