import random
from pathlib import Path

import pytest

from jamin.primitives.chacha20 import chacha20_block, chacha20_xor, qround
from jamin.primitives.gimli import gimli, gimli_bytes
from jamin.primitives.poly1305 import CLAMP_MASK, clamp, poly1305_mac, poly1305_spec

VECTORS = Path(__file__).resolve().parent.parent / "src" / "jamin" / "vectors"


def load_vector(name):
    out = {}
    for line in (VECTORS / name).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        k, _, v = line.partition(": ")
        out[k] = v.strip()
    return out


# ------------------------------------------------------------- poly1305


def test_clamp_examples():
    assert clamp(b"\xff" * 16) == CLAMP_MASK
    assert clamp(b"\x00" * 16) == 0
    with pytest.raises(ValueError):
        clamp(b"\x00" * 15)


def test_clamp_bit_pattern():
    rng = random.Random(0)
    for _ in range(200):
        r = clamp(rng.randbytes(16)).to_bytes(16, "little")
        for i in (3, 7, 11, 15):
            assert r[i] & 0xF0 == 0
        for i in (4, 8, 12):
            assert r[i] & 0x03 == 0


def test_poly1305_empty_and_zero_r():
    key = bytes(16) + bytes(range(16))
    s = int.from_bytes(key[16:], "little")
    assert poly1305_mac(key, b"") == (s % 2**128).to_bytes(16, "little")
    assert poly1305_mac(key, b"whatever") == (s % 2**128).to_bytes(16, "little")


def test_poly1305_rfc8439_vector():
    v = load_vector("poly1305_rfc8439.txt")
    key = bytes.fromhex(v["key"])
    msg = bytes.fromhex(v["msg"])
    assert poly1305_mac(key, msg).hex() == v["tag"]


def _poly_oracle(key, msg):
    """Independent formulation: big-integer Horner over the padded blocks."""
    p = (1 << 130) - 5
    r = int.from_bytes(key[:16], "little") & CLAMP_MASK
    blocks = [msg[i : i + 16] for i in range(0, len(msg), 16)]
    acc = 0
    for b in blocks:
        acc = (acc + int.from_bytes(b + b"\x01", "little")) * r % p
    return ((acc + int.from_bytes(key[16:], "little")) % 2**128).to_bytes(16, "little")


def test_poly1305_against_independent_oracle():
    rng = random.Random(5)
    for _ in range(300):
        key = rng.randbytes(32)
        msg = rng.randbytes(rng.randrange(0, 200))
        assert poly1305_mac(key, msg) == _poly_oracle(key, msg)


# ------------------------------------------------------------- chacha20


def test_qround_zero_preserved():
    assert qround(0, 0, 0, 0) == (0, 0, 0, 0)


def test_qround_rotation_constants():
    # independent transcription pinning the 16, 12, 8, 7 schedule
    M = 0xFFFFFFFF

    def rot(x, n):
        return ((x << n) | (x >> (32 - n))) & M

    def oracle(a, b, c, d):
        a = (a + b) & M; d = rot(d ^ a, 16)
        c = (c + d) & M; b = rot(b ^ c, 12)
        a = (a + b) & M; d = rot(d ^ a, 8)
        c = (c + d) & M; b = rot(b ^ c, 7)
        return a, b, c, d

    rng = random.Random(3)
    for _ in range(100):
        args = tuple(rng.getrandbits(32) for _ in range(4))
        assert qround(*args) == oracle(*args)


def test_chacha20_block_rfc8439():
    v = load_vector("chacha20_rfc8439_block.txt")
    blk = chacha20_block(
        bytes.fromhex(v["key"]), bytes.fromhex(v["nonce"]), int(v["counter"])
    )
    assert blk.hex() == v["block"]


def test_chacha20_xor_rfc8439():
    v = load_vector("chacha20_rfc8439_xor.txt")
    out = chacha20_xor(
        bytes.fromhex(v["key"]),
        bytes.fromhex(v["nonce"]),
        int(v["counter"]),
        bytes.fromhex(v["plain"]),
    )
    assert out.hex() == v["cipher"]


def test_chacha20_xor_is_involution():
    rng = random.Random(7)
    key, nonce = rng.randbytes(32), rng.randbytes(12)
    msg = rng.randbytes(333)
    ct = chacha20_xor(key, nonce, 5, msg)
    assert chacha20_xor(key, nonce, 5, ct) == msg


def test_chacha20_block_counter_chaining():
    rng = random.Random(8)
    key, nonce = rng.randbytes(32), rng.randbytes(12)
    msg = bytes(150)
    stream = chacha20_xor(key, nonce, 3, msg)
    blocks = b"".join(chacha20_block(key, nonce, 3 + i) for i in range(3))
    assert stream == blocks[:150]


# ---------------------------------------------------------------- gimli


def test_gimli_identity_without_rounds():
    # zero state becomes nonzero: the round constant is injected
    out = gimli([0] * 12)
    assert out != [0] * 12


def test_gimli_designers_style_vector():
    v = load_vector("gimli_permutation.txt")
    inp = [int(w, 16) for w in v["input"].split()]
    out = gimli(inp)
    assert [f"{w:08x}" for w in out] == v["output"].split()


def _gimli_oracle(words):
    """Independent transcription over a flat list."""
    M = 0xFFFFFFFF

    def rotl(x, b):
        return ((x << b) & M) | ((x & M) >> (32 - b))

    s = list(words)
    rnd = 24
    while rnd > 0:
        for j in range(4):
            x = rotl(s[j], 24)
            y = rotl(s[j + 4], 9)
            z = s[j + 8]
            s[j + 8] = x ^ ((z << 1) & M) ^ (((y & z) << 2) & M)
            s[j + 4] = y ^ x ^ (((x | z) << 1) & M)
            s[j] = z ^ y ^ (((x & y) << 3) & M)
        if rnd & 3 == 0:
            s[0], s[1], s[2], s[3] = s[1], s[0], s[3], s[2]
            s[0] ^= 0x9E377900 | rnd
        if rnd & 3 == 2:
            s[0], s[1], s[2], s[3] = s[2], s[3], s[0], s[1]
        rnd -= 1
    return s


def test_gimli_against_independent_oracle():
    rng = random.Random(11)
    for _ in range(100):
        state = [rng.getrandbits(32) for _ in range(12)]
        assert gimli(state) == _gimli_oracle(state)


def test_gimli_bytes_little_endian():
    rng = random.Random(12)
    raw = rng.randbytes(48)
    words = [int.from_bytes(raw[4 * i : 4 * i + 4], "little") for i in range(12)]
    assert gimli_bytes(raw) == b"".join(
        w.to_bytes(4, "little") for w in gimli(words)
    )


# ---------------------------------------------------------------- corpus


def test_corpus_loads_and_enumerates():
    from jamin.primitives.corpus import PROGRAMS, load_program

    corpus = {name: load_program(name) for name in PROGRAMS}
    assert len(corpus) >= 7
    assert set(corpus) == set(PROGRAMS)


def test_gimli_sse_uses_vpshufb():
    from jamin.primitives.corpus import load_source

    assert "#x86_VPSHUFB" in load_source("gimli_sse")


def test_poly1305_avx2_branches_on_256():
    from jamin.primitives.corpus import load_source

    assert "256 <= inl" in load_source("poly1305_avx2")


@pytest.mark.parametrize("call, message", [
    (lambda: chacha20_block(bytes(31), bytes(12), 0), "key must be exactly 32 bytes"),
    (lambda: chacha20_block(bytes(32), bytes(8), 0), "nonce must be exactly 12 bytes"),
    (lambda: gimli([0] * 11), "state must be 12 words"),
    (lambda: gimli_bytes(bytes(47)), "state must be 48 bytes"),
    (lambda: poly1305_mac(bytes(16), b""), "key must be exactly 32 bytes"),
], ids=["chacha20-key", "chacha20-nonce", "gimli-words", "gimli-bytes", "poly1305-key"])
def test_specifications_reject_inputs_of_the_wrong_size(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
