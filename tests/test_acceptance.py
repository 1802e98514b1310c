"""Acceptance suite: one test per criterion, full counts, stated bounds.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; each test prints PASS only after its assertions hold.
"""

import random
import time

import pytest

import lanes
from harness import bound_range, corpus_chain
from jamin import interp, isa, leakage, memory, mplimb as mp, safety, words
from jamin.expand import expand
from jamin.leakage import PublicSpec, Ptr, Val
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.primitives.difftest import SHAPES, hop_difftest
from jamin.typecheck import typecheck
from jamin.words import Word


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.mark.wallclock
def test_criterion_1_word_laws():
    t0 = time.monotonic()
    for x in range(256):
        w = Word(8, x)
        assert words.rol(w, 0) == w
        for i in range(1, 8):
            assert words.xor(words.shl(w, i), words.shr(w, 8 - i)) == words.rol(w, i)
    rng = random.Random(101)
    for width in (32, 64):
        for _ in range(10**5 // 2):
            x = Word(width, rng.getrandbits(width))
            i = rng.randrange(1, width)
            assert words.xor(words.shl(x, i), words.shr(x, width - i)) == words.rol(
                x, i
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(1, f"shl/shr/rol law exhaustive at w8 and 1e5 random at w32/w64 "
               f"({elapsed:.1f}s)")


def test_criterion_2_memory_axiom():
    base = memory.add_region(memory.Memory(), 0, 64)
    seeded = base.thaw()
    for a in range(64):
        seeded._store8_inplace(a, (a * 37 + 11) & 0xFF)
    for x in range(64):
        for w in range(256):
            m2 = memory.store8(seeded, x, w)
            for y in range(64):
                expect = w if y == x else (y * 37 + 11) & 0xFF
                assert memory.load8(m2, y) == expect
    # multi-width loads equal the byte-join oracle
    rng = random.Random(5)
    m = base.thaw()
    for a in range(64):
        m._store8_inplace(a, rng.getrandbits(8))
    for _ in range(10**4):
        width = rng.choice((16, 32, 64, 128, 256))
        a = rng.randrange(0, 64 - width // 8 + 1)
        parts = [Word(8, m._load8(a + i)) for i in range(width // 8)]
        assert memory.loadW(m, a, width) == words.join(parts, width)
    _report(2, "get/set axiom exhaustive on a 64-address window x 256 values; "
               "1e4 multi-width loads match the byte join")


@pytest.mark.wallclock
def test_criterion_3_ops_opsv_equivalence():
    t0 = time.monotonic()
    rng = random.Random(77)
    vector = [(n, d) for n, d in sorted(isa.registry().items()) if d.is_vector]
    assert vector
    for name, d in vector:
        src_widths = d.src_widths
        for _ in range(10**4):
            args = [
                (rng.random() < 0.5)
                if w == "flag"
                else rng.getrandbits(w)
                for w in src_widths
            ]
            lanes_out = lanes.exec_ops(d, args)
            wide_out = d.sem(list(args))
            for o, shape, wide in zip(lanes_out, d.dst_lanes, wide_out):
                joined = lanes.join_int(o, shape[1]) if shape else o
                assert joined == wide, name
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(3, f"Ops/OpsV bijection equality, {len(vector)} descriptors x 1e4 "
               f"inputs ({elapsed:.1f}s)")


def test_criterion_4_leakage_golden_trace():
    p = expand(typecheck(parse(
        """
fn store2(reg u64 p, reg u64[2] x) {
  [p + 0] = x[0];
  [p + 8] = x[1];
}
"""
    )))
    rng = random.Random(11)
    for _ in range(100):
        base = rng.randrange(0x100, 1 << 40)
        m = memory.add_region(memory.Memory(), base, 16)
        _, _, tr = leakage.run_instrumented(
            p, "store2", [base, [rng.getrandbits(64), rng.getrandbits(64)]], m
        )
        assert tr.events == [0, base + 0, 1, base + 8]
    _report(4, "store2 reproduces the instrumented event sequence "
               "(indices 0, 1; addresses p+0, p+8) for 100 random p")


PLANTED = [
    ("secret branch (equality test)", """
fn f(reg u64 s, reg u64 p) -> reg u64 {
  reg u64 r;
  r = 0;
  if (s == 0) { r = 1; }
  return r;
}""", {"s": Val(64), "p": Val(64)}, PublicSpec.of(["p"])),
    ("secret branch (loop bound)", """
fn f(reg u64 s) -> reg u64 {
  reg u64 acc, n;
  acc = 0;
  n = s & 0xff;
  while (0 < n) { acc = acc + n; n = n - 1; }
  return acc;
}""", {"s": Val(64)}, PublicSpec.of([])),
    ("secret load address", """
fn f(reg u64 base, reg u64 s) -> reg u64 {
  reg u64 r;
  r = (u8)[base + (s & 0xf)];
  return r;
}""", {"base": Ptr(16), "s": Val(64)},
     PublicSpec.of(["base"], public_regions=["base"])),
    ("secret store address", """
fn f(reg u64 base, reg u64 s) {
  (u8)[base + (s & 0x7)] = 1;
}""", {"base": Ptr(8), "s": Val(64)}, PublicSpec.of(["base"])),
    ("secret array index (read)", """
fn f(reg u64 s) -> reg u64 {
  stack u8[8] a;
  for i = 0 to 7 { (u8)a[i] = i; }
  reg u64 r;
  r = (u8)a[s & 0x7];
  return r;
}""", {"s": Val(64)}, PublicSpec.of([])),
    ("secret array index (write)", """
fn f(reg u64 s) -> reg u64 {
  stack u8[16] a;
  (u8)a.[s & 0xf] = 1;
  reg u64 r;
  r = 0;
  return r;
}""", {"s": Val(64)}, PublicSpec.of([])),
]


def test_criterion_5_constant_time_verdicts():
    t0 = time.monotonic()
    for name, info in PROGRAMS.items():
        p = load_program(name)
        verdict = leakage.ct_check(
            p, info.entry, info.public, trials=10**4, seed=41, shape=info.shape
        )
        assert verdict.secure, (name, verdict.kind, verdict.error)
        inferred = leakage.infer_public(p, info.entry)
        assert leakage.covered_by(inferred, info.public), (name, inferred)
    caught = 0
    for desc, src, shape, spec in PLANTED:
        p = expand(typecheck(parse(src)))
        inferred = leakage.infer_public(p, "f")
        assert "s" in inferred, (desc, inferred)
        v = leakage.ct_check(p, "f", spec, trials=10**3, seed=17, shape=shape)
        assert v.kind == "insecure", (desc, v.kind)
        assert v.trials <= 10**3
        caught += 1
    assert caught >= 6
    elapsed = time.monotonic() - t0
    _report(5, f"7 corpus programs secure over 1e4 trials; {caught} planted "
               f"violations rejected and flagged by the inference "
               f"({elapsed:.0f}s)")


def test_criterion_6_safety_ranges_poly1305():
    p = load_program("poly1305_ref")
    rep = safety.analyze(p, "poly1305", ["out", "in", "k"], ["inlen"])
    assert rep.machine_lines() == [
        "range(out) = out + [0; 16)",
        "range(in) = in + [0; inlen)",
        "range(inlen) = empty",
        "range(k) = k + [0; 32)",
    ]
    assert rep.failures == []
    _report(6, "poly1305 reference ranges are string-exact: out+[0;16), "
               "in+[0;inlen), inlen empty, k+[0;32)")


def _region_map(info, case, L):
    if info.kind == "poly1305":
        names = list(info.shape)
        in_name = names[1]
        return {
            (case["out"], 16): "out",
            (case["in"], L): in_name,
            (case["k"], 32): "k",
        }, {info.tracked[0]: L}
    if info.kind == "chacha20":
        return {
            (case["output"], L): "output",
            (case["plain"], L): "plain",
            (case["k"], 32): "key",
            (case["n"], 12): "nonce",
        }, {"len": L}
    return {(case["base"], 48): "state"}, {}


def test_criterion_7_soundness_cross_check():
    t0 = time.monotonic()
    total_events = 0
    for name, info in PROGRAMS.items():
        p = load_program(name)
        rep = safety.analyze(p, info.entry, info.pointers, info.tracked)
        assert not rep.failures, (name, rep.failures)
        shape = SHAPES[info.kind]
        import zlib

        rng = random.Random(zlib.crc32(name.encode()))
        max_len = next((s.max for s in info.shape.values() if isinstance(s, leakage.Len)), 0)
        for _ in range(10**3):
            case = shape.sample(rng, 10**6)
            if "msg" in case:
                case["msg"] = rng.randbytes(rng.randrange(max_len + 1))
            L = len(case.get("msg", b"")) or 48
            m, args = shape.build_memory(case)
            events = []
            interp.run(p, info.entry, args, m, trace=events)
            regions, params = _region_map(info, case, len(case.get("msg", b"")))
            bounds = {}
            for (base, size), param in regions.items():
                br = bound_range(rep, param, params)
                assert br is not None, (name, param)
                bounds[base] = br
            for a in events:
                if type(a) is not int:  # a branch outcome
                    continue
                for (base, size), param in regions.items():
                    if base <= a < base + max(size, 1):
                        lo, hi = bounds[base]
                        off = a - base
                        assert lo <= off < hi, (name, param, off, lo, hi)
                        total_events += 1
                        break
    elapsed = time.monotonic() - t0
    _report(7, f"1e3 runs per corpus program: every in-region leaked address "
               f"inside its reported range ({total_events} checked, "
               f"{elapsed:.0f}s)")


def test_criterion_8_mplimb_oracles():
    rng = random.Random(55)
    P = mp.P1305
    for radix, count in ((26, 5), (64, 3)):
        bits = radix if radix < 64 else 62
        for _ in range(10**4):
            a = mp.make([rng.getrandbits(bits) for _ in range(count)], radix)
            b = mp.make([rng.getrandbits(bits) for _ in range(count)], radix)
            assert mp.repres(mp.add_generic(a, b)) == mp.repres(a) + mp.repres(b)
            assert mp.repres(mp.mul_schoolbook(a, b)) == mp.repres(a) * mp.repres(b)
    for _ in range(10**4):
        v = rng.getrandbits(260)
        r5 = mp.reduce_p1305(mp.from_int(v, 26, 10))
        assert mp.repres(r5) % P == v % P and mp.bRep(r5, 27)
        r3 = mp.reduce_p1305(mp.from_int(v, 64, 5))
        assert mp.repres(r3) % P == v % P and mp.ubW64(r3, 2, 3)
        w = rng.getrandbits(130)
        assert mp.repres(mp.convert(mp.from_int(w, 26, 5), 64, 3)) == w
    mx = mp.make([2**27 - 1] * 5, 26)
    zero = mp.make([0] * 5, 26)
    worst = 0
    structured = [[mx] * 4, [zero] * 4, [mx, zero, mx, zero]]
    for _ in range(10**4):
        hs = []
        for _ in range(4):
            k = rng.random()
            if k < 0.3:
                hs.append(mx)
            elif k < 0.45:
                hs.append(zero)
            else:
                hs.append(mp.make([rng.getrandbits(27) for _ in range(5)], 26))
        structured.append(hs)
    for hs in structured:
        r = mp.add_Rep5_Pack(*hs)
        s = sum(mp.repres(h) for h in hs)
        assert mp.repres(r) == (s & ((1 << 130) - 1)) + 5 * (s >> 130)
        worst = max(worst, r.limbs[2])
    assert worst < 2**4
    _report(8, f"limb add/mul/reduce/convert match the big-integer oracle "
               f"(1e4 each); packed top limb stayed at {worst} < 16 over "
               f"structured extremes")


@pytest.mark.wallclock
def test_criterion_9_primitive_correctness():
    t0 = time.monotonic()
    # the sampler visits every boundary length first, then random <= 4096
    runs = len((0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257)) + 10**3
    for kind in ("poly1305", "chacha20", "gimli"):
        rep = hop_difftest(corpus_chain(kind), runs=runs, seed=61, input_shape=kind)
        assert rep.ok, [p.first_counterexample for p in rep.pairs if p.failures]
    # published vectors through the DSL implementations
    from jamin.primitives.difftest import DslEntry, _execute

    poly = SHAPES["poly1305"]
    rfc_key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
    )
    case = {"msg": b"Cryptographic Forum Research Group", "key": rfc_key,
            "out": 0x1000, "in": 0x10000, "k": 0x3000}
    for name in ("poly1305_ref", "poly1305_avx2"):
        out, _ = _execute(DslEntry(name, load_program(name), "poly1305"), poly, case)
        assert out.hex() == "a8061dc1305136c6c22b8baf0c0127a9", name
    cha = SHAPES["chacha20"]
    sunscreen = (b"Ladies and Gentlemen of the class of '99: If I could offer "
                 b"you only one tip for the future, sunscreen would be it.")
    case = {"msg": sunscreen, "key": bytes(range(32)),
            "nonce": bytes.fromhex("000000000000004a00000000"), "counter": 1,
            "plain": 0x10000, "output": 0x40000, "k": 0x1000, "n": 0x2000}
    expect = cha.spec_output(case)
    assert expect[:16].hex() == "6e2e359a2568f98041ba0728dd0d6981"
    for name in ("chacha20_scalar", "chacha20_avx2_small", "chacha20_avx2_big"):
        out, _ = _execute(DslEntry(name, load_program(name), "chacha20"), cha, case)
        assert out == expect, name
    gim = SHAPES["gimli"]
    from pathlib import Path

    vec = (Path(__file__).resolve().parent.parent / "src/jamin/vectors/"
           "gimli_permutation.txt").read_text()
    inp = [int(w, 16) for w in vec.split("input: ")[1].splitlines()[0].split()]
    outw = [int(w, 16) for w in vec.split("output: ")[1].split()]
    case = {"state": b"".join(w.to_bytes(4, "little") for w in inp), "base": 0x1000}
    expect = b"".join(w.to_bytes(4, "little") for w in outw)
    for name in ("gimli_ref", "gimli_sse"):
        out, _ = _execute(DslEntry(name, load_program(name), "gimli"), gim, case)
        assert out == expect, name
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _report(9, f"spec/DSL chains agree on boundary and 1e3 random lengths; "
               f"published vectors pass ({elapsed:.0f}s)")


def test_criterion_10_mutation_sensitivity():
    from jamin.primitives.difftest import DslEntry, SpecEntry
    from test_difftest import MUTATIONS, _mutant_program

    assert len(MUTATIONS) >= 10
    for name, old, new, desc in MUTATIONS:
        info = PROGRAMS[name]
        mutant = _mutant_program(name, old, new)
        shape = SHAPES[info.kind]
        chain = [
            SpecEntry(f"{info.kind}_spec", shape.spec_output),
            DslEntry(f"{name}[{desc}]", mutant, info.entry),
        ]
        rep = hop_difftest(chain, runs=10**3, seed=23, input_shape=info.kind,
                           stop_on_failure=True)
        assert not rep.ok, f"mutation not caught: {name} {desc}"
        assert rep.runs <= 10**3
    _report(10, f"{len(MUTATIONS)} single-token corpus mutations caught by the "
                f"differential harness within 1e3 runs each")
