import random

import pytest

from jamin import interp, leakage, memory
from jamin.expand import expand
from jamin.leakage import (
    Len,
    PublicSpec,
    Ptr,
    Val,
    ct_check,
    covered_by,
    infer_public,
    run_instrumented,
)
from jamin.parser import parse
from jamin.typecheck import typecheck


def prep(text):
    return expand(typecheck(parse(text)))


STORE2 = prep(
    """
fn store2(reg u64 p, reg u64[2] x) {
  [p + 0] = x[0];
  [p + 8] = x[1];
}
"""
)


def test_store2_trace_matches_instrumented_semantics():
    rng = random.Random(0)
    for _ in range(100):
        p = rng.randrange(0x1000, 0xFFFF) & ~0xF
        m = memory.add_region(memory.Memory(), p, 16)
        _, _, tr = run_instrumented(STORE2, "store2", [p, [7, 9]], m)
        assert tr.events == [0, p + 0, 1, p + 8]


def test_branch_events():
    p = prep(
        """
fn f(reg u64 x) -> reg u64 {
  reg u64 r;
  r = 0;
  if (x == 0) { r = 1; }
  return r;
}
"""
    )
    _, _, tr = run_instrumented(p, "f", [0], memory.Memory())
    assert len(tr.events) == 1 and tr.events[0] is True
    _, _, tr = run_instrumented(p, "f", [5], memory.Memory())
    assert len(tr.events) == 1 and tr.events[0] is False


def test_straight_line_trace_is_input_independent():
    p = prep(
        """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  a = a + b;
  a = a * 31;
  a = a ^ b;
  return a;
}
"""
    )
    traces = []
    for args in ([1, 2], [2**64 - 1, 12345]):
        _, _, tr = run_instrumented(p, "f", args, memory.Memory())
        traces.append(tr.events)
    assert traces[0] == traces[1] == []


def test_instrumentation_transparency():
    p = prep(
        """
fn f(reg u64 p) -> reg u64 {
  reg u64 t;
  t = [p + 0];
  t = t + 1;
  [p + 0] = t;
  return t;
}
"""
    )
    m = memory.add_region(memory.Memory(), 64, 8)
    m = memory.store_bytes(m, 64, (41).to_bytes(8, "little"))
    plain = interp.run(p, "f", [64], m)
    inst = run_instrumented(p, "f", [64], m)
    assert plain[0] == inst[0]
    assert memory.dump(plain[1]) == memory.dump(inst[1])


SECRET_BRANCH = prep(
    """
fn f(reg u64 s, reg u64 p) -> reg u64 {
  reg u64 r;
  r = 0;
  if (s == 0) { r = 1; }
  return r;
}
"""
)


def test_ct_check_catches_secret_branch():
    spec = PublicSpec.of(["p"])
    shape = {"s": Val(64), "p": Val(64)}
    v = ct_check(SECRET_BRANCH, "f", spec, trials=1000, seed=3, shape=shape)
    assert v.kind == "insecure"
    assert v.witness is not None
    assert v.witness.events[0] != v.witness.events[1]
    assert "s" in infer_public(SECRET_BRANCH, "f")


def test_runs_of_different_lengths_part_at_a_branch():
    """With a secret loop count neither trace is a prefix of the other:
    they part at the test that ends the shorter run's loop."""
    p = prep("""
fn f(reg u64 s) -> reg u64 {
  reg u64 i;
  i = 0;
  while (i < (s & 3)) { i = i + 1; }
  return i;
}
""")
    v = ct_check(p, "f", PublicSpec.of([]), trials=100, seed=1, shape={"s": Val(64)})
    assert v.kind == "insecure"
    assert sorted(v.witness.events) == [False, True]
    assert all(type(e) is bool for e in v.witness.events)


def test_a_secret_length_takes_one_value_per_trial():
    """A length left out of the public set is sampled once per trial, so
    a loop it bounds is no witness; infer_public still names it."""
    p = prep("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, s;
  i = 0;
  s = 0;
  while (i < n) { s = s + (u64)(u8)[p + i]; i = i + 1; }
  return s;
}
""")
    spec = PublicSpec.of(["p"])
    v = ct_check(p, "f", spec, trials=200, seed=1, shape={"p": Ptr("n"), "n": Len(max=16)})
    assert v.secure and v.trials == 200
    assert infer_public(p, "f") == {"p", "n"}
    assert not covered_by(infer_public(p, "f"), spec)


def test_ct_check_needs_a_trial():
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        ct_check(SECRET_BRANCH, "f", PublicSpec.of(["p"]), trials=0, seed=1,
                 shape={"s": Val(64), "p": Val(64)})


def test_a_load_through_an_unknown_pointer_may_read_every_region():
    """`[a]`, with a loaded, may read any region: what was stored into p
    (k) leaks with it.  A load from a public region leaks nothing secret."""
    p = prep("""
fn f(reg u64 p, reg u64 q, reg u64 k) -> reg u64 {
  reg u64 a, r;
  [p] = k;
  a = [q];
  r = [a];
  if (r == 0) { r = 1; }
  return r;
}
""")
    assert infer_public(p, "f") == {"k", "mem[?]", "mem[p]", "mem[q]", "p", "q"}
    known = prep("""
fn f(reg u64 p, reg u64 q, reg u64 k) -> reg u64 {
  reg u64 r;
  [p] = k;
  r = [q];
  if (r == 0) { r = 1; }
  return r;
}
""")
    inferred = infer_public(known, "f")
    assert inferred == {"mem[q]", "p", "q"}
    assert covered_by(inferred, PublicSpec.of(["p", "q"], public_regions=["q"]))
    assert not covered_by(inferred, PublicSpec.of(["p", "q"]))


def test_ct_check_catches_secret_address():
    p = prep(
        """
fn f(reg u64 base, reg u64 s) -> reg u64 {
  reg u64 r;
  r = (u8)[base + (s & 0xf)];
  return r;
}
"""
    )
    spec = PublicSpec.of(["base"], public_regions=["base"])
    shape = {"base": Ptr(16), "s": Val(64)}
    v = ct_check(p, "f", spec, trials=1000, seed=3, shape=shape)
    assert v.kind == "insecure"
    assert "s" in infer_public(p, "f")


def test_ct_check_secure_program_and_coverage_link():
    p = prep(
        """
fn f(reg u64 p, reg u64 s) {
  [p + 0] = s;
}
"""
    )
    spec = PublicSpec.of(["p"])
    shape = {"p": Ptr(8), "s": Val(64)}
    inferred = infer_public(p, "f")
    assert covered_by(inferred, spec)
    v = ct_check(p, "f", spec, trials=2000, seed=9, shape=shape)
    assert v.secure


def test_secret_memory_contents_as_address_detected():
    p = prep(
        """
fn f(reg u64 tab, reg u64 key) -> reg u64 {
  reg u64 i, r;
  i = (u8)[key + 0];
  r = (u8)[tab + (i & 0x7)];
  return r;
}
"""
    )
    # contents of the key region are secret; its address is public
    spec = PublicSpec.of(["tab", "key"], public_regions=["tab"])
    shape = {"tab": Ptr(8), "key": Ptr(1)}
    inferred = infer_public(p, "f")
    assert "mem[key]" in inferred
    assert not covered_by(inferred, spec)
    v = ct_check(p, "f", spec, trials=1000, seed=11, shape=shape)
    assert v.kind == "insecure"


def test_len_like_loop_is_public_secret_data_fine():
    p = prep(
        """
fn f(reg u64 src, reg u64 n, reg u64 acc) -> reg u64 {
  while (0 < n) {
    reg u64 t;
    t = (u8)[src + 0];
    acc = acc + t;
    src = src + 1;
    n = n - 1;
  }
  return acc;
}
"""
    )
    inferred = infer_public(p, "f")
    assert inferred == frozenset({"src", "n"})
    spec = PublicSpec.of(["src", "n"])
    shape = {"src": Ptr("n"), "n": Len(max=64), "acc": Val(64)}
    v = ct_check(p, "f", spec, trials=500, seed=13, shape=shape)
    assert v.secure


def test_cmov_does_not_leak():
    p = prep(
        """
fn f(reg u64 s, reg u64 a, reg u64 b) -> reg u64 {
  reg bool c;
  reg u64 r;
  c = s == 0;
  r = a;
  r = b if c;
  return r;
}
"""
    )
    assert infer_public(p, "f") == frozenset()
    spec = PublicSpec.of([])
    shape = {"s": Val(64), "a": Val(64), "b": Val(64)}
    v = ct_check(p, "f", spec, trials=500, seed=17, shape=shape)
    assert v.secure


def test_verdict_reports_safety_error():
    p = prep("fn f(reg u64 s) -> reg u64 { s = 1 / (s & 1); return s; }")
    v = ct_check(p, "f", PublicSpec.of([]), trials=50, seed=1, shape={"s": Val(64)})
    assert v.kind == "error"
    assert "DivByZero" in v.error


def test_corpus_declared_specs_inferred_and_covered():
    from jamin.primitives.corpus import PROGRAMS, load_program

    for name, info in PROGRAMS.items():
        p = load_program(name)
        inferred = infer_public(p, info.entry)
        assert covered_by(inferred, info.public), (name, inferred)
        # key and message bytes never reach the trace
        assert not any(t.startswith("mem[") for t in inferred), (name, inferred)


CALLEE_ARMS = """
fn g(reg u64 k, reg u64 c) -> reg u64 {
  reg u64 r;
  if (c < 0x8000000000000000) { r = FIRST; } else { r = SECOND; }
  return r;
}
fn f(reg u64 p, reg u64 k, reg u64 c) -> reg u64 {
  reg u64 y, z;
  y = g(k, c);
  y = y & 15;
  z = (u8)[p + y];
  return z;
}
"""


@pytest.mark.parametrize("first, second", [("k", "c"), ("c", "k")])
def test_infer_public_joins_both_arms_of_a_callee(first, second):
    """Whichever arm of g's `if` returns k, k indexes memory in f, so it
    reaches the trace, and ct_check finds the leak when only p and c
    are public."""
    p = prep(CALLEE_ARMS.replace("FIRST", first).replace("SECOND", second))
    inferred = infer_public(p, "f")
    assert inferred == frozenset({"p", "k", "c"})
    spec = PublicSpec.of(["p", "c"])
    assert not covered_by(inferred, spec)
    shape = {"p": Ptr(16), "k": Val(64), "c": Val(64)}
    assert ct_check(p, "f", spec, trials=100, seed=1, shape=shape).kind == "insecure"


BRANCHY = prep("""
fn g(reg u64 x) -> reg bool {
  reg bool c;
  c = x < 5;
  return c;
}

fn f(reg u64 x, reg u64 y, reg bool b) -> reg u64 {
  reg u64 r, i, t;
  reg bool of, cf, sf, pf, zf, c;
  r = 0;
  if (x == y) { r = r + 1; }
  of, cf, sf, pf, zf, t = #x86_ADD_64(x, y);
  if (of) { r = r + 1; }
  if (cf) { r = r + 1; } else if (sf) { r = r + 2; } else if (pf) { r = r + 3; }
  if (zf) { r = r + 1; }
  of, cf, sf, pf, zf, t = #x86_SUB_64(x, y);
  if (of) { r = r + 1; } else if (cf) { r = r + 2; } else if (zf) { r = r + 3; }
  of, cf, sf, pf, zf, t = #x86_AND_64(x, y);
  if (zf) { r = r + 1; } else if (b) { r = r + 2; } else if (!b) { r = r + 3; }
  if (b) { r = r + 1; }
  c = true;
  if (c) { r = r + 1; }
  c = false;
  if (c) { r = r + 1; } else if (!(x < y)) { r = r + 2; }
  if (b && x < y) { r = r + 1; }
  if (b || zf) { r = r + 1; } else if (zf && !b) { r = r + 2; }
  c = g(x);
  if (c) { r = r + 1; }
  i = 0;
  while (i < (x & 3)) { i = i + 1; }
  while (!(i == 5) && b) { i = i + 1; }
  for t = 0 to 2 { if (t == y) { r = r + 1; } }
  return r;
}
""")


@pytest.mark.parametrize("mode", [interp.OPSV, interp.OPS])
def test_every_branch_event_is_a_bool(mode):
    """An event is the value observed, told apart only by its type, so
    each branch outcome must be a bool: an int 0 or 1 would read as an
    address.  Tests of every kind of bool value, in if, while and
    else-if, on inputs that take many paths."""
    seen = set()
    for x in (0, 1, 2, 5, 7, (1 << 63) - 1, 1 << 63, (1 << 64) - 1):
        for y in (0, 1, 7, 1 << 63, (1 << 64) - 1):
            for b in (False, True):
                trace: list = []
                interp.run(BRANCHY, "f", [x, y, b], memory.Memory(), trace=trace,
                           vector_mode=mode)
                assert trace and all(type(e) is bool for e in trace), (x, y, b, trace)
                seen.add(tuple(trace))
    assert len(seen) > 20
