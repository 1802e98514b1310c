import random
import re
from collections import Counter

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
    assert v.witness.kind == "branch"
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
    assert v.witness.kind == "addr" and all(type(e) is int for e in v.witness.events)
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


@pytest.mark.parametrize("secure", [True, False])
def test_ct_check_calls_per_trial(monkeypatch, secure):
    """Per trial ct_check calls build_inputs once, through the module
    attribute, run_instrumented twice, each making one interp.run, and
    LeakTrace.first_divergence once: perfbench's traced run wraps these
    names and checks its span counts against the trials."""
    calls = Counter()

    def count(owner, name, inner=None):
        f = getattr(owner, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            before = calls[inner]
            out = f(*args, **kw)
            if inner:
                calls[name, inner] += calls[inner] - before == 1
            return out
        monkeypatch.setattr(owner, name, wrapper)

    count(interp, "run")
    count(leakage, "build_inputs")
    count(leakage, "run_instrumented", inner="run")
    count(leakage.LeakTrace, "first_divergence")
    spec = PublicSpec.of(["p", "s"] if secure else ["p"])
    v = ct_check(SECRET_BRANCH, "f", spec, trials=50, seed=11, shape={"s": Val(64), "p": Val(64)})
    assert v.secure == secure
    n = v.trials
    assert n == (50 if secure else 4)  # seed 11 finds the witness at trial 3
    assert calls == Counter({"build_inputs": n, "run_instrumented": 2 * n, "run": 2 * n,
                             ("run_instrumented", "run"): 2 * n, "first_divergence": n})


@pytest.mark.parametrize("params, shape, spec, name, message", [
    ("reg u16 p, reg u64 n", {"p": Ptr("n"), "n": Len(max=8)}, PublicSpec.of([]), "p",
     "parameter 'p' is u16, too narrow for region addresses up to 0x110108"),
    ("reg u64 p, reg u8 n", {"p": Ptr("n"), "n": Len(max=300)}, PublicSpec.of([], ["zz"]), "zz",
     "'zz' is not a parameter of f"),
    ("reg u64 p, reg u8 n", {"p": Ptr("n"), "n": Len(max=300)}, PublicSpec.of(["p"]), "n",
     "parameter 'n' is u8, which holds at most 255"),
    ("reg u64 p, reg u64 m", {"p": Ptr("m")}, PublicSpec.of(["p", "m"]), "p",
     "parameter 'p' is sized by 'm', which is not a Len parameter"),
    ("reg u64 s", {"s": Val(64), "zz": Val(64)}, PublicSpec.of([]), "zz",
     "'zz' is not a parameter of f"),
    ("reg u64 s", {"s": Val(64)}, PublicSpec.of(["s", "zz"]), "zz",
     "'zz' is not a parameter of f"),
    ("reg u64 s, reg bool b", {"s": Val(64)}, PublicSpec.of([]), "b",
     "parameter 'b' is bool; ct samples word parameters only"),
    ("reg u64[2] x", {}, PublicSpec.of([]), "x",
     "parameter 'x' is u64[2]; ct samples word parameters only"),
    ("reg u64 s, reg u64 p", {"p": Ptr(8)}, PublicSpec.of(["p"], ["s"]), "s",
     "parameter 's' has no Ptr region"),
    ("reg u64 p, reg u64 q", {"p": Ptr(1 << 25), "q": Ptr((1 << 25) + 1)}, PublicSpec.of([]),
     "q", "regions of up to 67108865 bytes exceed 64 MiB together"),
    ("reg u64 p, reg u64 s", {"p": Ptr(-5)}, PublicSpec.of(["p"]), "p",
     "parameter 'p' has a negative byte count: Ptr(size=-5)"),
    ("reg u64 p, reg u64 n", {"p": Ptr("n"), "n": Len(max=-1)}, PublicSpec.of(["p"]), "n",
     "parameter 'n' has a negative byte count: Len(max=-1)"),
    ("reg u64 s", {"s": Val(-5)}, PublicSpec.of([]), "s",
     "parameter 's' is u64, which cannot take Val(width=-5)"),
    ("reg u64 p, reg u64 s", {"s": Val(-1)}, PublicSpec.of(["s"]), "s",
     "parameter 's' is u64, which cannot take Val(width=-1)"),
    ("reg u64 s", {"s": Val(128)}, PublicSpec.of([]), "s",
     "parameter 's' is u64, which cannot take Val(width=128)"),
    ("reg u64 p, reg u8 s", {"s": Val(9)}, PublicSpec.of(["s"]), "s",
     "parameter 's' is u8, which cannot take Val(width=9)"),
], ids=["ptr-u16", "len-past-u8-and-unknown-region", "len-past-u8", "ptr-sized-by-no-len",
        "unknown-shape-key", "unknown-public", "bool", "array", "public-region-without-ptr",
        "regions-past-max-bytes", "negative-ptr", "negative-len", "negative-val",
        "negative-public-val", "val-past-u64", "public-val-past-u8"])
def test_ct_check_refuses_a_shape_the_entry_cannot_take(monkeypatch, params, shape, spec, name,
                                                        message):
    """ct_check and build_inputs check the shape and spec against the
    entry's parameters, whoever calls them: a bad one raises ShapeError,
    naming the parameter, before any trial runs and before any draw."""
    p = prep(f"fn f({params}) -> reg u64 {{\n  reg u64 t;\n  t = 0;\n  return t;\n}}\n")
    calls = Counter()
    for fname in ("build_inputs", "run_instrumented"):
        monkeypatch.setattr(leakage, fname, lambda *a, _n=fname, **kw: calls.update([_n]))
    with pytest.raises(leakage.ShapeError) as exc:
        ct_check(p, "f", spec, trials=3, seed=1, shape=shape)
    assert (str(exc.value), exc.value.name) == (message, name)
    assert not calls
    monkeypatch.undo()
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(leakage.ShapeError, match=f"^{re.escape(message)}$"):
        leakage.build_inputs(p, "f", shape, spec, rng)
    assert rng.getstate() == state


def test_an_unshaped_word_parameter_is_a_val_of_its_width():
    """A word parameter the shape leaves out is drawn as a Val of its
    width, with the draws of that shape written out."""
    p = prep("fn f(reg u32 x, reg u64 y) -> reg u64 {\n  reg u64 t;\n  t = y;\n  return t;\n}\n")
    spec = PublicSpec.of(["x"])
    for seed in range(20):
        got = leakage.build_inputs(p, "f", {}, spec, random.Random(seed))
        assert got == leakage.build_inputs(p, "f", {"x": Val(32), "y": Val(64)}, spec,
                                           random.Random(seed))
        assert got[0]["x"] < 1 << 32
    assert ct_check(p, "f", spec, trials=20, seed=1, shape={}).secure


def test_build_inputs_follows_a_changed_shape():
    """build_inputs derives its parameter plan once per entry, shape and
    spec; a shape dict changed in place, another spec or another program
    gets a plan of its own, and the draws are those of a fresh plan."""
    p = prep("""
fn f(reg u64 p, reg u64 n, reg u64 w) -> reg u64 {
  reg u64 x;
  x = w;
  if (n > 0) { x = (u64)(u8)[p + 0]; }
  return x;
}
""")
    shape = {"p": Ptr("n"), "n": Len(max=300), "w": Val(64)}
    spec = PublicSpec.of(["p", "n"])

    def fresh(shape, spec, seed):
        leakage._last_plan = None
        return leakage.build_inputs(p, "f", shape, spec, random.Random(seed))

    for seed in range(20):
        want = fresh(shape, spec, seed)
        assert leakage.build_inputs(p, "f", shape, spec, random.Random(seed)) == want
        assert leakage.build_inputs(p, "f", dict(shape), spec, random.Random(seed)) == want
    shape["n"] = Len(max=3)
    for seed in range(20):
        got = leakage.build_inputs(p, "f", shape, spec, random.Random(seed))
        assert got[0]["n"] <= 3 and got == fresh(shape, spec, seed)
    other = PublicSpec.of(["p", "n", "w"])
    got = leakage.build_inputs(p, "f", shape, other, random.Random(1))
    assert "w" in got[0] and "w" not in got[3]
    leakage.build_inputs(SECRET_BRANCH, "f", {"s": Val(64), "p": Val(64)}, PublicSpec.of(["p"]),
                         random.Random(1))


def test_run_refuses_an_unknown_entry_with_its_message():
    with pytest.raises(interp.ContractViolation) as exc:
        interp.run(SECRET_BRANCH, "g", [1, 2], memory.Memory())
    assert str(exc.value) == "no entry function 'g' (inline functions are expanded away)"
    p = prep("inline fn g(reg u64 x) -> reg u64 { return x; }\n"
             "fn f(reg u64 x) -> reg u64 { x = g(x); return x; }")
    with pytest.raises(interp.ContractViolation) as exc:
        interp.run(p, "g", [1], memory.Memory())
    assert str(exc.value) == "no entry function 'g' (inline functions are expanded away)"


# One probe per row of the leakage table (ir.leaks): the secret s reaches
# that construct and no other, so only that row can make the program leak.
ROW_PROBES = {
    "load-address": ("addr", "r = (u64)(u8)[p + (s & 7)];"),
    "store-address": ("addr", "(u8)[p + (s & 7)] = 1;"),
    "computed-index": ("addr", "t[s & 7] = 1;"),
    "if-test": ("branch", "if (s == 0) { r = 1; }"),
    "while-test": ("branch", "while (r < (s & 3)) { r = r + 1; }"),
    "else-if-test": ("branch", "if (a == 0) { r = 1; } else if (s == 0) { r = 2; }"),
    "division": ("division", "r = a / (s | 1);"),
    "remainder": ("division", "r = a % (s | 1);"),
    "x86-div": ("division", "_, _, _, _, _, r, q = #x86_DIV_64(0, a, s | 1);"),
}


@pytest.mark.parametrize("probe", sorted(ROW_PROBES))
def test_each_row_of_the_leakage_table_leaks(probe):
    """For each row, ct_check finds a witness of the row's kind and
    infer_public names the secret: the runtime emitters and the taint
    analysis each hold every row of the one table."""
    kind, stmt = ROW_PROBES[probe]
    p = prep(f"""
fn f(reg u64 p, reg u64 a, reg u64 s) -> reg u64 {{
  reg u64 r, q;
  stack u64[8] t;
  r = 0;
  q = 0;
  {stmt}
  r = r + q;
  return r;
}}
""")
    spec = PublicSpec.of(["p", "a"], ["p"])
    v = ct_check(p, "f", spec, trials=200, seed=1, shape={"p": Ptr(8)})
    assert v.kind == "insecure" and v.witness.kind == kind, (v.kind, v.witness)
    assert "s" in infer_public(p, "f")
