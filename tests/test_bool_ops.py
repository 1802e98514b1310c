"""The bool operators `!`, `&&` and `||` through every pass: typecheck,
the generated code (OpsV and Ops), safety's range refinement and
leakage's taint.  `&&` and `||` evaluate both operands (docs/lang.md),
so neither hides a branch."""

import pytest

from harness import bound_range
from test_rolled import observe
from jamin import interp, leakage, memory, safety
from jamin.expand import expand
from jamin.parser import parse
from jamin.typecheck import typecheck
from jamin.words import Word


def prep(text):
    return expand(typecheck(parse(text)))


# each guard runs the loop while i < min(n, 4)
GUARDS = ["i < n && !(i >= 4)", "!(i >= n || i >= 4)", "!(!(i < n) || 4 <= i)"]


def summing(guard: str):
    return prep(f"""
fn f(reg u64 p, reg u64 n) -> reg u64 {{
  reg u64 i, s;
  i = 0;
  s = 0;
  while ({guard}) {{
    s = s + (u64)(u8)[p + i];
    i = i + 1;
  }}
  if (s == 0 || !(i != 4)) {{ s = s + 100; }}
  return s;
}}
""")


BASE = 0x100
DATA = bytes(range(1, 9))


@pytest.mark.parametrize("guard", GUARDS)
def test_a_bool_guard_runs_alike_in_both_vector_modes(guard):
    p = summing(guard)
    m = memory.store_bytes(memory.add_region(memory.Memory(), BASE, len(DATA)), BASE, DATA)
    for n in range(7):
        (got, trace), (want, want_trace) = (observe(p, "f", [BASE, n], m, mode)
                                            for mode in (interp.OPSV, interp.OPS))
        assert got == want and trace == want_trace
        k = min(n, 4)
        s = sum(DATA[:k])
        assert got[1] == repr([Word(64, s + 100 * (s == 0 or k == 4))])
        assert sum(e is True for e in trace) == k + (s == 0 or k == 4)


@pytest.mark.parametrize("left", ["n > 0 &&", "n == 0 ||"], ids=["and", "or"])
def test_both_operands_always_evaluate(left):
    """With n = 0 the left operand alone decides the test, yet the load
    on the right runs, and faults outside every region."""
    test = f"  if ({left} (u64)[p] == 0) {{ r = 2; }}"
    p = prep(f"fn f(reg u64 n, reg u64 p) -> reg u64 {{\n  reg u64 r;\n  r = 1;\n{test}\n"
             "  return r;\n}\n")
    with pytest.raises(interp.OutOfRegion) as exc:
        interp.run(p, "f", [0, BASE], memory.Memory())
    assert exc.value.loc == (4, test.index("(u64)") + 1)


@pytest.mark.parametrize("guard", GUARDS)
def test_ranges_refine_soundly_through_bool_operators(guard):
    """Every address a run touches lies in the range safety reports for
    p, under the n of that run."""
    p = summing(guard)
    rep = safety.analyze(p, "f", ["p"], ["n"])
    assert rep.failures == [] and rep.machine_lines()[0] == "range(p) = p + [0; n)"
    m = memory.store_bytes(memory.add_region(memory.Memory(), BASE, len(DATA)), BASE, DATA)
    for n in range(7):
        lo, hi = bound_range(rep, "p", {"n": n})
        trace: list = []
        interp.run(p, "f", [BASE, n], m, trace=trace)
        offsets = [e - BASE for e in trace if type(e) is int]
        assert len(offsets) == min(n, 4)
        assert all(lo <= o < hi for o in offsets), (n, lo, hi, offsets)


@pytest.mark.parametrize("cond", ["a == 0 && !(b == 0)", "!(a == 0) || b == 0",
                                  "!(a == 0 && b == 0)"])
def test_a_branch_on_a_bool_operator_leaks_both_operands(cond):
    p = prep(f"""
fn f(reg u64 a, reg u64 b, reg u64 c) -> reg u64 {{
  reg u64 r;
  r = c;
  if ({cond}) {{ r = r + 1; }}
  return r;
}}
""")
    assert leakage.infer_public(p, "f") == {"a", "b"}
