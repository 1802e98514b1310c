import pytest

from jamin.expand import ExpandError, expand
from jamin.ir import SAssign, SFor, print_program
from jamin.parser import parse
from jamin.typecheck import typecheck


def prep(text):
    return expand(typecheck(parse(text)))


def test_for_unrolls_to_four_assignments():
    p = prep("fn h() { reg u64[4] x; for i = 0 to 3 { x[i] = 0; } }")
    body = p.func("h").body
    assert len(body) == 5
    assert not any(isinstance(s, SFor) for s in body)


def test_param_substitution():
    p = prep(
        """
param int N = 2;
fn f() -> reg u64 {
  reg u64[2] x;
  for i = 0 to N - 1 { x[i] = i; }
  reg u64 t;
  t = x[N - 1];
  return t;
}
"""
    )
    assert p.params == ()
    assert len(p.func("f").body) == 6  # two decls, two unrolled stores, load, return


def test_constant_if_pruned():
    p = prep(
        """
fn f() -> reg u64 {
  reg u64 acc;
  acc = 0;
  for r = 0 to 7 {
    inline int round = 8 - r;
    if (round % 4 == 0) { acc = acc + 1; }
    if (round % 4 == 2) { acc = acc + 100; }
  }
  return acc;
}
"""
    )
    from jamin import interp, memory

    res = interp.run(p, "f", [], memory.Memory()).results
    assert res[0].value == 202


def test_inline_call_with_compile_time_args():
    p = prep(
        """
inline fn put(reg u64[4] x, inline int i, reg u64 v) -> reg u64[4] {
  x[i] = v;
  return x;
}
fn f() -> reg u64 {
  reg u64[4] x;
  x = put(x, 0, 7);
  x = put(x, 3, 9);
  reg u64 t;
  t = x[0] + x[3];
  return t;
}
"""
    )
    assert p.func_names() == ["f"]  # inline helpers are gone
    from jamin import interp, memory

    res = interp.run(p, "f", [], memory.Memory()).results
    assert res[0].value == 16


def test_globals_with_equal_values_merged():
    p = prep(
        """
global u64 rot_a = (1 << 8) | 1;
global u64 rot_b = 0x101;
global u64 other = 3;
fn f() -> reg u64 {
  reg u64 t;
  t = rot_a + rot_b + other;
  return t;
}
"""
    )
    assert len(p.globals) == 2
    from jamin import interp, memory

    res = interp.run(p, "f", [], memory.Memory()).results
    assert res[0].value == 0x101 + 0x101 + 3


def test_local_global_hoisted_and_merged():
    p = prep(
        """
global u64 mask = 0xff;
fn f() -> reg u64 {
  global u64 m2 = 0xff;
  reg u64 t;
  t = mask + m2;
  return t;
}
"""
    )
    assert len(p.globals) == 1


def test_expand_idempotent():
    from jamin.primitives.corpus import PROGRAMS, load_source

    for name in ("poly1305_ref", "gimli_sse", "chacha20_scalar"):
        p = prep(load_source(name))
        assert expand(p) == p


def test_unroll_bound():
    src = "fn f() { reg u64 x; for i = 0 to 70000 { x = 0; } }"
    with pytest.raises(ExpandError, match="unroll"):
        prep(src)


def test_non_constant_for_bound():
    src = "fn f(reg u64 n) { reg u64 x; for i = 0 to n { x = 0; } }"
    with pytest.raises(Exception):
        prep(src)


def test_expanded_equals_hand_unrolled():
    from jamin import interp, memory

    unrolled = prep(
        """
fn f(reg u64 a) -> reg u64 {
  a = a + 1; a = a + 2; a = a + 3;
  return a;
}
"""
    )
    looped = prep(
        """
fn f(reg u64 a) -> reg u64 {
  for i = 1 to 3 { a = a + i; }
  return a;
}
"""
    )
    for v in (0, 17, 2**64 - 1):
        r1 = interp.run(unrolled, "f", [v], memory.Memory()).results
        r2 = interp.run(looped, "f", [v], memory.Memory()).results
        assert r1 == r2
