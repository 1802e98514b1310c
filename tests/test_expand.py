import dataclasses

import pytest

from jamin import interp, leakage, memory, safety
from jamin.expand import ExpandError, expand
from jamin.ir import EArr, ECall, EInt, EVecImm, IntTy, LArr, SAssign, SFor, print_program
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_source
from jamin.typecheck import typecheck


def contract_breaches(p) -> list:
    """What expand's output must not hold, and the back ends no longer
    handle: a for loop or inline call, an immediate vector, a compile-time
    (int) node other than a literal, an array access without its storage."""
    found = []

    def walk(node):
        if isinstance(node, tuple):
            for x in node:
                walk(x)
            return
        if not dataclasses.is_dataclass(node):
            return
        k = type(node)
        if k is SFor or k is EVecImm:
            found.append(k.__name__)
        elif k is ECall and (node.name not in p.func_names() or p.func(node.name).inline):
            found.append(f"inline call {node.name}")
        elif k is not EInt and isinstance(getattr(node, "ty", None), IntTy):
            found.append(f"int {k.__name__}")
        elif (k is EArr or k is LArr) and getattr(node, "arr_storage", None) is None:
            found.append(f"untyped access to {node.name}")
        for f in dataclasses.fields(node):
            walk(getattr(node, f.name))

    for g in p.globals:
        walk(g.init)
    for f in p.funcs:
        walk(f.body)
    return found


def prep(text):
    p = expand(typecheck(parse(text)))
    assert contract_breaches(p) == []
    return p


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
global u64 m1 = 0 - 1;
global u64 m2 = 0xffffffffffffffff;
fn f() -> reg u64 {
  reg u64 t;
  t = rot_a + rot_b + other + m1 + m2;
  return t;
}
"""
    )
    assert len(p.globals) == 3
    res = interp.run(p, "f", [], memory.Memory()).results
    assert res[0].value == (0x101 + 0x101 + 3 - 2) % 2**64


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


@pytest.mark.parametrize("src", [
    "global u64 K = 0 - 1;\nfn f() -> reg u64 { reg u64 x; x = K >> 60; return x; }",
    "global u64[2] T = {0 - 1, 3};\nfn f() -> reg u64 { reg u64 x; x = T[0] >> 60; return x; }",
    "fn f() -> reg u64 { global u64 K = 0 - 1; reg u64 x; x = K >> 60; return x; }",
], ids=["program-level", "program-level-array", "local"])
def test_global_initializers_evaluate_at_their_width(src):
    res = interp.run(prep(src), "f", [], memory.Memory()).results
    assert res[0].value == 0xF


def test_global_defined_from_earlier_globals():
    p = prep(
        """
global u64 A = 0 - 1;
global u64 B = A + 2;
global u64[2] C = {B << 4, A >> 60};
fn f() -> reg u64 {
  inline int n = B + 1;
  reg u64 x;
  x = B + C[0] + C[1] + n;
  return x;
}
"""
    )
    assert interp.run(p, "f", [], memory.Memory()).results[0].value == 1 + 16 + 15 + 2


def test_local_global_merges_with_program_level_one():
    p = prep(
        """
global u64 M = 0xffffffffffffffff;
fn f() -> reg u64 {
  global u64 L = 0 - 1;
  reg u64 x;
  x = M ^ L;
  return x;
}
"""
    )
    assert [g.name for g in p.globals] == ["M"]
    assert interp.run(p, "f", [], memory.Memory()).results[0].value == 0


@pytest.mark.parametrize("decl, body", [
    ("global u64 K = 1;\n", ""),
    ("", "  global u64 K = 1;\n"),
    ("global u64 J = 2;\nglobal u64 K = J - 1;\n", ""),
], ids=["program-level", "local", "from-a-global"])
def test_globals_read_as_values_in_run_time_compile_time_nodes(decl, body):
    """`1 << K` in a run-time index is a compile-time node: it folds with
    K's value, as in an initializer."""
    p = prep(decl + "fn f(reg u64 v) -> reg u64 {\n" + body + """\
  stack u64[4] a;
  reg u64 r;
  a[1 << K] = v;
  a[(K + 1) * 2 - 1] = v + 1;
  r = a[2] + a[3];
  return r;
}
""")
    assert interp.run(p, "f", [5], memory.Memory()).results[0].value == 11


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_corpus_expansion_keeps_the_contract(name):
    prep(load_source(name))


def test_contract_breaches_are_seen():
    src = """
inline fn id(inline int i) -> reg u64 { reg u64 r; r = i; return r; }
fn f(reg u128 a) -> reg u64 {
  reg u64[4] x;
  reg u64 y;
  for i = 0 to 3 { x[i + 0] = 0; }
  y = id(1);
  a = #x86_VPSHUFD_128(a, (4u2)[0, 1, 2, 3]);
  return y;
}
"""
    assert set(contract_breaches(typecheck(parse(src)))) == {
        "SFor", "EVecImm", "inline call id", "int EVar", "int EBin"}
    assert "untyped access to x" in contract_breaches(parse(src))


UNEXPANDED = "fn f(reg u64 p) -> reg u64 { reg u64 x; x = 0; for i = 0 to 3 { x = x + i; } return x; }"


@pytest.mark.parametrize("back_end", [
    lambda p, trace: interp.run(p, "f", [0], memory.Memory(), trace=trace),
    lambda p, trace: safety.analyze(p, "f", ["p"], []),
    lambda p, trace: safety.check_safety(p, "f", ["p"]),
    lambda p, trace: safety.preanalyze(p, "f"),
    lambda p, trace: leakage.infer_public(p, "f"),
], ids=["run", "analyze", "check_safety", "preanalyze", "infer_public"])
def test_back_ends_take_only_expanded_programs(back_end):
    trace = []
    with pytest.raises(interp.ContractViolation, match="requires a program from expand"):
        back_end(typecheck(parse(UNEXPANDED)), trace)
    assert trace == []
    back_end(prep(UNEXPANDED), trace)


@pytest.mark.parametrize("src, error", [
    ("fn f() { reg u64[4] a;\n  a[1 / 0] = 1; }", "2:7: compile-time expression"),
    ("fn f() { inline int n = 1 << (0 - 1); }", "1:27: compile-time expression"),
    ("fn f(reg u128 a) {\n  a = #x86_VPSHUFD_128(a, (4u2)[0, 1, 2, 5]); }",
     "2:27: immediate element 5 does not fit u2"),
    ("global u64 K = 1 << 65;\nfn f() { }", "1:18: global K cannot be evaluated"),
    ("global u64[2] T = {1, 2};\nfn f() { stack u64[8] a;\n  a[1 << T[1]] = 1; }",
     "3:10: T is a compile-time value"),
    ("fn g() { global u64 M = 2; }\nfn f(reg u64 M) { stack u64[8] a;\n  a[1 << M] = 1; }",
     "3:7: compile-time expression"),  # f's M is not g's merged global M
], ids=["index-div-by-zero", "negative-shift", "vector-lane", "global-word-fault",
        "global-array-element", "local-named-like-a-global"])
def test_compile_time_faults_are_expansion_errors(src, error):
    with pytest.raises(ExpandError, match=error):
        prep(src)
