import dataclasses
import operator
import re

import pytest

from unroll import cases
from jamin import interp, leakage, memory, safety
from jamin.expand import ExpandError, expand
from jamin.ir import (ArrayTy, EArr, ECall, EInt, EVar, EVecImm, IntTy, SFor,
                      SReturn, print_program)
from jamin.parser import parse
from jamin.typecheck import TypecheckError, typecheck


def contract_breaches(p) -> list:
    """What expand's output must not hold, and the back ends no longer
    handle: a for loop or inline call, an immediate vector, a
    compile-time (int) node other than a literal, an array access
    without its storage, a `return` that is not the last statement of
    its function's body and a function with results whose body does not
    end in a `return`."""
    found = []
    returns = []

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
        elif k is EArr and getattr(node, "arr_storage", None) is None:
            found.append(f"untyped access to {node.name}")
        elif k is SReturn:
            returns.append(node)
        for f in dataclasses.fields(node):
            walk(getattr(node, f.name))

    for g in p.globals:
        walk(g.init)
    for f in p.funcs:
        returns.clear()
        walk(f.body)
        if any(r is not f.body[-1] for r in returns):
            found.append(f"return before the end of {f.name}")
        if f.rets and not (f.body and type(f.body[-1]) is SReturn):
            found.append(f"missing return in {f.name}")
    return found


def value_breaches(p) -> list:
    """What expand's output must not hold of the values known before the
    run: a scalar global, in `globals` or read by a variable (any read of
    a name that is neither a register or stack local of its function nor
    an array global), and a register-array or global-array index that is
    not a literal."""
    found = [f"scalar global {g.name}" for g in p.globals if not isinstance(g.ty, ArrayTy)]
    arrays = {g.name for g in p.globals if isinstance(g.ty, ArrayTy)}

    def walk(node, names):
        if isinstance(node, tuple):
            for x in node:
                walk(x, names)
            return
        if not dataclasses.is_dataclass(node):
            return
        k = type(node)
        if k is EVar and node.name not in names:
            found.append(f"read of {node.name}")
        elif k is EArr and node.arr_storage != "stack" and type(node.index) is not EInt:
            found.append(f"index of {node.name}")
        for f in dataclasses.fields(node):
            walk(getattr(node, f.name), names)

    for f in p.funcs:
        walk(f.body, arrays | {n for n, (st, _) in f.envtypes.items() if st in ("reg", "stack")})
    return found


def prep(text):
    p = expand(typecheck(parse(text)))
    assert contract_breaches(p) == []
    assert value_breaches(p) == []
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


def test_compile_time_tests_fold_with_every_operator():
    """A test of compile-time values folds (typecheck.const_eval) with
    each comparison and bool operator, so each arm is kept or pruned."""
    p = prep(
        """
param int N = 3;
fn f(reg u64 a) -> reg u64 {
  if (N != 3) { a = a + 1; }
  if (N < 3) { a = a + 2; }
  if (N <= 3) { a = a + 4; }
  if (N > 3) { a = a + 8; }
  if (N >= 3) { a = a + 16; }
  if (N == 3 && N == 2) { a = a + 32; }
  if (N == 2 || N == 3) { a = a + 64; }
  if (!true) { a = a + 128; }
  return a;
}
"""
    )
    assert print_program(p).splitlines()[1:-1] == [
        "  a = a + 4;", "  a = a + 16;", "  a = a + 64;", "  return a;"]
    assert interp.run(p, "f", [0], memory.Memory()).results[0].value == 84


def test_an_empty_for_loop_expands_to_nothing():
    p = prep("fn f(reg u64 a) -> reg u64 {\n  for i = 0 to 3 { }\n  return a;\n}\n")
    assert print_program(p).splitlines()[1:-1] == ["  return a;"]


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
    """Scalar globals are values: equal ones are no longer merged, as
    none stays in the expanded program; each read is its value."""
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
    assert p.globals == ()
    res = interp.run(p, "f", [], memory.Memory()).results
    assert res[0].value == (0x101 + 0x101 + 3 - 2) % 2**64


def test_local_global_hoisted_and_merged():
    """A local `global` is not hoisted: like a program-level one, it is
    substituted at its reads."""
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
    assert p.globals == ()
    assert interp.run(p, "f", [], memory.Memory()).results[0].value == 0x1FE


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
    """A local `global` and a program-level one of equal value are both
    substituted; neither stays in the expanded program."""
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
    assert p.globals == ()
    assert interp.run(p, "f", [], memory.Memory()).results[0].value == 0


def test_hoisted_local_global_takes_a_fresh_name():
    """A local `global` is substituted at its reads, not hoisted, so
    another function's local or parameter of the same name is
    untouched: a hoisted M once made the expanded program fail its
    re-typecheck, "'M' shadows a program-level name", although the
    source typechecks."""
    p = prep(
        """
fn g() -> reg u64 {
  global u64 M = 2;
  reg u64 r;
  r = M;
  return r;
}

fn h(reg u64 x) -> reg u64 {
  reg u64 M;
  M = x + 1;
  return M;
}

fn k(reg u64 M_1) -> reg u64 {
  global u64 M = 3;
  M_1 += M;
  return M_1;
}
"""
    )
    assert p.globals == ()
    results = [interp.run(p, f, args, memory.Memory()).results[0].value
               for f, args in (("g", []), ("h", [5]), ("k", [4]))]
    assert results == [2, 6, 7]


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


@pytest.mark.parametrize("name", sorted(cases()))
def test_corpus_expansion_keeps_the_contract(name):
    """The corpus, the planted programs and the programs of test_rolled
    expand to the contract, repeat-node bodies included: no scalar
    global is read, `globals` holds arrays
    only, and every register-array and global-array index is a literal
    (prep checks them all)."""
    prep(cases()[name])


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
    src = """
fn g(reg u64 a) -> reg u64 {
  while (a > 1) { return a; }
  a = a + 1;
}
"""
    assert set(contract_breaches(parse(src))) == {"return before the end of g", "missing return in g"}
    src = """
global u64 K = 2;
global u64[2] T = {1, K};
fn f() -> reg u64 {
  global u64 L = 1;
  reg u64[4] x;
  reg u64 y;
  for i = 0 to 1 { x[i + L] = T[K - 1]; }
  y = x[K] + L;
  return y;
}
"""
    assert set(value_breaches(typecheck(parse(src)))) == {
        "scalar global K", "read of K", "read of L", "read of i", "index of x", "index of T"}


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
    ("global u64 K = 1 << 65;\nfn f() { }", r"1:18: shift count 65 outside \[0, 64\]"),
    ("global u64[2] T = {1, 2};\nfn f() { stack u64[8] a;\n  a[1 << T[1]] = 1; }",
     "3:7: compile-time expression cannot be evaluated"),  # T[1] is read when it runs
    ("fn g() { global u64 M = 2; }\nfn f(reg u64 M) { stack u64[8] a;\n  a[1 << M] = 1; }",
     "3:7: compile-time expression"),  # f's M is a register, not g's global M
    # constant indices that only unrolling and inlining make out of bounds,
    # reported with the array's name in the source
    ("fn f() { reg u32[16] x;\n  for i = 0 to 16 { x[i] = 0; } }",
     r"2:21: index 16 outside x: u32\[16\]"),
    ("inline fn g(reg u32[4] a, inline int k) -> reg u32 {\n  reg u32 t;\n  t = a[k];\n"
     "  return t;\n}\nfn f() -> reg u32 {\n  reg u32[4] x;\n  reg u32 r;\n"
     "  for i = 0 to 3 { x[i] = i; }\n  r = g(x, 7);\n  return r;\n}",
     r"3:7: index 7 outside a: u32\[4\]"),
    ("fn f() -> reg u64 {\n  stack u8[8] b;\n  reg u64 t;\n  for i = 0 to 7 { (u8)b.[i] = 0; }\n"
     "  for i = 0 to 1 {\n    t = (u64)b.[i * 4];\n  }\n  return t;\n}",
     r"6:9: index 4 outside b: u8\[8\]"),
    ("fn f() -> reg u32 {\n  stack u8[8] b;\n  reg u32 t;\n  for i = 0 to 7 { (u8)b.[i] = 0; }\n"
     "  for i = 1 to 2 {\n    t = (u32)b[i];\n  }\n  return t;\n}",
     r"6:9: index 2 outside b: u8\[8\]"),
    # a register-array index that does not fold
    ("global u64 g = 4;\nfn f() { reg u64[4] x;\n  x[g / 0] = 1; }",
     "3:3: index of x cannot be evaluated at compile time"),
], ids=["index-div-by-zero", "negative-shift", "vector-lane", "global-word-fault",
        "global-array-element", "local-named-like-a-global", "unrolled-index",
        "inlined-index", "unrolled-byte-view", "unrolled-element-view",
        "register-index-not-folded"])
def test_compile_time_faults_are_expansion_errors(src, error):
    with pytest.raises(ExpandError, match=error):
        prep(src)


# Compile-time ints are unbounded: operands below 0 and beyond 64 bits.
INT_OPERANDS = [(2**70 + 3, -5), (-(2**65) - 1, 7), (-17, -3), (12345, 2**66 + 9)]
INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.floordiv,
           "%": operator.mod, "&": operator.and_, "|": operator.or_, "^": operator.xor,
           "<<": operator.lshift, ">>": operator.rshift}
COUNTS = [(2**70 + 3, 5), (-(2**65) - 1, 67), (-17, 0), (12345, 130)]
UNARY_OPS = {"-": operator.neg, "~": operator.invert}


def _lit(v: int) -> str:
    return str(v) if v >= 0 else f"(0 - {-v})"


def _int_cases(op):
    """(compile-time expression, its value as a Python int) per operand."""
    if op in UNARY_OPS:
        return [(f"{op}{_lit(a)}", UNARY_OPS[op](a)) for a in (2**70 + 3, -(2**65) - 1, 0)]
    pairs = COUNTS if op in ("<<", ">>") else INT_OPERANDS
    return [(f"{_lit(a)} {op} {_lit(b)}", INT_OPS[op](a, b)) for a, b in pairs]


def _int_program(kind, exprs, rets="", checks=""):
    """fn f binding the `kind` (param or inline) ints N0, N1, ... to
    `exprs`, then running `checks`."""
    decls = [f"{kind} int N{i} = {e};\n" for i, e in enumerate(exprs)]
    top, local = ("".join(decls), "") if kind == "param" else ("", "  " + "  ".join(decls))
    return f"{top}fn f() {rets}{{\n{local}{checks}}}\n"


@pytest.mark.parametrize("kind", ["param", "inline"])
@pytest.mark.parametrize("op", [*INT_OPS, "unary -", "unary ~"])
def test_int_operators_fold_as_python_ints(op, kind):
    cases = _int_cases(op.removeprefix("unary "))
    names = ", ".join(f"b{i}" for i in range(len(cases)))
    checks = "".join(f"  b{i} = N{i} == {_lit(want)};\n" for i, (_, want) in enumerate(cases))
    rets = "-> " + ", ".join(["reg bool"] * len(cases)) + " "
    src = _int_program(kind, [e for e, _ in cases], rets,
                       f"  reg bool {names};\n{checks}  return {names};\n")
    results = interp.run(prep(src), "f", [], memory.Memory()).results
    assert results == [True] * len(cases), [e for (e, _), r in zip(cases, results) if not r]


@pytest.mark.parametrize("kind", ["param", "inline"])
@pytest.mark.parametrize("expr, message", [
    ("7 / 0", "division by zero in constant expression"),
    ("7 % 0", "division by zero in constant expression"),
    ("1 << (0 - 3)", "negative shift count -3 in constant expression"),
    ("1 >> (0 - 3)", "negative shift count -3 in constant expression"),
    ("5 >>s 1", "operator >>s is not defined on compile-time ints"),
    ("5 <<r 1", "operator <<r is not defined on compile-time ints"),
    ("5 >>r 1", "operator >>r is not defined on compile-time ints"),
])
def test_int_operator_faults_keep_their_messages(expr, message, kind):
    with pytest.raises((TypecheckError, ExpandError)) as exc:
        prep(_int_program(kind, [expr]))
    assert f"({message})" in str(exc.value)
    assert re.match(r"\d+:\d+: ", str(exc.value))  # located


@pytest.mark.parametrize("src, error", [
    ("param int N = 5 +4u64 1;\nfn f() { }", "1:1: param N: not compile-time ("),
    ("fn f() {\n  inline int n = 5 +4u64 1;\n}", "2:20: f: "),
    ("fn f() {\n  inline int n = 2 * (5 +4u64 1);\n}", "2:25: f: "),
    ("fn f() {\n  for i = 0 to 5 +4u64 1 { }\n}", "2:18: f: "),
], ids=["param", "inline", "nested", "for-bound"])
def test_lane_operator_on_compile_time_ints_is_rejected(src, error):
    with pytest.raises(TypecheckError) as exc:
        prep(src)
    assert str(exc.value).startswith(f"{error}lane operator +4u64 on compile-time ints")


def test_inline_result_is_resized_to_its_destination():
    """A u32 result moved into a u64 is computed at 32 bits, then zero-extended."""
    p = prep("inline fn g(reg u32 a) -> reg u32 {\n  return a + 1;\n}\n"
             "fn f(reg u64 x) -> reg u64 {\n  reg u64 r;\n  r = g(x);\n  return r;\n}")
    assert "r = (u64)(a__i1 + 1);" in print_program(p)
    assert [w.value for w in interp.run(p, "f", [0xFFFFFFFF], memory.Memory()).results] == [0]
