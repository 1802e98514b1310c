"""Assignment destinations through every pass.

A destination is written as the access that reads the same place (`a`,
`a[i]`, `(u32)s[i]`, `(u32)s.[i]`, `[p]`, `(u8)[p]`) or as `_`.  These
tests run each destination form through the parser, typecheck, the
generated code (OpsV and Ops), safety and leakage, including the forms
the corpus never writes: a declaration's initializer, a compound
assignment to a computed stack element, a multi-destination intrinsic
that writes an element and memory, `_ = e;` and array results of a
non-inline call.
"""

import pytest

from jamin import interp, ir, leakage, memory, safety
from jamin.expand import expand
from jamin.ir import print_program
from jamin.leakage import Ptr, PublicSpec, Val
from jamin.parser import parse
from jamin.typecheck import TypecheckError, typecheck

from test_parser import roundtrip
from test_rolled import observe

MODES = (interp.OPSV, interp.OPS)


def prep(text):
    return expand(typecheck(parse(text)))


def run(p, args, mem=None, mode=interp.OPSV):
    return interp.run(p, "f", args, mem if mem is not None else memory.Memory(),
                      vector_mode=mode)


def region(base, length, data=b""):
    return memory.store_bytes(memory.add_region(memory.Memory(), base, length), base, data)


# ------------------------------------------------------------ parser

FORMS = ["a", "s[i]", "s.[i]", "(u32)s[i]", "(u32)s.[i]", "[p]", "[p + 8]", "(u8)[p]",
         "(u16)[p + i]"]


@pytest.mark.parametrize("form", FORMS)
def test_destination_parses_as_the_access_that_reads_it(form):
    s = parse(f"fn f() {{\n  {form} = {form};\n}}\n").funcs[0].body[0]
    assert s.dests[0] == s.rhs
    assert s.dests[0].loc == (2, 3)


def test_every_destination_form_prints_and_parses_back():
    p = roundtrip("fn f(reg u64 p, reg u64 a, reg u64 i) {\n"
                  "  stack u64[4] s;\n  reg bool cf;\n"
                  + "".join(f"  {form} = a;\n" for form in FORMS)
                  + "  _ = a;\n  s[i] += a;\n  a ^= s[1];\n  a = a if cf;\n"
                  "  _, cf, _, _, _, (u64)[p + 16] = #x86_ADD_64(a, s.[3]);\n}\n")
    assert print_program(p).count(" = a;\n") == len(FORMS) + 1


# --------------------------------------------------- declarations with an initializer

DECL = """
fn f(reg u64 p, reg u64 a) -> reg u64 {
  reg u64 x = a + 1;
  reg u8 y = x;
  reg u64 z = [p + (u64)y];
  reg u64 r;
  r = x + (u64)y;
  r = r + z;
  return r;
}
"""
TABLE = bytes(range(256)) + bytes(7)


@pytest.mark.parametrize("mode", MODES)
def test_declaration_initializers_run(mode):
    p = prep(DECL)
    mem = region(0x100, len(TABLE), TABLE)
    for a in (0x1FF, 0x206, 2**64 - 1):
        x = (a + 1) % 2**64
        y = x & 0xFF
        z = int.from_bytes(TABLE[y:y + 8], "little")
        assert run(p, [0x100, a], mem, mode).results[0].value == (x + y + z) % 2**64


def test_declaration_initializers_under_safety_and_leakage():
    p = prep(DECL)
    rep = safety.analyze(p, "f", ["p"], [])
    assert rep.machine_lines() == ["range(p) = p + [0; 263)"]
    assert rep.findings == []
    assert leakage.infer_public(p, "f") == {"p", "a"}  # a reaches the address through x, y
    shape = {"p": Ptr(len(TABLE)), "a": Val(64)}
    assert leakage.ct_check(p, "f", PublicSpec.of(["p", "a"]), 50, 1, shape).secure
    assert leakage.ct_check(p, "f", PublicSpec.of(["p"]), 50, 1, shape).kind == "insecure"


def test_declaration_reading_itself_is_maybe_uninit():
    p = prep("fn f(reg u64 a) -> reg u64 {\n  reg u64 x = x + 1;\n  return x;\n}\n")
    assert [str(f) for f in safety.check_safety(p, "f")] == [
        "maybe-uninit at 2:15: x may be read before assignment"]
    with pytest.raises(interp.UninitializedUse, match="2:15: use of uninitialized x"):
        run(p, [1])


# ------------------------------------------- compound assignment to an element

ELEMENT = """
fn f(reg u64 n) -> reg u64 {
  stack u64[4] s;
  reg u64 i, r;
  s[0] = 1; s[1] = 2; s[2] = 3; s[3] = 4;
  s[n] += 10;
  i = 0;
  while (i < 4) {
    s[i] ^= 1;
    i = i + 1;
  }
  r = s[0] + s[1];
  return r;
}
"""


def test_compound_element_store_runs_and_is_bounds_checked():
    p = prep(ELEMENT)
    for mode in MODES:
        assert run(p, [0], mode=mode).results[0].value == (11 ^ 1) + (2 ^ 1)
        assert run(p, [1], mode=mode).results[0].value == (1 ^ 1) + (12 ^ 1)
        with pytest.raises(interp.OutOfBoundsArray):
            run(p, [4], mode=mode)
    # the store in the loop stays in bounds; the one at s[n] may not
    assert [str(f) for f in safety.check_safety(p, "f")] == [
        "array-bounds at 6:3: index into s may leave its bounds"]


def test_compound_element_store_runs_as_written_out():
    """`s[n] += 10` runs as `s[n] = s[n] + 10`: the same results, memory,
    steps and trace, or the same fault and trace, the compound form's at
    the statement, which reads the element."""
    p = prep(ELEMENT)
    q = prep(ELEMENT.replace("s[n] += 10", "s[n] = s[n] + 10")
             .replace("s[i] ^= 1", "s[i] = s[i] ^ 1"))
    for mode in MODES:
        for n in range(5):
            (got, trace), (want, want_trace) = (observe(x, "f", [n], memory.Memory(), mode)
                                                for x in (p, q))
            assert trace == want_trace
            if n < 4:
                assert got == want
            else:
                assert got[:2] == want[:2] == ("fault", "OutOfBoundsArray")
                assert (got[3], want[3]) == ((6, 3), (6, 10))


@pytest.mark.parametrize("op", ["<<", ">>"])
def test_a_lane_shift_compound_runs_as_written_out(op):
    """`v <<4u64= 3` shifts each 64-bit lane of v by the u8 count 3, as
    `v = v <<4u64 3` does."""
    text = f"fn f(reg u256 v) -> reg u256 {{\n  v {op}4u64= 3;\n  return v;\n}}\n"
    p = prep(text)
    q = prep(text.replace(f"v {op}4u64= 3", f"v = v {op}4u64 3"))
    lanes = [0x10, 0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF, 0x8000000000000001]
    v = sum(x << (64 * i) for i, x in enumerate(lanes))
    mask = (1 << 64) - 1
    want = sum(((x << 3 if op == "<<" else x >> 3) & mask) << (64 * i)
               for i, x in enumerate(lanes))
    for mode in MODES:
        assert run(p, [v], mode=mode).results == run(q, [v], mode=mode).results
        assert run(p, [v], mode=mode).results[0].value == want


# A compound assignment is its written-out form, guard included:
# `d op= e if c` is `d = d op e if c`.
GUARDED = """
fn f(reg u64 a, reg u64 c) -> reg u64 {
  stack u64[4] s;
  reg u64 x, i;
  x = 1;
  x += a if c > 0;
  i = 4;
  i -= 1 if c > 0;
  s[i] = x;
  return x;
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_guarded_compound_assignment_honours_its_guard(mode):
    p = prep(GUARDED.replace("  s[i] = x;\n", ""))
    assert [run(p, [5, c], mode=mode).results[0].value for c in (0, 1)] == [1, 6]
    p = prep(GUARDED)
    assert run(p, [5, 1], mode=mode).results[0].value == 6
    with pytest.raises(interp.OutOfBoundsArray):
        run(p, [5, 0], mode=mode)


def test_guarded_compound_assignment_is_analyzed_as_written_out():
    p = prep(GUARDED)
    q = prep(GUARDED.replace("x += a", "x = x + a").replace("i -= 1", "i = i - 1"))
    findings = safety.check_safety(p, "f")
    assert [str(f) for f in findings] == ["array-bounds at 9:3: index into s may leave its bounds"]
    assert findings == safety.check_safety(q, "f")
    assert leakage.infer_public(p, "f") == leakage.infer_public(q, "f") == {"c"}


UNASSIGNED = """fn f(reg u64 c) -> reg u64 {
  reg u64 t;
  if (c != 2) { t = c; }
  t += 1;
  return t;
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_compound_assignment_reads_its_destination_at_the_statement(mode):
    """The destination of a compound assignment is read first, where the
    statement is: one that may be unassigned is an UninitializedUse
    there, as any read of it is, and its maybe-uninit finding is at the
    statement."""
    p = prep(UNASSIGNED)
    assert run(p, [3], mode=mode).results[0].value == 4
    with pytest.raises(interp.UninitializedUse, match="use of uninitialized t$") as exc:
        run(p, [2], mode=mode)
    assert exc.value.loc == (4, 3)
    assert [str(f) for f in safety.check_safety(p, "f")] == [
        "maybe-uninit at 4:3: t may be read before assignment"]


# ------------------------------ a multi-destination intrinsic writing an element and memory

MULTI = """
fn f(reg u64 p, reg u64 a, reg u64 b) -> reg u64 {
  stack u64[2] s;
  reg bool cf;
  reg u64 r;
  s[0] = 0;
  _, cf, _, _, _, s[1] = #x86_ADD_64(a, b);
  _, _, _, _, _, [p + 8] = #x86_ADD_64(a, b);
  _, _, _, _, _, (u64)[p + 16] = #x86_ADD_64(s[1], b);
  r = s[1];
  if (cf) { r = r + 1; }
  return r;
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_intrinsic_destinations_element_and_memory(mode):
    p = prep(MULTI)
    out = run(p, [0x100, 2**64 - 1, 3], region(0x100, 24), mode)
    assert out.results[0].value == 3  # the sum 2 and its carry
    assert memory.load_bytes(out.memory, 0x108, 16) == (2).to_bytes(8, "little") + (
        5).to_bytes(8, "little")


def test_intrinsic_memory_destinations_are_recorded():
    rep = safety.analyze(prep(MULTI), "f", ["p"], [])
    assert rep.machine_lines() == ["range(p) = p + [8; 24)"]
    assert rep.findings == []


# ----------------------------------------------------------- `_ = e;`


@pytest.mark.parametrize("mode", MODES)
def test_ignored_value_is_still_evaluated(mode):
    p = prep("fn f(reg u64 a, reg u64 b) -> reg u64 {\n  _ = a / b;\n  _ = a;\n  return a;\n}\n")
    assert run(p, [6, 3], mode=mode).results[0].value == 6
    with pytest.raises(interp.DivByZero) as exc:
        run(p, [6, 0], mode=mode)
    assert exc.value.loc == (2, 9)


# ------------------------------------------ array results of a non-inline call

ARRAYS = """
fn g(reg u64 a) -> reg u64[2], stack u64[2] {
  reg u64[2] r;
  stack u64[2] s;
  r[0] = a; r[1] = a + 1; s[0] = a + 2; s[1] = a + 3;
  return r, s;
}
fn f(reg u64 a) -> reg u64 {
  reg u64[2] x;
  stack u64[2] y;
  reg u64 t;
  x, y = g(a);
  y[1] = 0;
  t = x[0] + x[1] + y[0] + y[1];
  return t;
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_register_and_stack_array_results(mode):
    assert run(prep(ARRAYS), [10], mode=mode).results[0].value == 10 + 11 + 12


@pytest.mark.parametrize("mode", MODES)
def test_a_wider_call_result_is_truncated_to_its_element(mode):
    """A u64 result stored into a u32 register-array element keeps its
    low 32 bits, as a u32 register does."""
    p = prep("fn g(reg u64 a) -> reg u64 {\n  a = a + 0x500000000;\n  return a;\n}\n"
             "fn f(reg u64 a) -> reg u64 {\n  reg u32[2] x;\n  reg u32 y;\n  reg u64 r;\n"
             "  x[1] = g(a);\n  y = g(a);\n  r = (u64)(x[1]) + (u64)y;\n  return r;\n}\n")
    assert run(p, [3], mode=mode).results[0].value == 3 + 3


# ------------------------------------------- typecheck's destination errors

GLOBALS = "global u64 g = 1;\nglobal u64[2] ga = {1, 2};\n"
CALLEES = ("fn h1(reg u64 x) -> reg u64 {\n  return x;\n}\n"
           "fn h2(reg u64 x) -> reg u64, reg u64 {\n  return x, x;\n}\n"
           "fn hb(reg u64 x) -> reg bool {\n  reg bool b;\n  b = x == 0;\n  return b;\n}\n"
           "fn ha(reg u64 x) -> reg u64[2] {\n  reg u64[2] r;\n  r[0] = x;\n  r[1] = x;\n"
           "  return r;\n}\n"
           "fn hr(reg u64[2] x) {\n}\n")
INLINE_PARAM = "inline fn hk(inline int k) {\n  k = 3;\n}\n"

# (what follows f, declarations, statement, message): f comes first, so
# its statement is on line 3
ERRORS = {
    "unknown-variable": ("", "", "zz = a;", "3:3: f: unknown variable 'zz'"),
    "global-scalar": (GLOBALS, "", "g = a;", "3:3: f: cannot write to global 'g'"),
    "global-element": (GLOBALS, "", "ga[0] = a;", "3:3: f: cannot write to global 'ga'"),
    "inline-variable": ("", "inline int n = 1;", "n = 2;",
                        "3:3: f: inline variables are fixed by expansion"),
    "for-counter": ("", "", "for i = 0 to 3 { i = 2; }",
                    "3:20: f: inline variables are fixed by expansion"),
    "inline-parameter": (INLINE_PARAM, "", "hk(1);",
                         "6:3: hk: inline variables are fixed by expansion"),
    "not-an-array": ("", "reg u64 x;", "x[0] = a;", "3:3: f: 'x' is not an array"),
    "view-on-register-array": ("", "reg u64[2] r;", "(u32)r[0] = a;",
                               "3:3: f: sub-word views exist only on stack arrays"),
    "register-array-index": ("", "reg u64[2] r;", "r[a] = a;",
                             "3:3: f: register array 'r' requires a compile-time index"),
    "index-not-integer": ("", "stack u64[2] s;", "s[c] = a;",
                          "3:3: f: array index must be an integer"),
    "constant-index": ("", "stack u64[2] s;", "s[2] = a;", "3:3: f: index 2 outside s: u64[2]"),
    "intrinsic-arity": ("", "reg u64 x;", "x, x = #x86_ADD_64(a, a);",
                        "3:3: f: #x86_ADD_64 produces 6 values, 2 destinations given"),
    "flag-output": ("", "reg bool b; reg u64 x;", "x, b, b, b, b, x = #x86_ADD_64(a, a);",
                    "3:3: f: flag output needs a bool destination"),
    "word-output": ("", "reg bool b;", "b, b, b, b, b, b = #x86_ADD_64(a, a);",
                    "3:3: f: word output needs a word destination"),
    "conditional-intrinsic": ("", "reg bool b; reg u64 x;",
                              "b, b, b, b, b, x = #x86_ADD_64(a, a) if c;",
                              "3:3: f: conditional assignment cannot receive an intrinsic"),
    "multi-destination": ("", "reg u64 x;", "x, x = a;",
                          "3:3: f: multi-destination assignment requires an intrinsic or call"),
    "compound-bool": ("", "reg bool b;", "b += c;", "3:3: f: cannot assign int to a bool"),
    "compound-array": ("", "reg u64[2] x, y;", "x += y;",
                       "3:3: f: arrays can only be copied whole from another array"),
    "lane-shape": ("", "reg u128 v;", "v +4u64= v;", "3:3: f: lane shape 4u64 does not fit u128"),
    "lane-operator": ("", "reg u128 v;", "v = v +4u64 v;",
                      "3:9: f: lane shape 4u64 does not fit u128"),
    "lane-operands": ("", "reg u256 v;", "v = a +4u64 p;",
                      "3:9: f: lane shape 4u64 does not fit u64"),
    "lane-minus": ("", "reg u256 v;", "v -4u64= v;",
                   "3:3: f: operator '-' takes no lane annotation"),
    "lane-times": ("", "reg u256 v;", "v *4u64= v;",
                   "3:3: f: operator '*' takes no lane annotation"),
    "bool-from-word": ("", "reg bool b;", "b = a;", "3:3: f: cannot assign u64 to a bool"),
    "array-from-expression": ("", "reg u64[2] r;", "r = a + a;",
                              "3:3: f: arrays can only be copied whole from another array"),
    "array-copy-type": ("", "reg u64[2] r; reg u64[3] t;", "r = t;",
                        "3:3: f: array copy type mismatch: u64[3] vs u64[2]"),
    "guard-not-bool": ("", "reg u64 x;", "x = a if a;", "3:3: f: assignment guard must be a bool"),
    "guard-on-element": ("", "stack u64[2] s;", "s[0] = a if c;",
                         "3:3: f: conditional assignment writes a scalar register"),
    "unknown-function": ("", "reg u64 x;", "x = nofn(a);", "3:3: f: unknown function 'nofn'"),
    "call-arity": (CALLEES, "reg u64 x;", "x = h1(a, a);", "3:3: f: h1 takes 1 arguments"),
    "argument-type": (CALLEES, "", "hr(a);", "3:6: f: argument has type u64, expected u64[2]"),
    "result-count": (CALLEES, "reg u64 x;", "x = h2(a);", "3:3: f: h2 returns 2 values"),
    "array-result": (CALLEES, "reg u64[3] t;", "t = ha(a);",
                     "3:3: f: array result type mismatch: u64[3] vs u64[2]"),
    "word-result": (CALLEES, "reg bool b;", "b = h1(a);",
                    "3:3: f: word result needs a word destination"),
    "bool-result": (CALLEES, "reg u64 x;", "x = hb(a);",
                    "3:3: f: bool result needs a bool destination"),
    "conditional-call": (CALLEES, "reg u64 x;", "x = h1(a) if c;",
                         "3:3: f: calls cannot be conditional"),
}


@pytest.mark.parametrize("after, decls, stmt, message", ERRORS.values(), ids=ERRORS.keys())
def test_destination_error(after, decls, stmt, message):
    text = f"fn f(reg u64 p, reg u64 a, reg bool c) {{\n  {decls}\n  {stmt}\n}}\n{after}"
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse(text))
    assert exc.value.errors == [message]


def test_a_lane_shift_count_may_be_any_word():
    """A lane operator's word operands have its shape's width, but for
    the count of a lane shift, which is read as a u8."""
    typecheck(parse("fn f(reg u256 v, reg u64 a) {\n  v = v <<4u64 a;\n  v >>8u32= (u8)a;\n}\n"))


@pytest.mark.parametrize("stmt, message", [
    ("(u8)[p] = 1;", "3:3: f: illegal access width 7"),
    ("(u8)s[0] = 1;", "3:3: f: illegal view width u7"),
], ids=["memory", "view"])
def test_width_error_of_a_built_destination(stmt, message):
    """The parser takes only the widths of `words.WIDTHS`; a program
    built through the API may hold any other, which typecheck rejects."""
    p = parse(f"fn f(reg u64 p) {{\n  stack u64[2] s;\n  {stmt}\n}}\n")
    p.funcs[0].body[-1].dests[0].width = 7
    with pytest.raises(TypecheckError) as exc:
        typecheck(p)
    assert exc.value.errors == [message]


def test_a_destination_is_typed_as_its_access():
    p = typecheck(parse("fn f(reg u64 p) {\n  stack u64[2] s;\n  reg u32 x;\n"
                        "  x = 1;\n  (u16)s.[1] = x;\n  (u8)[p] = x;\n}\n"))
    x, elem, mem = (s.dests[0] for s in p.funcs[0].body[2:])
    assert (x.ty, elem.ty, mem.ty) == (ir.word_ty(32), ir.word_ty(16), ir.word_ty(8))
    assert (elem.arr_storage, elem.arr_ty) == ("stack", ir.ArrayTy(64, 2))
