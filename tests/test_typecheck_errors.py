"""Typecheck errors as `jamin` reports them: exit code 2, each message at
its line:col, and no traceback.

The first tables are the scope rule (docs/lang.md, "Types and storage
classes"): a `reg` or `stack` local is in scope from its declaration to
the end of its block, so a read or a write after the block is an error
that names the declaration.  The next is the return rule: a `return`
ends its function's body.  The last has a row for each located
typecheck message that the other tests leave unreached.
"""

import pytest

from jamin.cli import main


def errors(tmp_path, capsys, text) -> list:
    """The error lines `jamin run` prints for program `text` (entry f),
    which must exit 2 without a traceback."""
    path = tmp_path / "p.jz"
    path.write_text(text)
    assert main(["run", str(path), "--entry", "f"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    head = f"error: {path}: "
    assert err.startswith(head)
    return err[len(head):].splitlines()


# (the block declaring t, on line 2): the statement after it is on line 3
BLOCKS = {
    "if": "if (a > 0) { reg u64 t; t = a; }",
    "else": "if (a > 0) { a = 1; } else { reg u64 t; t = a; }",
    "while": "while (a > 0) { reg u64 t; t = a; a = a - 1; }",
    "for": "for i = 0 to 1 { reg u64 t; t = a; }",
    "nested": "if (a > 0) { while (a > 1) { reg u64 t; t = a; a = a - 1; } a = a + 1; }",
}

# a use of t after the block (on line 3) -> the column of t in it
USES = {"read": ("a = t;", 7), "write": ("t = a;", 3), "compound": ("t += 1;", 3)}


@pytest.mark.parametrize("use", sorted(USES))
@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_a_local_is_out_of_scope_after_its_block(tmp_path, capsys, block, use):
    decl = BLOCKS[block]
    stmt, col = USES[use]
    text = f"fn f(reg u64 a) {{\n  {decl}\n  {stmt}\n}}\n"
    at = decl.index("reg u64 t") + 3
    assert errors(tmp_path, capsys, text) == [
        f"3:{col}: f: 't' is used outside the block of its declaration at 2:{at}"]


def test_an_element_access_is_out_of_scope_after_its_block(tmp_path, capsys):
    text = ("fn f(reg u64 a) {\n  if (a > 0) { stack u64[2] s; s[0] = a; }\n"
            "  s[1] = a;\n  a = s[0];\n}\n")
    assert errors(tmp_path, capsys, text) == [
        "3:3: f: 's' is used outside the block of its declaration at 2:16",
        "4:7: f: 's' is used outside the block of its declaration at 2:16"]


@pytest.mark.parametrize("use, where", [
    ("return t;", "4:10"), ("t = c;\n  return c;", "4:3")], ids=["read", "write"])
def test_an_inline_functions_local_is_out_of_scope_after_its_block(tmp_path, capsys, use, where):
    text = (f"inline fn g(reg u64 c) -> reg u64 {{\n  reg u64 u;\n"
            f"  if (c != 2) {{ reg u64 t; t = c; }}\n  {use}\n}}\n"
            "fn f(reg u64 a) -> reg u64 {\n  a = g(a);\n  return a;\n}\n")
    assert errors(tmp_path, capsys, text) == [
        f"{where}: g: 't' is used outside the block of its declaration at 3:17"]


# The probe programs of test_destinations (UNASSIGNED), test_rolled
# (SCOPED) and test_recorded_loops (STALE) with t declared in the `if`
# arm that assigns it: each reads t after the arm.
ORIGINALS = {
    "destinations": ("""
fn f(reg u64 c) -> reg u64 {
  if (c != 2) { reg u64 t; t = c; }
  t += 1;
  return t;
}
""", ["4:3: f: 't' is used outside the block of its declaration at 3:17",
      "5:10: f: 't' is used outside the block of its declaration at 3:17"]),
    "rolled": ("""
inline fn g(reg u64 c) -> reg u64 {
  if (c != 2) { reg u64 t; t = c; }
  return t;
}
fn f(reg u64 i) -> reg u64 {
  reg u64 x, y;
  x = 0;
  for r = 0 to 4 { y = g(i); x = x + y; i = i + 1; }
  return x;
}
""", ["4:10: g: 't' is used outside the block of its declaration at 3:17"]),
    "recorded-loops": ("""
inline fn g(reg u64 c, reg u64 k) -> reg u64 {
  if (k != 2) { reg u64 t; t = c; }
  return t;
}
fn f(reg u64 x, reg u64 s, reg u64 k, reg u64 p) -> reg u64 {
  reg u64 y;
  for r = 0 to 1 { y = g(x, k); x = s; }
  y = [p + y];
  return y;
}
""", ["4:10: g: 't' is used outside the block of its declaration at 3:17"]),
}


@pytest.mark.parametrize("name", sorted(ORIGINALS))
def test_the_original_probe_programs_are_rejected(tmp_path, capsys, name):
    text, want = ORIGINALS[name]
    assert errors(tmp_path, capsys, text) == want


def test_inline_and_global_locals_keep_function_scope(tmp_path, capsys):
    """An `inline` or `global` local is in scope to the end of the
    function, whatever block declares it."""
    path = tmp_path / "p.jz"
    path.write_text("fn f(reg u64 a) -> reg u64 {\n"
                    "  for i = 0 to 1 { inline int n = 2; }\n"
                    "  if (a > 0) { global u64 g = 5; }\n"
                    "  a = a + n + g;\n  return a;\n}\n")
    assert main(["run", str(path), "--entry", "f", "--u64", "1"]) == 0
    assert "0x0000000000000008" in capsys.readouterr().out


# A `return` ends its function's body, as in Jasmin (docs/lang.md,
# "Statements").  Each block below holds a `return` of g.  Accepted with
# g inline, such a return ended f instead of g: at a = 0, f printed 7, 1
# and 1 where the source means 107, 101 and 101.
EARLY = {
    "if": "if (a == 0) { b = 7; return b; }",
    "while": "while (b < 9) { b = 1; return b; }",
    "for-if": "for i = 0 to 1 { if (a == i) { b = 1; return b; } }",
}


@pytest.mark.parametrize("inline", ["inline ", ""], ids=["inline", "not-inline"])
@pytest.mark.parametrize("name", sorted(EARLY))
def test_a_return_inside_a_block_is_rejected(tmp_path, capsys, name, inline):
    block = EARLY[name]
    text = (f"{inline}fn g(reg u64 a) -> reg u64 {{\n  reg u64 b;\n  b = a;\n  {block}\n"
            "  b = b + 1;\n  return b;\n}\n"
            "fn f(reg u64 a) -> reg u64 {\n  reg u64 r;\n  r = g(a);\n  r = r + 100;\n"
            "  return r;\n}\n")
    assert errors(tmp_path, capsys, text) == [
        f"4:{block.index('return') + 3}: g: return must be the last statement of the function body"]


def test_a_compile_time_test_may_guard_an_inline_declaration(tmp_path, capsys):
    """Only a run-time test keeps an `inline` declaration out of its
    arms: one under a test of a `param` or a `for` counter is expanded
    like any other."""
    path = tmp_path / "p.jz"
    path.write_text("param int N = 1;\nfn f(reg u64 a) -> reg u64 {\n"
                    "  if (N == 1) { inline int n = 2; a = a + n; }\n"
                    "  for i = 0 to 1 { if (i == 1) { inline int m = 3; a = a + m; } }\n"
                    "  return a;\n}\n")
    assert main(["run", str(path), "--entry", "f", "--u64", "1"]) == 0
    assert "0x0000000000000006" in capsys.readouterr().out


def body(text: str) -> str:
    """A program whose function f holds `text` from line 2 on, with a
    callee h and a program-level name N after it."""
    return (f"fn f(reg u64 a, reg bool c) {{\n  {text}\n}}\n"
            "fn h(reg u64 y) -> reg u64 {\n  return y;\n}\nparam int N = 1;\n")


# name -> (program, its one message).  `unknown-intrinsic` is the
# parser's message: typecheck relies on it and checks no intrinsic name.
MESSAGES = {
    "not-a-bool": (body("reg bool b;\n  b = !a;"), "3:7: f: ! expects a bool"),
    "not-a-word": (body("reg u64 x;\n  x = ~c;"), "3:7: f: ~ expects a word"),
    "bool-for-word": (body("reg u64 x;\n  x = c;"), "3:7: f: expected a u64 value, found bool"),
    "cannot-cast": (body("reg u64 x;\n  x = (u64)c;"), "3:7: f: cannot cast bool to u64"),
    "and-of-words": (body("reg bool b;\n  b = a && c;"), "3:9: f: && expects bools"),
    "bool-order": (body("reg bool b;\n  b = c < c;"), "3:9: f: < not defined on bools"),
    "compare": (body("reg bool b;\n  b = c == 1;"), "3:9: f: cannot compare bool with int"),
    "call-in-expression": (body("reg u64 x;\n  x = h(a) + 1;"),
                           "3:7: f: function calls are statements, not sub-expressions"),
    "intrinsic-arity": (body("reg u64 x;\n  x = #x86_MOV_64(a, a);"),
                        "3:7: f: #x86_MOV_64 expects 1 arguments, got 2"),
    "intrinsic-values": (body("reg bool b;\n  b = #x86_ADD_64(a, a);"),
                         "3:7: f: #x86_ADD_64 produces 6 values; bind them all in a "
                         "multi-destination assignment"),
    "flag-argument": (body("reg u64 x;\n  reg bool b;\n  b, b, b, b, b, x = #x86_ADC_64(a, a, a);"),
                      "4:40: f: #x86_ADC_64: flag argument must be a bool"),
    "inline-type": (body("inline u64 n = 1;"), "2:3: f: inline variables have type int"),
    "inline-initializer": (body("inline int n = a;"),
                           "2:3: f: inline initializer must be compile-time"),
    "int-storage": (body("reg int n;"), "2:3: f: type int requires inline storage"),
    "global-initializer": (body("global u64 g;"),
                           "2:3: f: global declarations need an initializer"),
    "if-condition": (body("if (a) { }"), "2:3: f: if condition must be a bool"),
    "while-condition": (body("while (a) { }"), "2:3: f: while condition must be a bool"),
    "return-arity": (body("return a, a;"), "2:3: f: return arity 2 != 0"),
    "return-type": ("fn f(reg u64 a) -> reg bool {\n  return a;\n}\n",
                    "2:10: f: return value has type u64, expected bool"),
    "shadow": (body("reg u64 N;"), "2:3: f: 'N' shadows a program-level name"),
    "lane-shape": (body("reg u256 x, y;\n  x = y +3u64 y;"), "3:9: f: illegal lane shape 3u64"),
    "wide-immediate": (body("reg u256 x, y;\n  y = 0;\n  x = #x86_VPSHUFD_256(y, (4u16)[1, 2, 3, 4]);"),
                       "4:27: f: immediate vector wider than 32 bits"),
    "immediate-element": (body("reg u256 x, y;\n  y = 0;\n  x = #x86_VPSHUFD_256(y, (4u2)[a, 0, 1, 2]);"),
                          "4:33: f: immediate vector elements must be compile-time"),
    "unknown-intrinsic": (body("reg u64 x;\n  x = #FOO(a);"), "3:7: unknown intrinsic #FOO"),
    "after-return": (body("return;\n  a = 1;"),
                     "2:3: f: return must be the last statement of the function body"),
    "missing-return": ("fn f(reg u64 a) -> reg u64 {\n  a = a + 1;\n}\n", "1:1: f: missing return"),
    "inline-at-run-time": (body("while (a > 0) { inline int n = 1; a = a - 1; }"),
                           "2:19: f: inline declarations cannot sit under runtime control flow"),
    "inline-without-initializer": (body("inline int n;"),
                                   "2:3: f: inline variables need an initializer"),
    "array-length": (body("reg u64[a] x;"), "2:11: array length is not compile-time (a)"),
    "array-length-access": (body("reg u64[a[0]] x;"),
                            "2:11: array length is not compile-time (a[0])"),
    "global-arity": ("global u64[2] g = {1, 2, 3};\n" + body("a = 1;"),
                     "1:1: global g: initializer arity mismatch"),
    "global-length": ("global u64[b] g = {1, 2};\n" + body("a = 1;"),
                      "1:12: array length is not compile-time (b)"),
    "global-scalar": ("global u64 g = {1, 2};\n" + body("a = 1;"),
                      "1:1: global g: scalar takes a single initializer"),
    # g's signature is resolved once, before f's calls: one report, and
    # no argument error against a made-up length
    "signature-once": ("fn f(reg u64 a) {\n  reg u64[2] x;\n  x[0] = a;\n  g(x);\n  g(x);\n}\n"
                       "fn g(reg u64[b] y) {\n  y[0] = 1;\n}\n",
                       "7:14: array length is not compile-time (b)"),
    "copy-of-unknown-length": (body("reg u64[b] x;\n  reg u64[2] y;\n  x = y;"),
                               "2:11: array length is not compile-time (b)"),
    # a register array is registers and a stack array stack bytes: an
    # array is copied, passed and returned only into its own storage
    "copy-storage": (body("reg u64[2] x;\n  stack u64[2] y;\n  x = y;"),
                     "4:3: f: array copy storage mismatch: stack vs reg"),
    "argument-storage": ("fn f(reg u64 a) {\n  stack u64[2] x;\n  x[0] = a;\n  g(x);\n}\n"
                         "fn g(reg u64[2] y) {\n  y[0] = 1;\n}\n",
                         "4:5: f: argument is a stack array, expected reg"),
    "result-storage": ("fn f(reg u64 a) {\n  stack u64[2] x;\n  x = g(a);\n}\n"
                       "fn g(reg u64 a) -> reg u64[2] {\n  reg u64[2] y;\n  y[0] = a;\n"
                       "  y[1] = a;\n  return y;\n}\n",
                       "3:3: f: array result storage mismatch: stack vs reg"),
    "return-storage": ("fn f(reg u64 a) -> reg u64[1] {\n  stack u64[1] x;\n  x[0] = a;\n"
                       "  return x;\n}\n",
                       "4:10: f: return value is a stack array, expected reg"),
    "recursion": ("fn f(reg u64 a) -> reg u64 {\n  a = g(a);\n  return a;\n}\n"
                  "fn g(reg u64 a) -> reg u64 {\n  a = f(a);\n  return a;\n}\n",
                  "6:7: g: recursive call cycle: f -> g -> f"),
}


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_typecheck_message(tmp_path, capsys, name):
    text, message = MESSAGES[name]
    assert errors(tmp_path, capsys, text) == [message]
