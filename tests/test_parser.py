import pytest

from jamin import ir
from jamin.ir import print_program
from jamin.parser import MAX_ARMS, MAX_EXPR_DEPTH, MAX_NESTING, ParseError, parse, tokenize
from jamin.typecheck import TypecheckError, typecheck

SHUFFLE_FIG = """
fn shuffle_state(reg u256[4] k) -> reg u256[4] {
  k[1] = #x86_VPSHUFD_256(k[1], (4u2)[ 0, 3, 2, 1]);
  k[2] = #x86_VPSHUFD_256(k[2], (4u2)[ 1, 0, 3, 2]);
  k[3] = #x86_VPSHUFD_256(k[3], (4u2)[ 2, 1, 0, 3]);
  return k;
}
"""


def roundtrip(text):
    p = parse(text)
    printed = print_program(p)
    assert parse(printed) == p
    return p


def test_minimal_function():
    p = roundtrip("fn f(reg u64 x) -> reg u64 { x = x; return x; }")
    assert p.func_names() == ["f"]


def test_shuffle_figure_parses():
    p = roundtrip(SHUFFLE_FIG)
    typecheck(p)
    stmt = p.func("shuffle_state").body[0]
    imm = stmt.rhs.args[1]
    assert (imm.n, imm.m) == (4, 2)
    assert [v.value for v in imm.values] == [0, 3, 2, 1]


def test_vector_assignment_sugar():
    """`x +4u64= z` is written out as `x = x +4u64 z`, the operator at
    the statement and the read of x a node of its own at x."""
    p = roundtrip("fn g(reg u256 x, reg u256 z) { x +4u64= z; }")
    s = p.func("g").body[0]
    assert s.rhs == ir.EBin("+", ir.EVar("x"), ir.EVar("z"), (4, 64))
    assert s.rhs.loc == s.loc == (1, 32)
    assert s.rhs.left.loc == s.dests[0].loc and s.rhs.left is not s.dests[0]
    typecheck(p)


@pytest.mark.parametrize("compound, written_out", [
    ("r += a;", "r = r + a;"),
    ("r <<= 3 if a > 1;", "r = r << 3 if a > 1;"),
    ("s[a + 1] ^= s[0] * 2;", "s[a + 1] = s[a + 1] ^ s[0] * 2;"),
    ("(u32)s.[4] -= a;", "(u32)s.[4] = (u32)s.[4] - a;"),
])
def test_compound_assignment_is_written_out(compound, written_out):
    """The parser writes `d op= e [if c]` as `d = d op e [if c]`; the
    destination and its read share no node."""
    src = "fn f(reg u64 a) {{\n  reg u64 r;\n  stack u64[4] s;\n  {}\n}}\n"
    s = parse(src.format(compound)).funcs[0].body[2]
    assert s == parse(src.format(written_out)).funcs[0].body[2]
    read = s.rhs.left
    assert read is not s.dests[0]
    if isinstance(read, ir.EArr):
        assert read.index is not s.dests[0].index


def test_lane_annotated_infix():
    p = roundtrip("fn g(reg u256 x, reg u256 z) -> reg u256 { x = x +4u64 z; return x; }")
    typecheck(p)


def test_memory_and_views():
    p = roundtrip(
        """
fn h(reg u64 p) {
  stack u8[16] a;
  reg u64 t;
  t = [p + 8];
  t = (u8)[p + 1];
  (u8)a[3] = t;
  (u8)a.[5] = t;
  t = (u64)a.[0];
  [p + 0] = t;
}
"""
    )
    typecheck(p)


def test_conditional_assignment_and_flags():
    p = roundtrip(
        """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  reg bool of, cf, sf, pf, zf;
  reg u64 r;
  of, cf, sf, pf, zf, r = #x86_ADD_64(a, b);
  r = a if cf;
  return r;
}
"""
    )
    typecheck(p)


def test_params_globals_for():
    p = roundtrip(
        """
param int N = 4;
global u32 magic = 0x9e377900;
fn f() -> reg u32 {
  reg u32[4] x;
  reg u32 acc;
  acc = magic;
  for i = 0 to N - 1 { x[i] = i; acc = acc + x[i]; }
  return acc;
}
"""
    )
    typecheck(p)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("fn f( { }")
    assert err.value.line == 1


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("fn f() { } fn f() { }")
    with pytest.raises(ParseError):
        parse("fn f(reg u64 x) { reg u64 x; }")


def test_unknown_intrinsic_rejected():
    with pytest.raises(ParseError):
        parse("fn f(reg u64 x) { x = #nope(x); }")


def body(text: str) -> str:
    return f"fn f(reg u64 a, reg u64 p) {{\n  reg u64 r;\n  {text}\n}}\n"


# name -> (source, the ParseError).  `cast-width` and `view-width` show
# that the parser builds no access or cast of a width outside
# words.WIDTHS, and `unknown-operator` no operator outside ir._PREC, so
# typecheck checks neither.
PARSE_ERRORS = {
    "top-level-statement": ("x = 1;\n", "1:1: expected declaration, found 'x'"),
    "duplicate-parameter": ("fn f(reg u64 a, reg u64 a) {\n}\n",
                            "1:1: duplicate parameter name in 'f'"),
    "unknown-type": ("fn f(reg u99 a) {\n}\n", "1:10: unknown type 'u99'"),
    "initializer-names": (body("reg u64 x, y = 1;"),
                          "3:3: an initializer requires a single declared name"),
    "no-expression": (body("r = ;"), "3:7: expected expression, found ';'"),
    "cast-width": (body("r = (u7)a;"), "3:11: expected ';', found 'a'"),
    "view-width": (body("r = (u7)[p];"), "3:11: expected ';', found '['"),
    "unknown-operator": (body("r = a ** a;"), "3:10: expected expression, found '*'"),
    "compound-ignore": (body("_ += 5;"), "3:3: compound assignment needs a register or an "
                                         "array element as destination"),
    "compound-memory": (body("[p] += 1;"), "3:3: compound assignment needs a register or an "
                                           "array element as destination"),
    "compound-destinations": (body("r, a += 1;"),
                              "3:3: multi-destination assignment requires an intrinsic or call"),
    "compound-intrinsic": (body("r += #x86_MOV_64(a);"),
                           "3:3: compound assignment cannot receive an intrinsic"),
    "compound-call": (body("r += g(a);"), "3:3: calls cannot use compound assignment"),
}


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_parse_error_message(name):
    text, message = PARSE_ERRORS[name]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_typecheck_types_every_operator_the_parser_builds():
    from jamin import typecheck as tc

    assert set(ir._PREC) <= tc.ARITH_OPS | tc.SHIFT_OPS | tc.CMP_OPS | tc.BOOL_OPS


def test_bool_literals_and_call_statements_print_back():
    p = roundtrip("fn g(reg u64 x) {\n  x = x;\n}\n"
                  "fn f(reg u64 x) {\n  reg bool b;\n  b = true;\n  b = false;\n  g(x);\n}\n")
    assert ["  b = true;", "  b = false;", "  g(x);"] == print_program(p).splitlines()[-4:-1]
    with pytest.raises(KeyError, match="no function named 'h'"):
        p.func("h")


def test_comments_and_hex():
    p = parse(
        """
// line comment
fn f(reg u64 x) -> reg u64 {
  /* block
     comment */
  x = x & 0x0ffffffc0fffffff;
  return x;
}
"""
    )
    typecheck(p)


def test_typecheck_truncating_cast_inserted():
    p = parse("fn f(reg u64 y) -> reg u32 { reg u32 x; x = y; return x; }")
    typecheck(p)
    assign = p.func("f").body[1]
    assert isinstance(assign.rhs, ir.ECast)
    assert assign.rhs.width == 32


def test_typecheck_register_array_runtime_index_rejected():
    src = """
fn f(reg u64 i) -> reg u64 {
  reg u64[4] x;
  x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
  return x[i];
}
"""
    with pytest.raises(TypecheckError, match="compile-time"):
        typecheck(parse(src))


def test_typecheck_stack_array_runtime_index_allowed():
    src = """
fn f(reg u64 i) -> reg u64 {
  stack u8[16] s;
  (u8)s[0] = 1;
  reg u64 t;
  t = (u8)s[i];
  return t;
}
"""
    typecheck(parse(src))


def test_typecheck_write_to_global_rejected():
    src = "global u64 g = 3; fn f() { g = 4; }"
    with pytest.raises(TypecheckError, match="global"):
        typecheck(parse(src))


@pytest.mark.parametrize("src, error", [
    ("global bool F = true; fn f() { }", "1:1: global F: only word and inline int"),
    ("global u64 A = B; global u64 B = 1; fn f() { }", "1:16: global A: unknown variable 'B'"),
    ("fn f(reg u64 x) { } global u64 A = x; fn g() { }", "global A: unknown variable 'x'"),
], ids=["bool", "later-global", "local-name"])
def test_typecheck_global_initializers_like_local_globals(src, error):
    with pytest.raises(TypecheckError, match=error):
        typecheck(parse(src))


def test_typecheck_recursion_rejected():
    src = """
fn f(reg u64 x) -> reg u64 { reg u64 r; r = g(x); return r; }
fn g(reg u64 x) -> reg u64 { reg u64 r; r = f(x); return r; }
"""
    with pytest.raises(TypecheckError, match="recursive"):
        typecheck(parse(src))


def test_views_only_on_stack_arrays():
    src = """
fn f() -> reg u64 {
  reg u64[2] x;
  x[0] = 1; x[1] = 2;
  reg u64 t;
  t = (u8)x[0];
  return t;
}
"""
    with pytest.raises(TypecheckError, match="stack"):
        typecheck(parse(src))


def test_corpus_roundtrips():
    from jamin.primitives.corpus import PROGRAMS, load_source

    for name in PROGRAMS:
        roundtrip(load_source(name))


# Every field of every token of one text, from the first tokenizer (one
# regex per kind, tried in turn); positions after the two-line comment
# count its lines.
TOKEN_TEXT = "/* two\n   lines */ a >>s b <<r c >>r d;\nx +4u64= y == z = (4u64)[1, 0x1_f] .[ -> w"
TOKENS = [
    ("IDENT", "a", 2, 13, None, None, False),
    ("OP", ">>s", 2, 15, ">>s", None, False),
    ("IDENT", "b", 2, 19, None, None, False),
    ("OP", "<<r", 2, 21, "<<r", None, False),
    ("IDENT", "c", 2, 25, None, None, False),
    ("OP", ">>r", 2, 27, ">>r", None, False),
    ("IDENT", "d", 2, 31, None, None, False),
    ("PUNCT", ";", 2, 32, None, None, False),
    ("IDENT", "x", 3, 1, None, None, False),
    ("OP", "+4u64=", 3, 3, "+", (4, 64), True),
    ("IDENT", "y", 3, 10, None, None, False),
    ("OP", "==", 3, 12, "==", None, False),
    ("IDENT", "z", 3, 15, None, None, False),
    ("EQUALS", "=", 3, 17, None, None, False),
    ("PUNCT", "(", 3, 19, None, None, False),
    ("LANES", "4u64", 3, 20, None, None, False),
    ("PUNCT", ")", 3, 24, None, None, False),
    ("PUNCT", "[", 3, 25, None, None, False),
    ("INT", "1", 3, 26, None, None, False),
    ("PUNCT", ",", 3, 27, None, None, False),
    ("INT", "0x1_f", 3, 29, None, None, False),
    ("PUNCT", "]", 3, 34, None, None, False),
    ("DOTLBRACK", ".[", 3, 36, None, None, False),
    ("ARROW", "->", 3, 39, None, None, False),
    ("IDENT", "w", 3, 42, None, None, False),
    ("EOF", "", 3, 43, None, None, False),
]


def test_tokens_pinned():
    got = [(t.kind, t.text, t.line, t.col, t.op, t.lanes, t.assign)
           for t in tokenize(TOKEN_TEXT)]
    assert got == TOKENS


@pytest.mark.parametrize("src, line, col", [
    ("fn f() {\n  /* open\n}\n", 2, 3),
    ("fn f() { /* closed */ /* open", 1, 23),
    ("/* a */ x = 1; /*/", 1, 16),
])
def test_unterminated_comment(src, line, col):
    with pytest.raises(ParseError, match="unterminated comment") as info:
        parse(src)
    assert (info.value.line, info.value.col) == (line, col)


def test_unexpected_character_located():
    with pytest.raises(ParseError, match="unexpected character '@'") as info:
        parse("fn f() {\n  x @ 1;\n}")
    assert (info.value.line, info.value.col) == (2, 5)


@pytest.mark.parametrize("literal", ["010", "0x_", "0b_", "0x__"])
def test_malformed_integer_literal_located(literal):
    with pytest.raises(ParseError, match=f"invalid integer literal '{literal}'") as info:
        parse(f"fn f() -> reg u64 {{\n  reg u64 x;\n  x = {literal};\n  return x;\n}}")
    assert (info.value.line, info.value.col) == (3, 7)


def test_integer_literal_forms():
    p = parse("fn f() { reg u64 x; x = 0x1_0; x = 0b1_1; x = 1000; x = 0; }")
    assert [s.rhs.value for s in p.funcs[0].body[1:]] == [16, 3, 1000, 0]


# Forms that nest an expression or the blocks of fn f(reg u64 x) n levels
# deep (docs/lang.md), each with the substring whose last occurrence before
# the `return` starts the first token past the limit when n is one more
# than it allows.
DEEP = {
    "sum": (lambda n: "  x = x" + " + x" * (n - 1) + ";\n", "x;"),
    "shift": (lambda n: "  x = x" + " >>s 1" * (n - 1) + ";\n", "1;"),
    "parens": (lambda n: "  x = " + "(" * (n - 1) + "x" + ")" * (n - 1) + ";\n", "x"),
    "unary": (lambda n: "  x = " + "~" * (n - 1) + "x;\n", "x;"),
    "while": (lambda n: "  while (x < 1) {\n" * n + "  x = x + 1;\n" + "  }\n" * n, "{"),
    "while-for": (lambda n: "  while (x < 1) {\n" * (n - 1) + "  for r = 0 to 1 { x = x + 1; }\n"
                  + "  }\n" * (n - 1), "{"),
    "if": (lambda n: "  if (x < 9) {\n" * n + "  x = x + 1;\n" + "  }\n" * n, "{"),
    # n `else if` arms: they open no block, and have a limit of their own
    "else-if": (lambda n: "  if (x == 0) { x = 1; }"
                + "".join(f" else if (x == {i}) {{ x = {i + 1}; }}" for i in range(1, n + 1)) + "\n",
                "if"),
}
EXPR_FORMS = ("sum", "shift", "parens", "unary")


def deep(form: str, n: int) -> str:
    return "fn f(reg u64 x) -> reg u64 {\n" + DEEP[form][0](n) + "  return x;\n}\n"


def limit(form: str) -> int:
    return MAX_EXPR_DEPTH if form in EXPR_FORMS else MAX_ARMS if form == "else-if" else MAX_NESTING


def past_limit(form: str) -> tuple:
    """(source one level past the limit of `form`, the line:col it fails at)."""
    text = deep(form, limit(form) + 1)
    at = text.rindex(DEEP[form][1], 0, text.index("  return"))
    return text, f"{text.count(chr(10), 0, at) + 1}:{at - text.rfind(chr(10), 0, at)}:"


@pytest.mark.parametrize("form", sorted(DEEP))
def test_nesting_limits(form):
    parse(deep(form, limit(form)))
    text, located = past_limit(form)
    what = "expression" if form in EXPR_FORMS else "else-if arms" if form == "else-if" else "blocks"
    with pytest.raises(ParseError, match=f"{what} nested more than {limit(form)} deep") as info:
        parse(text)
    assert f"{info.value.line}:{info.value.col}:" == located


@pytest.mark.parametrize("name", ["gimli_ref", "chacha20_scalar"])
def test_every_token_prefix_parses_or_fails_located(name):
    """A program cut before any token parses when the cut falls between
    top-level declarations, and otherwise ends in a ParseError located in
    the cut text, never in an IndexError: however the input ends, the
    parser looks past its last token only at EOF."""
    from jamin.primitives.corpus import load_source

    text = load_source(name)
    full = parse(text)
    decl_starts = {d.loc for d in full.params + full.globals + full.funcs}
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    toks = tokenize(text)
    for tok in toks[:-1]:
        prefix = text[:line_starts[tok.line - 1] + tok.col - 1]
        if (tok.line, tok.col) in decl_starts:
            parse(prefix)
            continue
        end = tokenize(prefix)[-1]
        with pytest.raises(ParseError) as err:
            parse(prefix)
        assert (1, 1) <= (err.value.line, err.value.col) <= (end.line, end.col), str(err.value)
