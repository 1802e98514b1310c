"""Every word operator has one definition (jamin.words).  Four ways of
computing it must agree on boundary operands, at every width and lane
shape: all operands literal (folded by expand), a constant right operand
or count (inlined by codegen), all operands parameters (inline code or
the checked _wbin), and the Word function of words."""

import random

import pytest

from gensrc import function_sources
from jamin import interp, memory, words
from jamin.expand import ExpandError, expand
from jamin.ir import EInt, SAssign
from jamin.parser import parse
from jamin.typecheck import typecheck
from jamin.words import Word

WORD_FNS = {
    "+": words.add, "-": words.sub, "*": words.mul,
    "&": words.and_, "|": words.or_, "^": words.xor,
    "<<": words.shl, ">>": words.shr, ">>s": words.sar, "<<r": words.rol, ">>r": words.ror,
}
UNARY_FNS = {"-": words.neg, "~": words.not_}
ARITH = ["+", "-", "*", "/", "%", "&", "|", "^"]
SHIFTS = ["<<", ">>", ">>s", "<<r", ">>r"]
LANE_OPS = ["+", "<<", ">>", "&", "|", "^"]
LANE_SHAPES = [(4, 64), (8, 32), (4, 32)]
COMPOSED = [("-", ">>"), ("*", ">>"), ("+", ">>s"), ("-", "<<r"), ("*", ">>r"), ("^", "<<")]


def _boundary(w):
    """0, 1, the top bit, the mask and the mask minus 1."""
    m = (1 << w) - 1
    return list(dict.fromkeys([0, 1, 1 << (w - 1), m, m - 1]))


def _counts(w):
    return [0, 1, w - 1, w]


def _lane_operands(n, w):
    """Each boundary value in every lane, and all of them across the lanes."""
    vals = _boundary(w)
    mixed = sum(vals[i % len(vals)] << (w * i) for i in range(n))
    return [sum(v << (w * i) for i in range(n)) for v in vals] + [mixed]


def _want(op, w, a, b):
    if op == "/":
        return a // b
    if op == "%":
        return a % b
    return WORD_FNS[op](Word(w, a), *([b] if op in SHIFTS else [Word(w, b)])).value


def _lane_want(op, n, w, a, b):
    """The scalar Word function applied lane by lane."""
    fn = WORD_FNS[op]
    xs = words.split(Word(n * w, a), w)
    if op in ("<<", ">>"):
        out = [fn(x, b) for x in xs]
    else:
        out = [fn(x, y) for x, y in zip(xs, words.split(Word(n * w, b), w))]
    return words.join(out, n * w).value


def _run(ty, exprs, params="", args_list=((),)):
    """fn f(params) -> one `ty` per expression; its results per argument list."""
    rets = ", ".join([f"reg {ty}"] * len(exprs))
    decls = "".join(f"  reg {ty} x{i};\n" for i in range(len(exprs)))
    body = "".join(f"  x{i} = {e};\n" for i, e in enumerate(exprs))
    outs = ", ".join(f"x{i}" for i in range(len(exprs)))
    p = expand(typecheck(parse(
        f"fn f({params}) -> {rets} {{\n{decls}{body}  return {outs};\n}}\n")))
    results = [[x.value for x in interp.run(p, "f", list(args), memory.Memory()).results]
               for args in args_list]
    return p, results


def _folded(p) -> bool:
    """Every assignment of f was folded to a literal by expand."""
    return all(type(s.rhs) is EInt for s in p.func("f").body if type(s) is SAssign)


def _inlined(p) -> bool:
    """The generated code calls no evaluator of words (_wbin)."""
    return not any(key[0] == "W" for key in p._exec_ns["__consts__"])


def _check(op_form, ty, a_vals, b_vals, want, count_ty):
    """Run `op_form` (a format over a and b) in the three program forms
    over the grid a_vals x b_vals and compare each with want(a, b)."""
    grid = [(a, b) for a in a_vals for b in b_vals if want(a, b) is not None]
    p, (lit,) = _run(ty, [op_form.format(a=hex(a), b=hex(b)) for a, b in grid])
    assert _folded(p)
    assert lit == [want(a, b) for a, b in grid], op_form
    bs = [b for b in b_vals if all(want(a, b) is not None for a in a_vals)]
    p, con = _run(ty, [op_form.format(a="a", b=hex(b)) for b in bs],
                  f"reg {ty} a", [(a,) for a in a_vals])
    assert _inlined(p) or "/" in op_form or "%" in op_form  # a divisor is checked
    assert con == [[want(a, b) for b in bs] for a in a_vals], op_form
    grid = [(a, b) for a, b in grid if b < 1 << int(count_ty[1:])]  # a u8 count stops at 255
    p, par = _run(ty, [op_form.format(a="a", b="b")], f"reg {ty} a, reg {count_ty} b", grid)
    assert par == [[want(a, b)] for a, b in grid], op_form


def _nonzero(want):
    return lambda a, b: None if b == 0 else want(a, b)


@pytest.mark.parametrize("w", words.WIDTHS)
@pytest.mark.parametrize("op", ARITH + SHIFTS)
def test_binary_operator_agrees(op, w):
    shift = op in SHIFTS
    want = lambda a, b: _want(op, w, a, b)  # noqa: E731
    if op in ("/", "%"):
        want = _nonzero(want)
    _check(f"({{a}} {op} {{b}})", f"u{w}", _boundary(w),
           _counts(w) if shift else _boundary(w), want, "u8" if shift else f"u{w}")


def _rotated(op, w, a, b):
    """a rotated by b at width w, written out here as two shifts or'd."""
    m = (1 << w) - 1
    if op == "<<r":
        return ((a << b) | (a >> (w - b))) & m
    return ((a >> b) | (a << (w - b))) & m


@pytest.mark.parametrize("w", words.WIDTHS)
@pytest.mark.parametrize("op", ["<<r", ">>r"])
def test_rotate_is_two_shifts_ored(op, w):
    """Folding, generated code (a literal count and a computed one) and
    words.evaluator each rotate as two shifts or'd do, at every count
    0..w; test_binary_operator_agrees compares instantiations of one
    definition, so it cannot find that definition wrong."""
    rng = random.Random(w)
    vals = _boundary(w) + [rng.getrandbits(w) for _ in range(3)]
    counts = range(w + 1)
    want = lambda a, b: _rotated(op, w, a, b)  # noqa: E731
    f = words.evaluator(op, w)
    assert [f(a, b) for a in vals for b in counts] == [want(a, b) for a in vals for b in counts]
    _check(f"({{a}} {op} {{b}})", f"u{w}", vals, counts, want, "u8")


@pytest.mark.parametrize("w", words.WIDTHS)
@pytest.mark.parametrize("inner, outer", COMPOSED)
def test_composed_operators_agree(inner, outer, w):
    """(a inner b) outer c: the inner result is a word of width w before
    the shift, also when both operands are literals."""
    for c in _counts(w):
        want = lambda a, b: _want(outer, w, _want(inner, w, a, b), c)  # noqa: E731
        form = f"(({{a}} {inner} {{b}}) {outer} {c})"
        _check(form, f"u{w}", _boundary(w), _boundary(w), want, f"u{w}")
    grid = [(a, b, c) for a in _boundary(w) for b in _boundary(w) for c in _counts(w) if c < 256]
    _, par = _run(f"u{w}", [f"((a {inner} b) {outer} c)"],
                  f"reg u{w} a, reg u{w} b, reg u8 c", grid)
    assert par == [[_want(outer, w, _want(inner, w, a, b), c)] for a, b, c in grid]


@pytest.mark.parametrize("w", words.WIDTHS)
@pytest.mark.parametrize("op", sorted(UNARY_FNS))
def test_unary_operator_agrees(op, w):
    vals = _boundary(w)
    want = [UNARY_FNS[op](Word(w, a)).value for a in vals]
    p, (lit,) = _run(f"u{w}", [f"{op}{hex(a)}" for a in vals])
    assert _folded(p) and lit == want
    _, par = _run(f"u{w}", [f"{op}a"], f"reg u{w} a", [(a,) for a in vals])
    assert par == [[x] for x in want]
    for c in _counts(w):  # the negation is a word before the shift
        shifted = [words.shr(Word(w, x), c).value for x in want]
        p, (lit,) = _run(f"u{w}", [f"(({op}{hex(a)}) >> {c})" for a in vals])
        assert _folded(p) and lit == shifted
        _, par = _run(f"u{w}", [f"(({op}a) >> {c})"], f"reg u{w} a", [(a,) for a in vals])
        assert par == [[x] for x in shifted]


@pytest.mark.parametrize("n, w", LANE_SHAPES)
@pytest.mark.parametrize("op", LANE_OPS)
def test_lane_operator_agrees(op, n, w):
    shift = op in ("<<", ">>")
    operands = _lane_operands(n, w)
    _check(f"({{a}} {op}{n}u{w} {{b}})", f"u{n * w}", operands,
           _counts(w) if shift else operands,
           lambda a, b: _lane_want(op, n, w, a, b), "u8" if shift else f"u{n * w}")


@pytest.mark.parametrize("n, w", LANE_SHAPES)
def test_lane_sum_of_computed_operands_agrees(n, w):
    """Lane-wise + reads each operand twice: an operand that is computed,
    not a name or a literal, is evaluated once, into a temporary that
    its second read takes."""
    ops = _lane_operands(n, w)
    grid = [(a, b) for a in ops for b in ops]
    p, got = _run(f"u{n * w}", [f"((a ^ b) +{n}u{w} (a | b))"],
                  f"reg u{n * w} a, reg u{n * w} b", grid)
    assert ":= (v_a ^ v_b)" in function_sources(p)["f"]
    assert got == [[_lane_want("+", n, w, a ^ b, a | b)] for a, b in grid]


@pytest.mark.parametrize("w", words.WIDTHS)
@pytest.mark.parametrize("op", ["/", "%"])
def test_division_by_zero_is_not_folded(op, w):
    """A zero divisor faults where the division runs, in every form."""
    for text in (f"x = 5 {op} 0;", f"x = a {op} 0;", f"x = a {op} b;", f"x = a; x {op}= b;"):
        p = expand(typecheck(parse(
            f"fn f(reg u{w} a, reg u{w} b) -> reg u{w} {{\n  reg u{w} x;\n  {text}\n"
            f"  return x;\n}}\n")))
        with pytest.raises(interp.DivByZero) as exc:
            interp.run(p, "f", [5, 0], memory.Memory())
        assert exc.value.loc is not None, text
    with pytest.raises(ZeroDivisionError):
        words.evaluator(op, w)(5, 0)


@pytest.mark.parametrize("w", words.WIDTHS)
@pytest.mark.parametrize("op", SHIFTS)
def test_count_out_of_range_is_not_folded(op, w):
    """A literal count above the width is an expansion error at its node:
    the shift, or the statement of a compound assignment.  A computed
    count faults when the shift runs."""
    c = w + 1

    def build(text):
        return expand(typecheck(parse(
            f"fn f(reg u{w} a, reg u8 c) -> reg u{w} {{\n  reg u{w} x;\n  {text}\n"
            f"  return x;\n}}\n")))

    for text, col in [(f"x = 1 {op} {c};", 9), (f"x = a {op} {c};", 9),
                      (f"x = a; x {op}= {c};", 10)]:
        with pytest.raises(ExpandError, match=rf"^3:{col}: shift count {c} outside \[0, {w}\]$"):
            build(text)
    if c < 256:  # a computed count is a u8
        with pytest.raises(interp.ContractViolation,
                           match=rf"shift count {c} outside \[0, {w}\]") as exc:
            interp.run(build(f"x = a {op} c;"), "f", [1, c], memory.Memory())
        assert exc.value.loc == (3, 9)
    with pytest.raises(words.WordError):
        words.evaluator(op, w)(1, c)


@pytest.mark.parametrize("text, ty, want", [
    ("(0 - 1) >> 60", "u64", 0xF),
    ("(16 * 16) >> 4", "u8", 0),
    ("(0 - 1) >>s 60", "u64", (1 << 64) - 1),
    ("(0xffffffff +4u32 1) >>4u32 1", "u128", 0),
])
def test_folding_follows_word_semantics(text, ty, want):
    p, (got,) = _run(ty, [text])
    assert _folded(p) and got == [want]


def test_the_divisor_is_evaluated_and_checked_first():
    p = expand(typecheck(parse(
        "fn f(reg u64 p, reg u64 q) -> reg u64 {\n  reg u64 x;\n"
        "  x = [p] / [q];\n  return x;\n}\n")))
    m = memory.store_bytes(memory.add_region(memory.Memory(), 0, 16), 0, bytes(16))
    trace = []
    with pytest.raises(interp.DivByZero):
        interp.run(p, "f", [100, 8], m, trace=trace)  # [p] is outside the region
    assert trace == [8]


def test_folding_keeps_an_out_of_range_count_for_the_run():
    """A count out of range inside a folded expression is an expansion
    error at the shift that has it, not a fault left for the run."""
    with pytest.raises(ExpandError, match=r"^3:10: shift count 40 outside \[0, 32\]$"):
        expand(typecheck(parse(
            "fn f() -> reg u32 {\n  reg u32 x;\n  x = (1 << 40) >> 20;\n  return x;\n}\n")))


def test_the_grid_covers_every_definition():
    assert (ARITH, SHIFTS, LANE_OPS) == (list(words.ARITH), list(words.SHIFTS), list(words.LANES))
    assert sorted(UNARY_FNS) == sorted(words.UNARY)
