"""Fixed-width machine words, and the one definition of the word operators.

A word is a pair (width, value) with the value always reduced modulo
2^width.  Widths are restricted to the sizes the instruction set knows
about; one-bit conditions are plain Python bools, never 1-bit words.
All operations are pure.

Each word operator of the DSL is defined here once, as one Python
expression in ARITH, SHIFTS, UNARY or LANES, and every user of an
operator instantiates that expression.  The generated code (codegen)
substitutes the operands' code, a constant count and the values of
NAMES into it.  `evaluator` compiles it once per operator and width;
constant folding (expand), the run-time helpers for computed counts and
division (interp._wbin), the OpsV forms of VPADD, VPSLL
and VPSRL (isa) and the Word functions below call the result.  At the
unbounded width (w None) an arithmetic operator, `<<`, `>>` or a unary
one is the operator on compile-time `int`s (typecheck.const_eval).
"""

from __future__ import annotations

from functools import cache
from typing import Callable

WIDTHS = (8, 16, 32, 64, 128, 256)

MASK = {w: (1 << w) - 1 for w in WIDTHS}


class WordError(ValueError):
    """Contract violation in the word layer (bad width, bad shift count)."""


class Word:
    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int):
        if width not in MASK:
            raise WordError(f"unsupported word width {width}")
        self.width = width
        self.value = value & MASK[width]

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.width == other.width
            and self.value == other.value
        )

    def __repr__(self):
        return f"Word({self.width}, 0x{self.value:0{self.width // 4}x})"


def to_sint(x: Word) -> int:
    """Two's-complement reading of the value."""
    if x.value >> (x.width - 1):
        return x.value - (1 << x.width)
    return x.value


# ------------------------------------------------------ the operators
#
# Each operator is one expression over its operands a and b (b is the
# count of a shift) at width w, using the names of NAMES.  Operands are
# ints in [0, 2^w); so is every result.  At the unbounded width the mask
# m is -1 and operands and results are any ints.

ARITH = {
    "+": "((a + b) & m)",
    "-": "((a - b) & m)",
    "*": "((a * b) & m)",
    "/": "(a // b)",  # ZeroDivisionError for a zero divisor
    "%": "(a % b)",
    "&": "(a & b)", "|": "(a | b)", "^": "(a ^ b)",
}

# Defined for counts 0 <= b <= w only, b >= 0 if unbounded (count_error).
SHIFTS = {
    "<<": "((a << b) & m)",
    ">>": "(a >> b)",
    ">>s": "((((a ^ t) - t) >> b) & m)",
    "<<r": "(((a * d) >> k) & m)",
    ">>r": "(((a * d) >> b) & m)",
}

BINARY = {**ARITH, **SHIFTS}

UNARY = {"-": "(-a & m)", "~": "(~a & m)"}

# The lane forms: a and b hold n lanes of w bits each.  + is SWAR
# addition; a shift moves every lane by the same count b, which may
# exceed w (the lanes then become 0).
LANES = {
    "+": "(((a & L) + (b & L)) ^ ((a ^ b) & H))",
    "<<": "((a & K) << b)",
    ">>": "((a >> b) & K)",
    "&": "(a & b)", "|": "(a | b)", "^": "(a ^ b)",
}

# The other names the expressions use, each an expression over the
# width w, the lane count n (1 for a whole word), the count b and the
# names before it.
NAMES = (
    ("m", "(1 << w) - 1"),  # the mask of a word or lane
    ("d", "(1 << w) + 1"),  # a * d is two copies of a side by side; a rotate shifts it
    ("t", "1 << (w - 1)"),  # its top bit
    ("r", "lanes(1, n, w)"),  # 1 in every lane
    ("H", "t * r"),  # every lane's top bit
    ("L", "(m >> 1) * r"),  # every lane's bits below its top bit
)
COUNT_NAMES = (
    ("k", "w - b"),  # the other count of a rotate
    ("K", "(m >> b) * r"),  # every lane's bits that a shift by b keeps in the lane
)


def lanes(pattern: int, n: int, w: int) -> int:
    """The n-lane repetition of a w-bit pattern."""
    return sum(pattern << (w * i) for i in range(n))


def count_error(w: int | None, b: int) -> str | None:
    """What breaks the SHIFTS' precondition on the count b at width w."""
    if w is None:
        return None if b >= 0 else f"negative shift count {b}"
    return None if 0 <= b <= w else f"shift count {b} outside [0, {w}]"


@cache
def constants(w: int | None, n: int = 1, b: int | None = None) -> dict:
    """The values of the NAMES at width w over n lanes, with those of the
    COUNT_NAMES for a known count b (a cached dict: read it only).  The
    unbounded width has the mask m = -1 only."""
    env = {"w": w, "n": n, "b": b, "lanes": lanes}
    if w is None:
        env["m"] = -1
        return env
    for name, expr in NAMES + (COUNT_NAMES if b is not None else ()):
        env[name] = eval(expr, env)
    return env


@cache
def evaluator(op: str, w: int | None, n: int | None = None, unary: bool = False) -> Callable:
    """`op` at width w as a function of (a, b), or of a alone when
    `unary`, or its lane form over n lanes of w bits when n is given.
    It raises WordError for a shift count outside [0, w] (below 0 when
    w is None) and ZeroDivisionError for a zero divisor."""
    expr = (UNARY if unary else LANES if n else BINARY)[op]
    ns = dict(constants(w, n or 1), count_error=count_error, WordError=WordError)
    body = "".join(f"    {name} = {e}\n" for name, e in COUNT_NAMES) if op in SHIFTS and w else ""
    if op in SHIFTS and not n:
        body = "    if e := count_error(w, b): raise WordError(e)\n" + body
    exec(f"def f({'a' if unary else 'a, b'}):\n{body}    return {expr}\n", ns)
    return ns["f"]


# -------------------------------------------------- Word operations
#
# Thin wrappers of the definitions above: shr is the logical right
# shift, sar the arithmetic (sign-filling) one, and mul truncates.  A
# shift count outside [0, width] raises WordError.  Nothing on the run
# path calls them: they are the specification layer of the word laws
# (criterion 1, tests/test_words.py and tests/test_word_ops.py; see
# docs/lang.md, "Specification layers").


def _shift(op: str) -> Callable:
    def f(x: Word, i: int) -> Word:
        return Word(x.width, evaluator(op, x.width)(x.value, i))
    return f


def _binary(op: str) -> Callable:
    def f(x: Word, y: Word) -> Word:
        _check_same(x, y)
        return Word(x.width, evaluator(op, x.width)(x.value, y.value))
    return f


def _unary(op: str) -> Callable:
    def f(x: Word) -> Word:
        return Word(x.width, evaluator(op, x.width, unary=True)(x.value))
    return f


shl, shr, sar, rol, ror = map(_shift, ("<<", ">>", ">>s", "<<r", ">>r"))
add, sub, mul, and_, or_, xor = map(_binary, ("+", "-", "*", "&", "|", "^"))
neg, not_ = map(_unary, ("-", "~"))


def _check_same(x: Word, y: Word) -> None:
    if x.width != y.width:
        raise WordError(f"width mismatch: {x.width} vs {y.width}")


def mul_wide(x: Word, y: Word) -> tuple[Word, Word]:
    """Non-truncated unsigned product, returned as (hi, lo)."""
    _check_same(x, y)
    p = x.value * y.value
    return Word(x.width, p >> x.width), Word(x.width, p)


def split(x: Word, sub_width: int) -> list[Word]:
    """View a word as an array of sub-words, least significant first."""
    if sub_width not in MASK or x.width % sub_width != 0:
        raise WordError(f"cannot split width {x.width} into {sub_width}-bit parts")
    mask = MASK[sub_width]
    v = x.value
    out = []
    for _ in range(x.width // sub_width):
        out.append(Word(sub_width, v & mask))
        v >>= sub_width
    return out


def join(ws: list[Word], total_width: int) -> Word:
    """Inverse of split: pack sub-words, least significant first."""
    if not ws:
        raise WordError("cannot join an empty list")
    sub_width = ws[0].width
    if any(w.width != sub_width for w in ws):
        raise WordError("join requires uniform sub-word width")
    if sub_width * len(ws) != total_width:
        raise WordError(
            f"{len(ws)} x {sub_width} bits does not make a {total_width}-bit word"
        )
    v = 0
    for w in reversed(ws):
        v = (v << sub_width) | w.value
    return Word(total_width, v)
