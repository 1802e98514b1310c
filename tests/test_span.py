"""ir.span is the one definition of the bytes an access covers and of its
last in-bounds index.  On stack arrays of every element width, lengths 1
to 5 and every view of at most 64 bits, element and byte views alike,
expand's rejection of a literal index, the run's OutOfBoundsArray and
safety's array-bounds finding all agree with it."""

import functools
import itertools

import pytest

from jamin import interp, ir, safety
from jamin.expand import ExpandError, expand
from jamin.memory import Memory
from jamin.parser import parse
from jamin.typecheck import typecheck

VIEWS = list(itertools.product((None, 8, 16, 32, 64), (False, True)))  # (width, byte view)


def _access(width, byte_mode, index: str) -> str:
    return f"{f'(u{width})' if width else ''}s{'.' if byte_mode else ''}[{index}]"


def _program(bits: int, length: int, at, counts) -> str:
    """`ld` reads s at a run-time index i, every element written first,
    `st` writes it there, and `loops` writes it under `while (i < k)`, one
    loop per count k, the n-th access at line 17 + 5 * n."""
    decl = f"stack u{bits}[{length}] s"
    loops = "".join(f"  i = 0;\n  while (i < {k}) {{\n    {at('i')} = 0;\n    i = i + 1;\n  }}\n"
                    for k in counts)
    return (f"fn ld(reg u64 i) -> reg u64 {{\n  {decl};\n  reg u64 r;\n"
            f"  for j = 0 to {length - 1} {{ s[j] = 0; }}\n"
            f"  r = {at('i')};\n  return r;\n}}\n"
            f"fn st(reg u64 i) {{\n  {decl};\n  {at('i')} = 0;\n}}\n"
            f"fn loops() {{\n  {decl};\n  reg u64 i;\n{loops}}}\n")


@pytest.mark.parametrize("bits", (8, 16, 32, 64))
def test_expand_run_and_safety_agree_with_span(bits):
    for length, (width, byte_mode) in itertools.product(range(1, 6), VIEWS):
        at = functools.partial(_access, width, byte_mode)
        total = length * bits // 8
        probe = typecheck(parse(_program(bits, length, at, ())))
        nb, scale, last = ir.span(probe.func("st").body[1].dests[0])
        assert (nb, scale) == ((width or bits) // 8, 1 if byte_mode else (width or bits) // 8)
        assert [i for i in range(-1, total + 1) if 0 <= i <= last] == \
            [i for i in range(-1, total + 1) if 0 <= i * scale and i * scale + nb <= total]
        view = (bits, length, width, byte_mode)

        for i in range(-1, total + 1):  # a literal index, known only once expanded
            text = f"fn f() {{\n  stack u{bits}[{length}] s;\n  inline int j = {i};\n"
            try:
                expand(typecheck(parse(f"{text}  {at('j')} = 0;\n}}\n")))
                rejected = False
            except ExpandError as exc:
                assert f"index {i} outside s" in str(exc)
                rejected = True
            assert rejected == (not 0 <= i <= last), (view, i)

        counts = sorted({k for k in (1, 2, last, last + 1, last + 2) if k >= 1})
        p = expand(typecheck(parse(_program(bits, length, at, counts))))
        for entry, i in itertools.product(("ld", "st"), range(total + 1)):
            try:
                interp.run(p, entry, [i], Memory())
                faulted = False
            except interp.OutOfBoundsArray:
                faulted = True
            assert faulted == (i > last), (view, entry, i)

        flagged = {f.where for f in safety.check_safety(p, "loops") if f.kind == "array-bounds"}
        assert flagged == {f"{17 + 5 * n}:5" for n, k in enumerate(counts) if k - 1 > last}, view
