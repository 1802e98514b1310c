"""Generated code for intrinsics: table-built descriptors are inlined,
and only the destinations a statement keeps are computed."""

import itertools
import re

import pytest

from jamin import codegen, interp, isa, memory
from jamin.expand import expand
from jamin.ir import SAssign
from jamin.parser import parse
from jamin.primitives.corpus import load_program
from jamin.typecheck import typecheck
from jamin.words import Word

TABLE_BUILT = sorted(n for n, d in isa.registry().items() if d.table is not None)


def prep(text):
    return expand(typecheck(parse(text)))


def _boundary(width, op_width):
    """0, 1, the top bit, the mask, the mask minus 1 and the shift counts
    0, 1, w-1 and w; False and True for a flag."""
    if width == "flag":
        return [False, True]
    mask = (1 << width) - 1
    vals = [0, 1, 1 << (width - 1), mask, mask - 1, op_width - 1, op_width]
    return list(dict.fromkeys(v & mask for v in vals))


def _ty(width):
    return "bool" if width == "flag" else f"u{width}"


def _program(d, keep):
    """fn f(sources) -> the kept outputs, binding the others to `_`."""
    params = ", ".join(f"reg {_ty(w)} a{i}" for i, w in enumerate(d.src_widths))
    rets = ", ".join(f"reg {_ty(d.dst_widths[i])}" for i in keep)
    decls = "".join(f"  reg {_ty(d.dst_widths[i])} o{i};\n" for i in keep)
    dests = ", ".join(f"o{i}" if i in keep else "_" for i in range(len(d.destinations)))
    args = ", ".join(f"a{i}" for i in range(len(d.sources)))
    outs = ", ".join(f"o{i}" for i in keep)
    return prep(f"fn f({params}) -> {rets} {{\n{decls}  {dests} = #{d.name}({args});\n"
                f"  return {outs};\n}}\n")


def _same(got, want):
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("name", TABLE_BUILT)
def test_inlined_destinations_match_exec_intrinsic(name):
    d = isa.lookup(name)
    n = len(d.destinations)
    variants = [list(range(n))] + ([[i] for i in range(n)] if n > 1 else [])
    programs = [(keep, _program(d, keep)) for keep in variants]
    grid = itertools.product(*(_boundary(w, d.size) for w in d.src_widths))
    for args in grid:
        want = isa.exec_intrinsic(
            d, [a if w == "flag" else Word(w, a) for a, w in zip(args, d.src_widths)])
        for keep, p in programs:
            if any(want[i] is isa.UNDEF for i in keep):
                with pytest.raises(interp.UninitializedUse):
                    interp.run(p, "f", list(args), memory.Memory())
                continue
            got = interp.run(p, "f", list(args), memory.Memory()).results
            assert all(_same(g, want[i]) for g, i in zip(got, keep)), (args, keep, got)


def test_destinations_may_name_the_sources():
    p = prep(
        """
fn f(reg u64 x, reg u64 y, reg bool c) -> reg u64, reg u64, reg bool {
  _, c, _, _, _, x = #x86_ADC_64(x, y, c);
  _, _, _, _, _, y, x = #x86_MUL_64(x, y);
  return x, y, c;
}
"""
    )
    x, y, c = (1 << 64) - 1, (1 << 64) - 3, True
    s = x + y + c
    prod = (s & ((1 << 64) - 1)) * y
    got = interp.run(p, "f", [x, y, c], memory.Memory()).results
    assert got == [Word(64, prod & ((1 << 64) - 1)), Word(64, prod >> 64), True]


def _generated_source(name) -> str:
    p = load_program(name)
    lines = []
    define = codegen._FnGen.define

    def record(self, fname, body):
        lines.extend(body)
        return define(self, fname, body)

    ns = interp._namespace(p)
    codegen._FnGen.define = record
    try:
        for fn in p.funcs:
            if not fn.inline:
                codegen.compile_function(p, fn, ns)
    finally:
        codegen._FnGen.define = define
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["poly1305_ref", "poly1305_avx2"])
def test_poly1305_intrinsics_are_inline_or_direct_calls(name):
    src = _generated_source(name)
    assert "#x86" not in src and "S_x86_ADD_64" not in src
    assert not re.search(r"\b_intrn?\(", src)
    assert not re.search(r"^\s*_r\[\d+\]\s*$", src, re.M)


def test_destination_count_is_checked_statically():
    p = prep(
        """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  reg bool cf;
  _, cf, _, _, _, a = #x86_ADD_64(a, b);
  return a;
}
"""
    )
    s = next(s for s in p.func("f").body if isinstance(s, SAssign) and len(s.dests) == 6)
    s.dests = s.dests[1:]  # what typecheck rejects, reaching the executor
    with pytest.raises(interp.ContractViolation,
                       match="#x86_ADD_64 produced 6 values for 5 destinations") as exc:
        interp.run(p, "f", [1, 2], memory.Memory())
    assert exc.value.loc == s.loc
