"""Generated code for intrinsics: table-built descriptors are inlined,
and only the destinations a statement keeps are computed."""

import hashlib
import itertools
import random
import re

import pytest

from gensrc import function_sources, line_count
from harness import tagged
from lanes import exec_vector
from test_isa_scalar_golden import _op_width
from test_rolled import observe
from jamin import codegen, flow, interp, ir, isa, memory
from jamin.codegen import PIECE
from jamin.expand import expand
from jamin.ir import ArrayTy, EArr, EVar, SAssign, SIf, SRepeat, SReturn, SWhile
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.typecheck import TypecheckError, typecheck
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
    grid = itertools.product(*(_boundary(w, _op_width(d)) for w in d.src_widths))
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


NAMING = """
fn f(reg u64 x, reg u64 y, reg bool c) -> reg u64, reg u64, reg bool {
  _, c, _, _, _, x = #x86_ADC_64(x, y, c);
  _, _, _, _, _, y, x = #x86_MUL_64(x, y);
  return x, y, c;
}
"""


def test_destinations_may_name_the_sources():
    p = prep(NAMING)
    x, y, c = (1 << 64) - 1, (1 << 64) - 3, True
    s = x + y + c
    prod = (s & ((1 << 64) - 1)) * y
    got = interp.run(p, "f", [x, y, c], memory.Memory()).results
    assert got == [Word(64, prod & ((1 << 64) - 1)), Word(64, prod >> 64), True]


def _generated_source(name) -> str:
    return "".join(function_sources(load_program(name)).values())


@pytest.mark.parametrize("name", ["poly1305_ref", "poly1305_avx2"])
def test_poly1305_intrinsics_are_inline_or_direct_calls(name):
    src = _generated_source(name)
    assert "#x86" not in src and "S_x86_ADD_64" not in src
    assert not re.search(r"\b_intrn?\(", src)
    assert not re.search(r"^\s*_r\[\d+\]\s*$", src, re.M)


def test_destination_count_is_checked_statically():
    """Typecheck rejects an intrinsic statement whose destinations do not
    match its outputs, at the statement; codegen does not check again."""
    with pytest.raises(TypecheckError,
                       match="^4:3: f: #x86_ADD_64 produces 6 values, 5 destinations given$"):
        prep(
            """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  reg bool cf;
  _, cf, _, _, a = #x86_ADD_64(a, b);
  return a;
}
"""
        )


@pytest.mark.parametrize("name", TABLE_BUILT)
def test_never_undef_outputs_are_defined(name):
    d = isa.lookup(name)
    if name.split("_")[1] in ("ADD", "ADC", "SUB", "SBB"):
        assert 1 in d.table.never_undef  # CF
    for args in itertools.product(*(_boundary(w, _op_width(d)) for w in d.src_widths)):
        outs = d.sem(list(args))
        assert all(outs[i] is not isa.UNDEF for i in d.table.never_undef), args


@pytest.mark.parametrize("name", ["poly1305_ref", "poly1305_avx2"])
def test_carries_read_without_undef_checks(name):
    """The carries of ADD/ADC/SUB/SBB are never UNDEF, so no read of one
    goes through `_uu` (19 and 42 reads did)."""
    assert "is not U else _uu" not in _generated_source(name)


def _register_arrays(fn) -> set:
    return {n for n, (storage, ty) in fn.envtypes.items()
            if storage == "reg" and isinstance(ty, ArrayTy)}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_no_register_array_is_a_list(name):
    """Every element of a register array is a Python local (e_<root>_<k>):
    no list is built or copied for one, and no register-array local
    (v_<name>) is named, as no corpus function takes one as a parameter."""
    p = load_program(name)
    sources = function_sources(p)
    for fn in p.funcs:
        if fn.inline:
            continue
        regs = _register_arrays(fn)
        assert not regs & {q.name for q in fn.params}
        src = sources[fn.name]
        assert "[U] *" not in src and "list(" not in src
        assert not {n for n in re.findall(r"\bv_(\w+)", src)} & regs, fn.name
        assert bool(regs) == bool(re.search(r"\be_\w+_\d+\b", src)), fn.name


def test_copies_of_stack_arrays_stay_copies():
    """A copy of a live stack array copies its StackArray, and a copy of
    a dead one takes it over."""
    live = "".join(function_sources(prep(LIVE_SOURCES["stack array read after"][0])).values())
    assert "v_t = v_s.copy()" in live
    dead = "".join(function_sources(prep("""
fn f(reg u64 x) -> reg u64 {
  stack u64[2] s, t;
  reg u64 r;
  s[0] = x; s[1] = 0;
  t = s;
  r = t[0];
  return r;
}""")).values())
    assert "v_t = v_s\n" in dead and ".copy()" not in dead


# generated lines per program when each round-loop iteration was emitted
UNROLLED_LINES = {"chacha20_scalar": 2510, "chacha20_avx2_small": 1494,
                  "chacha20_avx2_big": 4390}


@pytest.mark.parametrize("name", sorted(UNROLLED_LINES))
def test_chacha20_round_loops_are_rolled(name):
    """The ten iterations of each `for r = 0 to 9` round loop are emitted
    once, inside a Python loop, so the generated source is at most 40%
    of its lines with every iteration emitted."""
    assert line_count(load_program(name)) <= 0.4 * UNROLLED_LINES[name]


def test_pieces_take_no_round_loop_arrays():
    """The quarter rounds' arrays (w and its inline copies w__i..., one
    class of the element view, e_w_<k>) are written as a whole before
    they are read in every block that mentions them, and nothing outside
    the piece holding the block does, so no piece takes or returns one."""
    src = _generated_source("chacha20_scalar")
    assert "e_w_0 = " in src and "e_w__i" not in src
    pieces = re.findall(r"^def Q_\w+\((.*)\):$", src, re.M)
    assert len(pieces) == 2 and not any("e_w_" in params for params in pieces)
    assert "e_w_" not in "".join(re.findall(r"^    return B.*$", src, re.M))


def _live_before(stmts, live: set, after: dict) -> set:
    """The locals live before `stmts` from those live after them, written
    out here apart from codegen: a name is live where some path reads it
    before rebinding it as a whole (flow.summary), the loops at their
    fixpoints.  after[id(s)] is set to the names live after each s."""
    for s in reversed(stmts):
        after[id(s)] = live
        if type(s) is SIf:
            live = (_live_before(s.then, live, after) | _live_before(s.els, live, after)
                    | set(flow.reads(s.cond)))
        elif type(s) in (SWhile, SRepeat):
            head = set(live)
            if type(s) is SWhile:
                head |= set(flow.reads(s.cond))
            while not (new := _live_before(s.body, head, after)) <= head:
                head |= new
            _live_before(s.body, head, after)
            live = head
        elif type(s) is SReturn:
            live = set(flow.summary(s)[0])
        else:
            reads, rebinds = flow.summary(s)
            live = (live - set(rebinds)) | set(reads)
    return live


def _element_stores(stmts) -> set:
    """The register arrays `stmts` store an element of."""
    out = set()
    for s in stmts:
        if type(s) is SIf:
            out |= _element_stores(s.then) | _element_stores(s.els)
        elif type(s) in (SWhile, SRepeat):
            out |= _element_stores(s.body)
        elif type(s) is SAssign:
            out.update(lv.name for lv in s.dests if type(lv) is EArr and lv.arr_storage == "reg")
    return out


def test_pieces_take_and_return_their_live_locals(monkeypatch):
    """Each piece of a corpus function takes exactly the locals it mentions
    that are live into it, and returns exactly the ones it rebinds that
    are live after it, a register array as the elements of its class in
    the element view; an element store rebinds one."""
    runs, defined = [], {}
    piece, define = codegen._FnGen.piece, codegen._FnGen.define

    def record_piece(self, run):
        before = self.pieces
        piece(self, run)
        if self.pieces > before:
            runs.append((self.fn, list(run), defined[id(self.fn)], self.root))

    def record_define(self, name, lines):
        defined[id(self.fn)] = lines  # the last definition: the piece's
        return define(self, name, lines)

    monkeypatch.setattr(codegen._FnGen, "piece", record_piece)
    monkeypatch.setattr(codegen._FnGen, "define", record_define)
    for name in PROGRAMS:
        function_sources(load_program(name))
    assert len(runs) == 20
    after_of = {}
    for fn, run, lines, root in runs:
        if id(fn) not in after_of:  # several programs define a chacha20
            after_of[id(fn)] = {}
            _live_before(fn.body, set(), after_of[id(fn)])
        after = after_of[id(fn)][id(run[-1])]
        locals_ = {q.name for q in fn.params} | set(fn.envtypes)
        mentioned, rebinds = set(), set()
        for s in run:
            reads, rebound = flow.summary(s)
            mentioned.update(reads, rebound)
            rebinds.update(rebound)
        rebinds |= _element_stores(run)
        live_in = _live_before(run, after, {})
        regs = _register_arrays(fn)

        def names(live):
            out = [[f"e_{root[n]}_{k}" for k in range(fn.envtypes[n][1].length)]
                   if n in regs else [f"v_{n}"] for n in sorted(live)]
            return list(dict.fromkeys(x for xs in out for x in xs))

        params = re.findall(r"\b[ve]_\w+", lines[0])
        results = re.findall(r"\b[ve]_\w+", lines[-1])
        assert params == names(locals_ & mentioned & live_in), lines[0]
        assert results == names(locals_ & rebinds & after), lines[0]


AFTER_LOOP = """
fn f(reg u64 n) -> reg u64 {
  reg u64 w, x;
  w = 7;
  x = 0;
@PAD@
  while (x < n) { w = x + 1; x = x + w; }
@PAD2@
  x = x + w;
  return x;
}"""


@pytest.mark.parametrize("later", [False, True], ids=["same-piece", "later-piece"])
def test_name_written_in_a_loop_read_after_it(monkeypatch, later):
    """w is written before it is read in the loop body, which may not run,
    and read after the loop: in the loop's piece or in a later one.  The
    pieced function keeps w's value from before the loop as the unpieced
    one does."""
    pad = "  x = x + 1;\n" * (PIECE - 3)
    text = AFTER_LOOP.replace("@PAD@", pad).replace("@PAD2@", pad if later else "")
    pieced = prep(text)
    assert "def Q_f_2" in "".join(function_sources(pieced).values())
    monkeypatch.setattr(codegen, "PIECE", 10 * PIECE)
    whole = prep(text)
    assert "def Q_" not in "".join(function_sources(whole).values())
    for n in (0, PIECE, 2 * PIECE):
        got = interp.run(pieced, "f", [n], memory.Memory())
        assert got.results == interp.run(whole, "f", [n], memory.Memory()).results


LIVE_SOURCES = {
    "read after": ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  a[0] = x; a[1] = 1;
  b = a;
  b[0] = 7;
  return a[0];
}""", lambda x: x),
    "element written after": ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  a[0] = x; a[1] = 1;
  b = a;
  a[0] = 7;
  return b[0];
}""", lambda x: x),
    "read in the next iteration": ("""
fn f(reg u64 n) -> reg u64 {
  reg u64[2] a, b;
  reg u64 r;
  a[0] = 1; a[1] = 1;
  r = 0;
  while (0 < n) {
    r = r + a[0];
    b = a;
    b[0] = 7;
    n = n - 1;
  }
  return r;
}""", lambda n: n),
    "passed on": ("""
fn g(reg u64[2] c) -> reg u64 {
  reg u64 r;
  r = c[0];
  return r;
}
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  reg u64 r;
  a[0] = x; a[1] = 0;
  b = a;
  b[0] = 7;
  r = g(a);
  return r;
}""", lambda x: x),
    "stack array read after": ("""
fn f(reg u64 x) -> reg u64 {
  stack u64[2] s, t;
  reg u64 r;
  s[0] = x; s[1] = 0;
  t = s;
  t[0] = 7;
  r = s[0];
  return r;
}""", lambda x: x),
}


LIVE_SOURCES["read in the next iteration of a rolled loop"] = ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  reg u64 r;
  a[0] = x; a[1] = 1;
  r = 0;
  for i = 0 to 2 {
    r = r + a[0];
    b = a;
    b[0] = 7;
  }
  return r;
}""", lambda x: 3 * x)


@pytest.mark.parametrize("case", sorted(LIVE_SOURCES))
def test_copies_of_live_sources_stay_copies(case):
    text, want = LIVE_SOURCES[case]
    p = prep(text)
    for x, mode in itertools.product((0, 3), (interp.OPSV, interp.OPS)):
        got = interp.run(p, "f", [x], memory.Memory(), vector_mode=mode).results
        assert got == [Word(64, want(x))]


# Register-array copies under the element view: a copy whose source is
# dead after it shares one set of element locals with it only where
# their live ranges do not interfere (codegen's coalesce).  Each case:
# its source, the result at x = 5, and whether the copy the case is
# about coalesces.  A coalescing that ignored interference gets every
# case whose copy does not coalesce wrong.
COPIES = {
    "source written after": ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  reg u64 r;
  a[0] = x; a[1] = 0;
  b = a;
  a[0] = 7;
  r = b[0] + a[0];
  return r;
}""", 12, False),
    "one element, and a global": ("""
global u64[1] G = {9};
fn f(reg u64 x) -> reg u64 {
  reg u64[1] a, b, c;
  reg u64 r;
  a[0] = x;
  b = a;
  c = G;
  r = a[0] + b[0] + c[0];
  return r;
}""", 19, False),
    "inline parameter returned": ("""
inline fn g(reg u64[2] c) -> reg u64[2] {
  c[1] = c[0] + 6;
  return c;
}
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  reg u64 r;
  a[0] = x; a[1] = 0;
  b = g(a);
  r = b[1] + a[1];
  return r;
}""", 11, True),
    "source rebound while the destination is live": ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b, c;
  reg u64 r;
  a[0] = x; a[1] = 1;
  c[0] = 100; c[1] = 2;
  b = a;
  a = c;
  r = b[0] + a[0];
  return r;
}""", 105, False),
    "read in the next iteration": ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] b;
  reg u64 r;
  b[0] = 0; b[1] = 0;
  r = 0;
  for i = 0 to 2 {
    reg u64[2] a;
    x = x + 1;
    a[0] = x; a[1] = 0;
    r = r + b[0];
    b = a;
  }
  r = r + b[0];
  return r;
}""", 21, False),
    "read in the next iteration before the source is written": ("""
fn f(reg u64 x) -> reg u64 {
  reg u64[2] b;
  reg u64 r;
  b[0] = 0; b[1] = 0;
  r = 0;
  for i = 0 to 2 {
    r = r + b[0];
    reg u64[2] a;
    x = x + 1;
    a[0] = x; a[1] = 0;
    b = a;
  }
  r = r + b[0];
  return r;
}""", 21, True),
}


def _coalesced(p) -> dict:
    """{the destination of each register-array copy of f: whether it
    shares its source's class}."""
    roots = []
    coalesce = codegen._FnGen.coalesce

    def record(self, regs):
        roots.append(coalesce(self, regs))
        return roots[-1]

    codegen._FnGen.coalesce = record
    try:
        function_sources(p)
    finally:
        codegen._FnGen.coalesce = coalesce
    [root] = roots
    return {s.dests[0].name: root[s.dests[0].name] == root[s.rhs.name]
            for s in ir.walk(p.func("f").body) if type(s) is SAssign and type(s.rhs) is EVar
            and isinstance(s.rhs.ty, ArrayTy) and s.rhs.name in root}


@pytest.mark.parametrize("case", sorted(COPIES))
def test_array_copies_keep_their_values(case):
    text, want, merged = COPIES[case]
    p = prep(text)
    assert _coalesced(p).get("b", False) == merged
    for mode in (interp.OPSV, interp.OPS):
        got = interp.run(p, "f", [5], memory.Memory(), vector_mode=mode).results
        assert got == [Word(64, want)], mode


PASSED = """
fn g(reg u64[2] c) -> reg u64[2] {
  c[1] = c[0] + c[1];
  return c;
}
fn f(reg u64[2] a) -> reg u64[2], reg u64 {
  reg u64[2] b;
  reg u64 r;
  b = g(a);
  r = a[1] + b[1];
  return b, r;
}"""


def test_arrays_are_lists_at_calls_and_runs():
    """A register array is packed into a list at a non-inline call, a
    return and interp.run's results, and unpacked from one at a
    function's entry, so neither side shares the other's elements."""
    p = prep(PASSED)
    src = function_sources(p)
    assert "_r = F_g([e_a_0, e_a_1], B, T, M, O)" in src["f"]
    assert "e_c_0, e_c_1 = v_c" in src["g"] and "_r = ([e_c_0, e_c_1], )" in src["g"]
    arg = [5, 1]
    for mode in (interp.OPSV, interp.OPS):
        got = interp.run(p, "f", [arg], memory.Memory(), vector_mode=mode).results
        assert got == [[Word(64, 5), Word(64, 6)], Word(64, 7)] and arg == [5, 1]


BOUND = ("x86_VPSHUFB_128", "x86_VPSHUFB_256", "x86_VPSHUFD_128", "x86_VPSHUFD_256",
         "x86_VPERMQ_4u64", "x86_VPERM2I128", "x86_VEXTRACTI128", "x86_VINSERTI128")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_vector_intrinsics_are_positional_calls(name):
    """Every vector intrinsic is `(V if O else L)(operands)`: none is
    called through an argument list, and the corpus's selectors and
    imm8s (literals and globals) are all bound, so no generic pair of a
    data movement is called."""
    src = _generated_source(name)
    assert not re.search(r"x86_V\w*\)\(\[", src)
    assert not re.search(r"x86_V.*\]\)\[0\]", src)
    assert not any(f"(S_{n} if O" in src for n in BOUND)


ROT16_G = "0x0d0c0f0e09080b0a0504070601000302_0d0c0f0e09080b0a0504070601000302"
SELECTORS = f"""
global u256 ROT = {ROT16_G};
fn f(reg u256 x, reg u256 y, reg u256 s, reg u8 k)
  -> reg u256, reg u256, reg u256, reg u256, reg u256, reg u128 {{
  reg u256 a, b, c, e, g;
  reg u128 h;
  a = #x86_VPSHUFB_256(x, s);
  b = #x86_VPSHUFB_256(x, ROT);
  c = #x86_VPERM2I128(x, y, k);
  e = #x86_VPERM2I128(x, y, 0x21);
  g = #x86_VPSHUFD_256(x, 0x1b);
  h = #x86_VEXTRACTI128(y, 1);
  return a, b, c, e, g, h;
}}
"""


def test_constant_and_register_selectors_agree():
    """A literal or global selector is bound, a register one is passed to
    the generic pair; in both modes each gives exec_vector's result."""
    p = prep(SELECTORS)
    src = "".join(function_sources(p).values())
    assert "(S_x86_VPSHUFB_256 if O" in src and "(S_x86_VPERM2I128 if O" in src
    assert src.count(" if O else ") == 6 and "G_ROT" not in src
    rot = int(ROT16_G.replace("_", ""), 16)
    rng = random.Random(11)
    for _ in range(20):
        x, y, s = (rng.getrandbits(256) for _ in range(3))
        k = rng.getrandbits(8)
        calls = [("x86_VPSHUFB_256", [x, s]), ("x86_VPSHUFB_256", [x, rot]),
                 ("x86_VPERM2I128", [x, y, k]), ("x86_VPERM2I128", [x, y, 0x21]),
                 ("x86_VPSHUFD_256", [x, 0x1B]), ("x86_VEXTRACTI128", [y, 1])]
        for mode in (isa.OPSV, isa.OPS):
            want = [exec_vector(isa.lookup(n), mode, a)[0] for n, a in calls]
            got = interp.run(p, "f", [x, y, s, k], memory.Memory(), vector_mode=mode).results
            assert got == want, (mode, hex(x), hex(y), hex(s), k)


# Else-if chains are emitted as `elif` arms.  What a run observes is what
# the former emission, an `if` inside each `else:` block, gave: the digest
# below was recorded with it, over every budget that ends a run early.

ELSE_IF = {
    "arrays": """
fn f(reg u64 x, reg u64 p) -> reg u64 {
  reg u64 r;
  reg u64[3] a;
  a[0] = 1; a[1] = 2; a[2] = 3;
  r = 0;
  if (x == a[0]) { r = a[1]; } else if (x == a[1] + a[2]) { r = a[2]; a[0] = 5; }
  else if (a[0] == x - 3) { r = 7; }
  r = r + a[0];
  return r;
}""",
    "uninit": """
fn f(reg u64 x, reg u64 p) -> reg u64 {
  reg u64 r, u;
  r = 0;
  if (x == 0) { u = 1; } else if (x == u) { r = 2; } else { r = 3; }
  return r;
}""",
    "memory": """
fn f(reg u64 x, reg u64 p) -> reg u64 {
  reg u64 r;
  r = 0;
  if (x == 0) { r = 1; } else if ([p] == x) { r = 2; [p + 8] = r; }
  else if ((u8)[p + 15] == 3) { r = 4; } else { r = [p + x]; }
  return r;
}""",
    "stack": """
fn f(reg u64 x, reg u64 p) -> reg u64 {
  stack u64[2] s;
  reg u64 r;
  s[0] = 5;
  r = 1;
  if (x == 0) { r = 1; } else if (s[0] == x) { r = 2; } else if (s[x & 1] == 9) { r = 3; }
  else { s[1] = 9; r = s[1]; }
  return r;
}""",
    "nested": """
fn f(reg u64 x, reg u64 p) -> reg u64 {
  reg u64 r, y;
  r = 0;
  y = 4;
  while (y > 0) {
    if (x == y) { r = r + 1; } else if (x < y) { if (y == 3) { r = r + 5; } else if (y == 2) {
    r = r + 7; } } else if (x > 6) { r = r + 3; } else if (x / (y - 1) == 2) { r = r + 2; }
    y = y - 1;
  }
  return r;
}""",
}


def else_if_runs() -> list:
    """What every run of the ELSE_IF programs observes, x in 0..7 in both
    modes, under each budget up to 24 and the default one; each trace in
    its tagged view (harness.tagged), in which the digest was recorded."""
    seen = []
    for name, src in ELSE_IF.items():
        p = prep(src)
        for x in range(8):
            for mode in ("OpsV", "Ops"):
                for budget in [*range(1, 25), interp.DEFAULT_BUDGET]:
                    m = memory.add_region(memory.Memory(), 0x100, 16)
                    m = memory.store_bytes(m, 0x100, bytes([x % 4] * 15 + [3]))
                    trace: list = []
                    try:
                        r = interp.run(p, "f", [x, 0x100], m, budget=budget, trace=trace,
                                       vector_mode=mode)
                        got = ("ok", repr(r.results), memory.dump(r.memory), r.steps)
                    except interp.SafetyError as exc:
                        got = ("fault", type(exc).__name__, str(exc), exc.loc)
                    seen.append((name, x, mode, budget, got, tagged(trace)))
    return seen


ELSE_IF_RUNS = "c98d246eeab20fb4"


def test_else_if_chains_run_as_nested_ifs():
    for src in ELSE_IF.values():
        assert "    elif " in "".join(function_sources(prep(src)).values())
    digest = hashlib.sha256(repr(else_if_runs()).encode()).hexdigest()
    assert digest[:16] == ELSE_IF_RUNS


# Declarations: a name stores UNDEF (in each element of a register array,
# a fresh StackArray for a stack array) only where it is live after its
# declaration.  Each case: its source, the declaration stores
# its generated code holds, and runs as ((a, c), the result, or the
# location of the UninitializedUse the run raises).
DECLS = {
    "assigned first": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64 x, y;
  y = a;
  if (c == 0) { x = y; } else { x = y + 1; }
  return x;
}""", set(), [((5, 0), 5), ((5, 1), 6)]),
    "one arm": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64 x;
  if (c == 0) { x = a; }
  x = x + 1;
  return x;
}""", {"v_x = U"}, [((5, 0), 6), ((5, 1), (5, 7))]),
    "arrays": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64[2] s, t;
  s[0] = a;
  s[1] = c;
  t = s;
  t[0] = t[0] + t[1];
  return t[0];
}""", {"e_s_0 = e_s_1 = U"}, [((5, 0), 5), ((5, 2), 7)]),
    "guarded": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64 x;
  x = a if c > 0;
  x = x + 1;
  return x;
}""", {"v_x = U"}, [((5, 1), 6), ((5, 0), (5, 7))]),
    "dead guarded": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64 x;
  x = a if c > 0;
  a = a + c;
  return a;
}""", set(), [((5, 1), 6), ((5, 0), 5)]),
    "redeclared in a loop": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64 i, s;
  i = 0; s = 0;
  while (i < 2) {
    reg u64 x, y;
    y = i;
    if (y <= c) { x = a; }
    s = s + x + y;
    i = i + 1;
  }
  return s;
}""", {"v_x = U"}, [((5, 1), 11), ((5, 0), (9, 13))]),
    "redeclared in a rolled loop": ("""
fn f(reg u64 a, reg u64 c) -> reg u64 {
  reg u64 s;
  s = 0;
  for r = 0 to 3 {
    reg u64 x, y;
    y = s;
    if (y == c) { x = a; }
    s = y + x;
  }
  return s;
}""", {"v_x = U"}, [((0, 0), 0), ((5, 0), (9, 13)), ((5, 1), (9, 13))]),
}


@pytest.mark.parametrize("case", sorted(DECLS))
def test_declarations_store_only_live_names(case):
    text, stores, runs = DECLS[case]
    p = prep(text)
    src = "".join(function_sources(p).values())
    assert set(re.findall(r"^\s*((?:[ve]_\w+ = )+(?:U|SA\(.*\)))$", src, re.M)) == stores
    for (args, want), mode in itertools.product(runs, (interp.OPSV, interp.OPS)):
        if type(want) is tuple:
            with pytest.raises(interp.UninitializedUse) as info:
                interp.run(p, "f", list(args), memory.Memory(), vector_mode=mode)
            assert info.value.loc == want
        else:
            got = interp.run(p, "f", list(args), memory.Memory(), vector_mode=mode)
            assert got.results == [Word(64, want)]


@pytest.mark.parametrize("case", sorted(DECLS))
def test_declaration_stores_do_not_depend_on_pieces(monkeypatch, case):
    """A function compiled in pieces of 1 or 3 statements observes what
    the whole one does: results, steps, trace and fault."""
    text, _, runs = DECLS[case]
    seen = []
    for piece in (1, 3, 250):
        monkeypatch.setattr(codegen, "PIECE", piece)
        p = prep(text)  # compiled at its first run, under this PIECE
        seen.append([observe(p, "f", list(args), memory.Memory()) for args, _ in runs])
        assert ("def Q_" in "".join(function_sources(p).values())) == (piece < 250)
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_code_has_no_blank_lines(name):
    assert "\n\n" not in _generated_source(name)
