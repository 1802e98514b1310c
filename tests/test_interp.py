import pytest
from hypothesis import example, given, settings, strategies as st

from jamin import interp, memory
from jamin.expand import expand
from jamin.parser import parse
from jamin.typecheck import typecheck
from jamin.words import Word


def prep(text):
    return expand(typecheck(parse(text)))


def run(p, entry, args, mem=None, **kw):
    return interp.run(p, entry, args, mem if mem is not None else memory.Memory(), **kw)


STORE2 = prep(
    """
fn store2(reg u64 p, reg u64[2] x) {
  [p + 0] = x[0];
  [p + 8] = x[1];
}
"""
)


def test_store2_writes_little_endian_words():
    m = memory.add_region(memory.Memory(), 100, 16)
    m2 = run(STORE2, "store2", [100, [7, 9]], m).memory
    assert memory.loadW(m2, 100, 64).value == 7
    assert memory.loadW(m2, 108, 64).value == 9


def test_division_by_zero():
    p = prep("fn f(reg u64 a, reg u64 b) -> reg u64 { a = a / b; return a; }")
    assert run(p, "f", [10, 3])[0][0].value == 3
    with pytest.raises(interp.DivByZero) as exc:
        run(p, "f", [10, 0])
    assert exc.value.loc == (1, 47)


def test_div_intrinsic_fault_maps_to_divbyzero():
    p = prep(
        """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  reg u64 q, r;
  _, _, _, _, _, q, r = #x86_DIV_64(0, a, b);
  return q;
}
"""
    )
    assert run(p, "f", [10, 3])[0][0].value == 3
    with pytest.raises(interp.DivByZero) as exc:
        run(p, "f", [10, 0])
    assert exc.value.loc == (4, 25)  # the intrinsic's location


def test_uninitialized_register_use():
    p = prep("fn f() -> reg u64 { reg u64 a; return a; }")
    with pytest.raises(interp.UninitializedUse):
        run(p, "f", [])


def test_undefined_flag_is_poison():
    p = prep(
        """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  reg bool of, cf, sf, pf, zf;
  reg u64 hi, lo, r;
  of, cf, sf, pf, zf, hi, lo = #x86_MUL_64(a, b);
  r = 1;
  r = hi if sf;
  return r;
}
"""
    )
    with pytest.raises(interp.UninitializedUse):
        run(p, "f", [3, 4])


def test_truncating_assignment():
    p = prep("fn t(reg u64 y) -> reg u32 { reg u32 x; x = y; return x; }")
    r = run(p, "t", [2**32 + 1]).results
    assert r[0] == Word(32, 1)


def test_out_of_bounds_array():
    p = prep(
        """
fn f(reg u64 i) -> reg u64 {
  stack u8[4] a;
  (u8)a[0] = 1; (u8)a[1] = 1; (u8)a[2] = 1; (u8)a[3] = 1;
  reg u64 t;
  t = (u8)a[i];
  return t;
}
"""
    )
    assert run(p, "f", [3])[0][0].value == 1
    with pytest.raises(interp.OutOfBoundsArray):
        run(p, "f", [4])


def test_budget_exhaustion():
    p = prep("fn f() { reg u64 x; x = 0; while (x == 0) { x = 0; } }")
    with pytest.raises(interp.BudgetExhausted):
        run(p, "f", [], budget=500)


def test_stack_array_byte_write_is_isolated():
    p = prep(
        """
fn f(reg u64 b) -> reg u64, reg u64 {
  stack u8[32] a;
  for i = 0 to 31 { (u8)a[i] = 0xee; }
  (u8)a.[17] = b;
  reg u64 lo, hi;
  lo = (u64)a.[16];
  hi = (u64)a.[24];
  return lo, hi;
}
"""
    )
    r = run(p, "f", [0xAB]).results
    expect = bytearray(b"\xee" * 16)
    expect[1] = 0xAB
    assert r[0].value == int.from_bytes(expect[:8], "little")
    assert r[1].value == int.from_bytes(b"\xee" * 8, "little")


def test_stack_arrays_value_semantics_across_calls():
    p = prep(
        """
fn clobber(stack u8[8] a) -> reg u64 {
  (u8)a[0] = 0xff;
  reg u64 t;
  t = (u8)a[0];
  return t;
}
fn f() -> reg u64, reg u64 {
  stack u8[8] a;
  for i = 0 to 7 { (u8)a[i] = 1; }
  reg u64 x, y;
  x = clobber(a);
  y = (u8)a[0];
  return x, y;
}
"""
    )
    r = run(p, "f", []).results
    assert (r[0].value, r[1].value) == (0xFF, 1)


def test_while_false_leaves_state():
    p = prep(
        """
fn f(reg u64 x) -> reg u64 {
  while (x < 0) { x = 1; }
  return x;
}
"""
    )
    assert run(p, "f", [42])[0][0].value == 42


def test_unknown_vector_mode_rejected_before_running():
    m = memory.add_region(memory.Memory(), 100, 16)
    trace = []
    with pytest.raises(interp.ContractViolation, match="unknown vector mode"):
        run(STORE2, "store2", [100, [7, 9]], m, trace=trace, vector_mode="weird")
    assert trace == []


@pytest.mark.parametrize("name", ["chacha20_avx2_small", "chacha20_avx2_big", "poly1305_avx2",
                                  "gimli_sse"])
def test_vector_mode_is_per_run(name):
    """One program object (one cached namespace) run Ops, OpsV, Ops
    matches a freshly loaded program run in each mode, and the three runs
    agree on results, final memory, trace and steps."""
    import random

    from jamin.primitives.corpus import PROGRAMS, load_source
    from jamin.primitives.difftest import SHAPES

    info = PROGRAMS[name]
    case = SHAPES[info.kind].sample(random.Random(4), 10)
    if "msg" in case:  # 520 bytes: chacha20_avx2_big's 8-block loop runs too
        case["msg"] = random.Random(5).randbytes(520)
    m, args = SHAPES[info.kind].build_memory(case)
    shared = prep(load_source(name))

    def observe(p, mode):
        trace = []
        r = interp.run(p, info.entry, args, m, trace=trace, vector_mode=mode)
        return r.results, memory.dump(r.memory), trace, r.steps

    seen = []
    for mode in ("Ops", "OpsV", "Ops"):
        seen.append(observe(shared, mode))
        assert seen[-1] == observe(prep(load_source(name)), mode), mode
    assert seen[0] == seen[1] == seen[2]


def test_ops_opsv_observational_equivalence_on_corpus():
    import random

    from jamin.primitives.corpus import load_program
    from jamin.primitives.difftest import SHAPES

    rng = random.Random(8)
    shape = SHAPES["chacha20"]
    p = load_program("chacha20_avx2_small")
    for _ in range(5):
        case = shape.sample(rng, 10**6)
        m, args = shape.build_memory(case)
        outs = []
        for mode in ("Ops", "OpsV"):
            final = interp.run(p, "chacha20", args, m, vector_mode=mode).memory
            outs.append(memory.dump(final))
        assert outs[0] == outs[1]


def test_determinism_bitwise():
    from jamin.primitives.corpus import load_program
    from jamin.primitives.difftest import SHAPES
    import random

    shape = SHAPES["poly1305"]
    p = load_program("poly1305_ref")
    case = SHAPES["poly1305"].sample(random.Random(1), 10**6)
    m, args = shape.build_memory(case)
    t1, t2 = [], []
    m1 = interp.run(p, "poly1305", args, m, trace=t1).memory
    m2 = interp.run(p, "poly1305", args, m, trace=t2).memory
    assert t1 == t2
    assert memory.dump(m1) == memory.dump(m2)


def test_memory_unchanged_outside_stores():
    m = memory.add_region(memory.Memory(), 100, 16)
    m = memory.store_bytes(m, 100, bytes(16))
    m2 = run(STORE2, "store2", [100, [1, 2]], m).memory
    # the input memory object is untouched (stores go to a copy)
    assert memory.load_bytes(m, 100, 16) == bytes(16)
    assert memory.loadW(m2, 100, 64).value == 1


def _fault(p, args, mem=None):
    with pytest.raises(interp.SafetyError) as info:
        run(p, "f", args, mem)
    return type(info.value), info.value.loc


def test_element_written_only_in_untaken_if_is_uninitialized():
    p = prep(
        """fn f(reg u64 c) -> reg u64 {
  reg u64[2] a;
  reg u64 t;
  a[0] = 1;
  if (c == 1) { a[1] = 2; }
  t = a[1];
  return t;
}"""
    )
    assert run(p, "f", [1])[0][0].value == 2
    assert _fault(p, [0]) == (interp.UninitializedUse, (6, 7))


def test_element_written_only_in_zero_trip_while_is_uninitialized():
    p = prep(
        """fn f(reg u64 n) -> reg u64 {
  reg u64[2] a;
  reg u64 i, t;
  i = 0;
  while (i < n) { a[1] = i; i = i + 1; }
  t = a[1];
  return t;
}"""
    )
    assert run(p, "f", [2])[0][0].value == 1
    assert _fault(p, [0]) == (interp.UninitializedUse, (6, 7))


def test_scalar_redeclared_in_loop_is_uninitialized_on_second_iteration():
    p = prep(
        """fn f() -> reg u64 {
  reg u64 i, s;
  i = 0; s = 0;
  while (i < 2) {
    reg u64 x;
    if (i == 0) { x = 5; }
    s = s + x;
    i = i + 1;
  }
  return s;
}"""
    )
    assert _fault(p, []) == (interp.UninitializedUse, (7, 13))


def test_array_redeclared_in_loop_is_uninitialized_on_second_iteration():
    p = prep(
        """fn f() -> reg u64 {
  reg u64 i, s;
  i = 0; s = 0;
  while (i < 2) {
    reg u64[2] a;
    if (i == 0) { a[0] = 5; }
    s = s + a[0];
    i = i + 1;
  }
  return s;
}"""
    )
    assert _fault(p, []) == (interp.UninitializedUse, (7, 13))


def test_array_copy_carries_uninitialized_elements():
    p = prep(
        """fn f() -> reg u64 {
  reg u64[2] a, b;
  reg u64 t;
  a[0] = 1;
  b = a;
  t = b[1];
  return t;
}"""
    )
    assert _fault(p, []) == (interp.UninitializedUse, (6, 7))


def test_load_of_unwritten_memory_byte_is_uninitialized():
    p = prep(
        """fn f(reg u64 p) -> reg u64 {
  reg u64 t;
  t = [p + 0];
  return t;
}"""
    )
    m = memory.add_region(memory.Memory(), 0x100, 8)
    m = memory.store_bytes(m, 0x100, bytes(7))
    assert _fault(p, [0x100], m) == (interp.UninitializedUse, (3, 7))


def test_store_past_region_is_out_of_region():
    p = prep(
        """fn f(reg u64 p) {
  reg u64 t;
  t = 7;
  [p + 4] = t;
}"""
    )
    m = memory.add_region(memory.Memory(), 0x100, 8)
    with pytest.raises(interp.OutOfRegion) as info:
        run(p, "f", [0x100], m)
    assert (info.value.address, info.value.loc) == (0x108, (4, 3))


def test_stack_array_store_out_of_bounds_is_located():
    p = prep(
        """fn f(reg u64 i) {
  stack u8[4] a;
  (u8)a[i] = 1;
}"""
    )
    assert _fault(p, [4]) == (interp.OutOfBoundsArray, (3, 3))


STEPS = prep("fn f(reg u64 x) -> reg u64 { x = x + 1; return x; }")


def test_run_counts_budget_steps():
    assert run(STEPS, "f", [1]).steps == 2
    assert run(STEPS, "f", [1], trace=[]).steps == 2


def test_run_checks_arity():
    with pytest.raises(interp.ContractViolation):
        run(STEPS, "f", [1, 2])


def test_run_rejects_non_positive_budget():
    with pytest.raises(interp.ContractViolation):
        run(STEPS, "f", [1], budget=0)


def test_run_requires_typechecked_program():
    with pytest.raises(interp.ContractViolation):
        run(parse("fn f() { }"), "f", [])


BINDS = prep("""
inline fn g(reg u64 x) -> reg u64 { return x; }
fn f(reg u64 x, reg bool b, reg u64[2] r) -> reg u64 { x = g(x); return x; }
""")


def test_run_refuses_an_inline_entry():
    """Expand leaves out every inline function, so none is an entry."""
    with pytest.raises(interp.ContractViolation, match="no entry function 'g'"):
        run(BINDS, "g", [1])


@pytest.mark.parametrize("args, message", [
    ([1, True, [1, 2, 3]], "'r' takes 2 elements, got 3"),
    ([1, True, 5], "array argument expected for 'r'"),
    ([1, 1, [1, 2]], "bool argument expected for 'b'"),
    ([Word(32, 1), True, [1, 2]], "'x' is u64, got a u32"),
    ([True, True, [1, 2]], "cannot bind argument for 'x'"),
    (["1", True, [1, 2]], "cannot bind argument for 'x'"),
], ids=["array-length", "not-an-array", "not-a-bool", "word-width", "bool-for-word",
        "unbindable"])
def test_run_refuses_an_argument_of_the_wrong_kind(args, message):
    assert run(BINDS, "f", [Word(64, 7), False, [1, 2]]).results == [Word(64, 7)]
    with pytest.raises(interp.ContractViolation, match=message):
        run(BINDS, "f", args)


def test_run_binds_any_int_to_a_word_parameter():
    """A plain int binds on run's fast path, an int subclass (bool aside)
    on the isinstance chain, each masked to the parameter's width."""

    class Small(int):
        pass

    for x in (2**64 + 7, Small(2**64 + 7), -1):
        assert run(BINDS, "f", [x, False, [1, 2]]).results == [Word(64, x % 2**64)]


def test_register_array_index_through_globals():
    p = prep(
        """
global u64 g = 0xffffffffffffffff;
global u64[4] tab = {1, 2, 3, 4};
fn f() -> reg u64 {
  reg u64[4] a;
  reg u64 t;
  a[g + 3] = 5;
  t = a[g + 3] + tab[g + 1];
  return t;
}"""
    )
    trace = []
    assert run(p, "f", [], trace=trace)[0][0].value == 6
    assert trace == [2, 2, 0]


# Word only at the boundaries: a run computes on ints, and builds a Word
# for each word result it returns and for nothing else.

RESULTS = """
global u256 sel = 0x0e0d0c0f0a09080b0605040702010003_0e0d0c0f0a09080b0605040702010003;
fn f(reg u64 x, reg u256 v) -> reg u64, reg u256, reg bool {
  reg u64 h;
  reg bool c;
  reg u256 w;
  w = #x86_VPSHUFB_256(v, sel);
  w = #x86_VPADD_4u64(w, v);
  _, c, _, _, _, h = #x86_ADD_64(x, x);
  return h, w, c;
}
"""


def _run_inputs():
    from itertools import islice

    from test_exec_golden import _inputs
    from jamin.primitives.corpus import PROGRAMS, load_program

    for name, info in PROGRAMS.items():
        for mode in ("OpsV", "Ops"):
            for label, m, args in islice(_inputs(name), 4):
                yield f"{name}/{mode}/{label}", load_program(name), info.entry, args, m, mode


def test_run_path_builds_a_word_per_word_result_only(monkeypatch):
    from jamin.expand import _copy

    built = []
    init = Word.__init__

    def counting(self, width, value):
        built.append(width)
        init(self, width, value)

    monkeypatch.setattr(Word, "__init__", counting)
    cases = list(_run_inputs())
    p = prep(RESULTS)
    cases += [(f"results/{mode}", p, "f", [3, 2**200 + 5], memory.Memory(), mode)
              for mode in ("OpsV", "Ops")]
    seen = set()
    for label, p, entry, args, m, mode in cases:
        if id(p) not in seen:  # the first run of a program compiles a fresh copy
            seen.add(id(p))
            p = _copy(p, _exec_ns=None)
        built.clear()
        r = interp.run(p, entry, args, m, vector_mode=mode)
        assert len(built) == sum(isinstance(v, Word) for v in r.results), label
    assert [type(v) for v in r.results] == [Word, Word, bool]


# -- the stack-array helpers against a byte-level reference

NBYTES = (1, 2, 4, 8, 16, 32)
LOC = (4, 2)
PENDING = (7,)  # constant-index events batched before the helper's own


def _ref_load(ref, off, nbytes):
    """What reading [off, off + nbytes) of a byte list gives: the value,
    or the message of the uninitialized read."""
    span = ref[off:off + nbytes]
    if None in span:
        return f"a bytes [{off}, {off + nbytes})"
    return int.from_bytes(bytes(span), "little")


def _helper(f, *args):
    """What a helper returns, or its fault as (class, message, loc)."""
    try:
        return f(*args)
    except interp.UninitializedUse as exc:
        return exc.var, exc.loc
    except interp.OutOfBoundsArray as exc:
        return "oob", exc.var, exc.index, exc.loc


# (load or store, constant or computed index, nbytes, byte view, index, value)
ACCESS = st.tuples(st.booleans(), st.booleans(), st.sampled_from(NBYTES), st.booleans(),
                   st.one_of(st.integers(-1, 9), st.integers(-2, 130)),
                   st.integers(0, (1 << 256) - 1))
# one byte written, then a wider span over it read, by each helper
PARTIAL = [((False, c, 1, True, 9, 0xAB), (True, c, n, True, 8, 0)) for c in (False, True)
           for n in (2, 4, 8, 16, 32)]


@settings(max_examples=200, deadline=None)
@example(width=64, length=4, fill=None, accesses=[a for pair in PARTIAL for a in pair])
@given(width=st.sampled_from((8, 16, 32, 64, 128, 256)), length=st.integers(1, 4),
       fill=st.one_of(st.none(), st.binary(min_size=128, max_size=128)),
       accesses=st.lists(ACCESS, max_size=12))
def test_stack_array_helpers_match_a_byte_reference(width, length, fill, accesses):
    """_sld and _sst at every access width read and write an array as a
    per-byte model does: a partly written span faults with its byte
    range, an index out of bounds faults before its event, a computed
    index's event follows the batched ones even when the read then
    faults, and a constant index's miss, called with no trace, records
    nothing."""
    arr = interp.StackArray(width, length)
    size = len(arr.buf)
    ref = [None] * size
    if fill is not None:
        arr.fill(fill[:size])
        ref = list(fill[:size])
    for load, computed, nbytes, byte_view, i, v in accesses:
        scale = 1 if byte_view else nbytes
        last = (size - nbytes) // scale  # as ir.span gives it, which test_span checks
        off = i * scale
        inside = 0 <= off and off + nbytes <= size
        if not computed and not inside:
            continue  # expand makes a constant index a literal in bounds
        trace = []
        if load:
            want = _ref_load(ref, off, nbytes)
            if isinstance(want, str):
                want = (want, LOC)
            t = trace if computed else None  # a constant index's event is batched
            got = _helper(interp._sld, t, PENDING, arr, i, nbytes, scale, last, "a", LOC)
        else:
            want = None
            t = trace if computed else None
            got = _helper(interp._sst, t, PENDING, arr, v, i, nbytes, scale, last, "a", LOC)
            if inside:
                ref[off:off + nbytes] = (v & ((1 << 8 * nbytes) - 1)).to_bytes(nbytes, "little")
        if not inside:
            want = ("oob", "a", i, LOC)
        assert got == want, (load, computed, nbytes, off)
        assert trace == ([*PENDING, i] if computed and inside else [])
        assert [b is not None for b in ref] == [bool(b) for b in arr.init]
        assert [b for b in ref if b is not None] == [b for b, w in zip(arr.buf, arr.init) if w]


def test_a_stack_array_argument_must_have_the_parameters_type():
    """Generated code bounds a computed index by the declared length, so
    run takes a stack array argument only as bytes of that length."""
    p = prep("fn f(stack u8[16] s, reg u64 i) -> reg u8 { reg u8 b; b = s[i]; return b; }")
    assert run(p, "f", [bytes(range(16)), 15]).results[0].value == 15
    for size in (32, 8):
        with pytest.raises(interp.ContractViolation, match="takes 16 bytes"):
            run(p, "f", [bytes(size), 15])
    good = interp.StackArray(8, 16)
    good.fill(bytes(range(16)))
    with pytest.raises(interp.ContractViolation, match="stack array argument for 's'"):
        run(p, "f", [good, 15])
