import pytest

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
    _, m2 = run(STORE2, "store2", [100, [7, 9]], m)
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
    r, _ = run(p, "t", [2**32 + 1])
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
    r, _ = run(p, "f", [0xAB])
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
    r, _ = run(p, "f", [])
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


def test_vector_mode_contract():
    interp.set_vector_mode("Ops")
    assert interp.get_vector_mode() == "Ops"
    interp.set_vector_mode("OpsV")
    assert interp.get_vector_mode() == "OpsV"  # stated default restored
    with pytest.raises(interp.ContractViolation):
        interp.set_vector_mode("weird")


def test_vector_mode_fixed_during_run():
    # a run in progress must reject mode switches; simulate by entering
    # the guard the way run() does
    interp._ACTIVE_RUNS[0] += 1
    try:
        with pytest.raises(interp.ContractViolation):
            interp.set_vector_mode("Ops")
    finally:
        interp._ACTIVE_RUNS[0] -= 1


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
            _, final = interp.run(p, "chacha20", args, m, vector_mode=mode)
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
    _, m1 = interp.run(p, "poly1305", args, m, trace=t1)
    _, m2 = interp.run(p, "poly1305", args, m, trace=t2)
    assert t1 == t2
    assert memory.dump(m1) == memory.dump(m2)


def test_memory_unchanged_outside_stores():
    m = memory.add_region(memory.Memory(), 100, 16)
    m = memory.store_bytes(m, 100, bytes(16))
    _, m2 = run(STORE2, "store2", [100, [1, 2]], m)
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


def test_steps_used_counts_budget_steps():
    assert interp.steps_used(STEPS, "f", [1], memory.Memory()) == 2


def test_steps_used_checks_arity():
    with pytest.raises(interp.ContractViolation):
        interp.steps_used(STEPS, "f", [1, 2], memory.Memory())


def test_steps_used_rejects_non_positive_budget():
    with pytest.raises(interp.ContractViolation):
        interp.steps_used(STEPS, "f", [1], memory.Memory(), budget=0)


def test_steps_used_requires_typechecked_program():
    with pytest.raises(interp.ContractViolation):
        interp.steps_used(parse("fn f() { }"), "f", [], memory.Memory())


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
    assert trace == [("addr", (2,)), ("addr", (2,)), ("addr", (0,))]
