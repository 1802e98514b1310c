"""Rolled loops: codegen runs the iterations of a `for` loop whose body
does not mention its variable as one Python loop (see codegen).  Each
test runs a program as built and as a copy without expand's record of
its unrolled loops, whose generated code is the unrolled form, and
compares what the two runs observe.  Codegen trusts the record, so every
program built here, the corpus and the planted programs have each of
theirs checked against the expanded statements (records_hold)."""

import re

import pytest

from gensrc import function_sources
from test_acceptance import PLANTED
from test_exec_golden import _inputs, _runs
from jamin import interp, memory
from jamin.codegen import PIECE
from jamin.expand import _copy, expand
from jamin.ir import FuncDecl, Program, SAssign, SDecl, SIf, SWhile, print_program
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.typecheck import typecheck

ROLLED = "for _k in range("


def prep(text):
    p = expand(typecheck(parse(text)))
    records_hold(p)
    return p


def printed(stmts) -> str:
    """Statements as ir's printer prints them."""
    return print_program(Program((), (), (FuncDecl("f", False, (), (), tuple(stmts)),)))


def where(stmts, first):
    """(block, index) of statement `first` in `stmts` or a block inside them."""
    for i, s in enumerate(stmts):
        if s is first:
            return stmts, i
        blocks = (s.then, s.els) if type(s) is SIf else (s.body,) if type(s) is SWhile else ()
        for b in blocks:
            found = where(b, first)
            if found is not None:
                return found
    return None


def iterations(p, fname, record) -> list:
    """The k iterations, n statements each, of a record of function fname."""
    first, n, k, _ = record
    block, i = where(p.func(fname).body, first)
    assert len(block) >= i + n * k
    return [block[i + j * n:i + (j + 1) * n] for j in range(k)]


def records_hold(p):
    """Check expand's record of p: iteration j of each recorded loop,
    printed, is iteration 0 printed with its inline locals renamed to
    iteration j's, as `names` gives them."""
    for fname, loops in (p.unrolled or {}).items():
        for record in loops:
            names = record[3]
            its = iterations(p, fname, record)
            assert all(len(v) == len(its) and v[0] == a for a, v in names.items())
            first = printed(its[0])
            for j, it in enumerate(its[1:], 1):
                want = re.sub(r"\w+", lambda m: names.get(m[0], (m[0],) * len(its))[j], first)
                assert printed(it) == want


@pytest.mark.parametrize("name", sorted(PROGRAMS) + [f"planted-{i}" for i in range(len(PLANTED))])
def test_records_are_true(name):
    p = load_program(name) if name in PROGRAMS else prep(PLANTED[int(name[8:])][1])
    records_hold(p)
    assert bool(p.unrolled) == name.startswith("chacha20")


def unrolled(p):
    """p without expand's record: codegen unrolls every loop."""
    return _copy(p, unrolled=None, _exec_ns=None)


def source(p) -> str:
    return "".join(function_sources(_copy(p, _exec_ns=None)).values())


def observe(p, entry, args, m, mode="OpsV", budget=interp.DEFAULT_BUDGET):
    trace: list = []
    try:
        r = interp.run(p, entry, args, m, budget=budget, trace=trace, vector_mode=mode)
    except interp.SafetyError as exc:
        return ("fault", type(exc).__name__, str(exc), exc.loc), trace
    return ("ok", repr(r.results), memory.dump(r.memory), r.steps), trace


def same_runs(p, entry, args, m, **kw):
    """Run p as built and unrolled: a finished run observes the same
    results, memory, steps and trace, a faulting one the same fault
    (class, message, location), with traces one a prefix of the other.
    Returns the outcome."""
    got, got_trace = observe(p, entry, args, m, **kw)
    want, want_trace = observe(unrolled(p), entry, args, m, **kw)
    assert got == want
    if got[0] == "ok":
        assert got_trace == want_trace
    else:
        n = min(len(got_trace), len(want_trace))
        assert got_trace[:n] == want_trace[:n]
    return got


def value(outcome) -> int:
    """The one u64 result of a finished run's outcome (same_runs)."""
    assert outcome[0] == "ok"
    return int(outcome[1].split(", ")[1].rstrip(")]"), 16)


# ------------------------------------------------------------ corpus


@pytest.mark.parametrize("name, mode, entry", list(_runs()),
                         ids=[f"{n}/{m}" for n, m, _ in _runs()])
def test_corpus_runs_match_unrolled(name, mode, entry):
    p = load_program(name)
    code = source(p)
    assert ROLLED not in source(unrolled(p))
    if not name.startswith("chacha20"):  # no variable-free loop: the same code
        assert code == source(unrolled(p))
        return
    assert ROLLED in code
    for label, m, args in _inputs(name):
        assert same_runs(p, entry, args, m, mode=mode)[0] == "ok", label


# ---------------------------------------------- faults in iteration k > 0

CHASE = """
inline fn next(reg u64 q) -> reg u64 {
  reg u64 t;
  t = [q + 0];
  return t;
}
fn f(reg u64 p) -> reg u64 {
  reg u64 x;
  x = 0;
  for r = 0 to 4 {
    p = next(p);
    x = x + p;
  }
  return x;
}
"""


def chain(*pointers):
    """Memory at 0x100 holding `pointers`, one u64 each."""
    m = memory.add_region(memory.Memory(), 0x100, 8 * len(pointers))
    for i, v in enumerate(pointers):
        m = memory.store_bytes(m, 0x100 + 8 * i, v.to_bytes(8, "little"))
    return m


def test_rolled_form_is_emitted():
    p = prep(CHASE)
    assert ROLLED + "5)" in source(p)
    assert ROLLED not in source(unrolled(p))
    assert len(source(p).splitlines()) < len(source(unrolled(p)).splitlines())


def test_data_dependent_load_out_of_region_in_iteration_3():
    p = prep(CHASE)
    got = same_runs(p, "f", [0x100], chain(0x108, 0x110, 0x118, 0x900, 0))
    assert got[:3] == ("fault", "OutOfRegion", "4:7: access at 0x907 outside declared regions")
    assert same_runs(p, "f", [0x100], chain(0x108, 0x110, 0x118, 0x120, 0x100))[0] == "ok"


PICK = """
inline fn pick(stack u64[4] a, reg u64 i) -> reg u64 {
  reg u64 t;
  t = a[i];
  return t;
}
fn f(reg u64 n) -> reg u64 {
  stack u64[4] b;
  reg u64 x, y;
  b[0] = 1; b[1] = 2; b[2] = 3; b[3] = 4;
  x = 0;
  for r = 0 to 5 {
    y = pick(b, n);
    x = x + y;
    n = n + 1;
  }
  return x;
}
"""


def test_out_of_bounds_names_the_iterations_local():
    p = prep(PICK)
    assert ROLLED in source(p)
    got = same_runs(p, "f", [1], memory.Memory())
    assert got[1] == "OutOfBoundsArray"
    names = [s.dests[0].name for s in p.func("f").body
             if type(s) is SAssign and s.dests and s.dests[0].name.startswith("a__")]
    assert got[2] == f"4:7: index 4 out of bounds for {names[3]}" and names[3] != names[0]


HALF = """
inline fn half(reg u64 c) -> reg u64 {
  reg u64 t;
  if (c != 2) { t = c; }
  return t;
}
fn f(reg u64 i) -> reg u64 {
  reg u64 x, y;
  x = 0;
  for r = 0 to 4 {
    @PAD@
    y = half(i);
    x = x + y;
    i = i + 1;
  }
  return x;
}
"""


@pytest.mark.parametrize("pad", [0, PIECE + 10], ids=["body", "pieced-body"])
def test_uninitialized_use_names_the_iterations_local(pad):
    p = prep(HALF.replace("@PAD@", "x = x + 1;\n" * pad))
    code = source(p)
    assert ROLLED in code and (pad == 0) == ("def Q_" not in code)
    got = same_runs(p, "f", [0], memory.Memory())
    assert got[1] == "UninitializedUse"
    assert got[2].startswith("5:10: use of uninitialized t__i")
    assert got[2] != same_runs(p, "f", [1], memory.Memory())[2]  # another iteration's t
    assert value(same_runs(p, "f", [3], memory.Memory())) == 3 + 4 + 5 + 6 + 7 + 5 * pad


SCOPED = """
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
"""


def test_unbound_local_is_unbound_in_every_iteration():
    """g's t is bound only when its `if` is taken: in the iteration where
    it is not, t is unbound, not the previous iteration's value."""
    p = prep(SCOPED)
    assert ROLLED in source(p)
    got = same_runs(p, "f", [0], memory.Memory())
    assert got[1] == "ContractViolation"
    assert got[2].startswith("4:10: unbound variable 't__i")
    assert got[2] != same_runs(p, "f", [1], memory.Memory())[2]
    assert value(same_runs(p, "f", [3], memory.Memory())) == 3 + 4 + 5 + 6 + 7


def test_budget_exhausted_in_every_iteration():
    p = prep(CHASE)
    args, m = [0x100], chain(0x108, 0x110, 0x118, 0x120, 0x100)
    steps = observe(p, "f", args, m)[0][3]
    assert steps == 2 + 5 * 6 + 1
    for budget in range(1, steps + 1):
        got = same_runs(p, "f", args, m, budget=budget)
        assert got[0] == ("ok" if budget == steps else "fault")
        assert budget == steps or got[1] == "BudgetExhausted"


def test_earlier_fault_is_not_hidden_by_a_later_iterations_budget():
    """The documented difference: c is read uninitialized in iteration 0
    and the budget runs out in iteration 2.  The unrolled code charges
    all five iterations in one segment and reports the budget; a rolled
    iteration is a segment of its own."""
    p = prep("fn f(reg u64 a) -> reg u64 {\n  reg u64 b, c, x;\n  b = 1;\n  x = 0;\n"
             "  for r = 0 to 4 { x = x + a; a = b; b = c; }\n  return x;\n}")
    assert ROLLED in source(p)
    got = observe(p, "f", [5], memory.Memory(), budget=10)[0]
    want = observe(unrolled(p), "f", [5], memory.Memory(), budget=10)[0]
    assert got[1:] == ("UninitializedUse", "5:42: use of uninitialized c", (5, 42))
    assert want[1:] == ("BudgetExhausted", "5:31: step budget exhausted", (5, 31))
    assert same_runs(p, "f", [5], memory.Memory(), budget=100)[1] == "UninitializedUse"


# -------------------------------------------------- what must not roll


def test_body_mentioning_its_variable_stays_unrolled():
    p = prep("fn f(reg u64 x) -> reg u64 {\n  for r = 0 to 3 { x = x + r; }\n  return x;\n}")
    assert p.unrolled == {}
    assert source(p) == source(unrolled(p))
    assert value(same_runs(p, "f", [5], memory.Memory())) == 11


def test_global_declared_in_the_body_names_one_global():
    """Every iteration's `global` names the same hoisted global, but the
    first iteration binds the name K, so expand expands each iteration
    from the source and records no loop: it stays unrolled."""
    p = prep("fn f(reg u64 x) -> reg u64 {\n"
             "  for r = 0 to 2 { global u64 K = 5; x = x + K; }\n  return x;\n}")
    assert p.unrolled == {} and ROLLED not in source(p)
    assert value(same_runs(p, "f", [1], memory.Memory())) == 16


def test_iterations_that_differ_stay_unrolled():
    """A body whose first iteration changes the compile-time environment
    (here it binds the inline c) could expand to other statements in a
    later iteration, as far as expand knows: each is expanded from the
    source and the loop is not recorded."""
    p = prep("fn f(reg u64 x) -> reg u64 {\n"
             "  for r = 0 to 2 { inline int c = 2; x = x + c; }\n  return x;\n}")
    assert p.unrolled == {} and source(p) == source(unrolled(p))
    assert value(same_runs(p, "f", [1], memory.Memory())) == 7


INC = """
inline fn inc(reg u64 v) -> reg u64 {
  reg u64 t;
  t = v + 1;
  return t;
}
fn f(reg u64 x) -> reg u64 {
  for r = 0 to 2 { x = inc(x); }
  return x;
}
"""


def mentioned(stmts) -> set:
    """The names printed statements mention."""
    return set(re.findall(r"\w+", printed(stmts)))


@pytest.mark.parametrize("iteration", [None, 0, 1, 2])
def test_renamed_locals_must_be_private(iteration):
    """The iterations differ in inc's locals, which the record names per
    iteration: each iteration's are mentioned by that iteration alone."""
    p = prep(INC)
    ts = [nm for s in p.func("f").body if type(s) is SDecl for nm in s.names
          if nm.startswith("t__")]
    assert len(ts) == 3
    (record,) = p.unrolled["f"]
    assert record[3]["t__i1"] == tuple(ts)
    if iteration is None:
        assert ROLLED in source(p)
        assert value(same_runs(p, "f", [1], memory.Memory())) == 4
        return
    its = iterations(p, "f", record)
    rest = [s for s in p.func("f").body if not any(s is x for it in its for x in it)]
    assert len(rest) == len(p.func("f").body) - 3 * len(its[0])
    assert [ts[iteration] in mentioned(it) for it in its + [rest]] == [
        j == iteration for j in range(4)]


def test_nested_loops_roll_the_outer_one():
    p = prep("fn f(reg u64 x) -> reg u64 {\n"
             "  for a = 0 to 1 { for b = 0 to 2 { x = x + 1; } x = x * 3; }\n  return x;\n}")
    assert [(n, k) for _, n, k, _ in p.unrolled["f"]] == [(4, 2)]  # the inner ones are copies
    assert source(p).count(ROLLED) == 1 and ROLLED + "2)" in source(p)
    assert value(same_runs(p, "f", [1], memory.Memory())) == 45


def test_resized_literal_result_copies_as_expanded():
    """h's literal result moved to a narrower destination is folded when
    it is first expanded, as expanding that iteration again folds it, so
    every copy prints as iteration 0 does (records_hold)."""
    p = prep("inline fn h(reg u64 a) -> reg u64 {\n  return 7;\n}\n"
             "fn f(reg u32 y) -> reg u32 {\n  for r = 0 to 2 { y = h(y); }\n  return y;\n}")
    assert ROLLED in source(p)
    assert expand(p) == p
    assert value(same_runs(p, "f", [1], memory.Memory())) == 7
