"""Repeat nodes: codegen runs the iterations of a `for` loop that expand
keeps as one repeat node (ir.SRepeat, see expand) as one Python loop.
Each test runs a program as built and unrolled (unroll.unroll), whose
generated code is the unrolled form, and compares what the two runs
observe.  The unrolled IR of the corpus, the planted programs and every
program here is the one expand built when it unrolled every `for` loop
(UNROLLED)."""

import hashlib
import re

import pytest

from gensrc import function_sources
from test_exec_golden import _inputs, _runs
from unroll import cases, unroll, unrolled_ir
from jamin import interp, memory
from jamin.codegen import PIECE
from jamin.expand import _copy, expand
from jamin.ir import FuncDecl, Program, SAssign, SIf, SRepeat, SWhile, print_program
from jamin.parser import parse
from jamin.primitives.corpus import load_program
from jamin.typecheck import typecheck

ROLLED = "for _k in range("


def prep(text):
    return expand(typecheck(parse(text)))


def printed(stmts) -> str:
    """Statements as ir's printer prints them."""
    return print_program(Program((), (), (FuncDecl("f", False, (), (), tuple(stmts)),)))


def repeats(stmts) -> list:
    """The repeat nodes in `stmts`, in blocks included."""
    out = []
    for s in stmts:
        if type(s) is SRepeat:
            out += [s] + repeats(s.body)
        elif type(s) is SIf:
            out += repeats(s.then) + repeats(s.els)
        elif type(s) is SWhile:
            out += repeats(s.body)
    return out


def source(p) -> str:
    return "".join(function_sources(_copy(p, _exec_ns=None)).values())


def observe(p, entry, args, m, mode="OpsV", budget=interp.DEFAULT_BUDGET):
    trace: list = []
    try:
        r = interp.run(p, entry, args, m, budget=budget, trace=trace, vector_mode=mode)
    except interp.SafetyError as exc:
        return ("fault", type(exc).__name__, str(exc), exc.loc), trace
    return ("ok", repr(r.results), memory.dump(r.memory), r.steps), trace


_UNROLLED: dict = {}  # id(p) -> (p, unroll(p)), so each is built and compiled once


def unrolled(p):
    """unroll(p), built once per program; its generated code is compiled
    on its first run and reused by the later ones, as p's is."""
    if id(p) not in _UNROLLED:
        _UNROLLED[id(p)] = (p, unroll(p))
    return _UNROLLED[id(p)][1]


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
    code, flat = source(p), source(unrolled(p))
    assert ROLLED not in flat
    if not name.startswith("chacha20"):  # no variable-free loop: the same code
        assert code == flat
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
    assert ROLLED not in source(unroll(p))
    assert len(source(p).splitlines()) < len(source(unroll(p)).splitlines())


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
    names = [s.dests[0].name for s in unroll(p).func("f").body
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
  reg u64 t;
  if (c != 2) { t = c; }
  return t;
}
fn f(reg u64 i) -> reg u64 {
  reg u64 x, y;
  x = 0;
  for r = 0 to 4 { y = g(i); x = x + y; i = i + 1; }
  return x;
}
"""


def test_unassigned_local_is_unassigned_in_every_iteration():
    """g's t is assigned only when its `if` is taken: in the iteration
    where it is not, t is that iteration's own unassigned local, not the
    previous iteration's value."""
    p = prep(SCOPED)
    assert ROLLED in source(p)
    got = same_runs(p, "f", [0], memory.Memory())
    assert got[1] == "UninitializedUse"
    assert got[2].startswith("5:10: use of uninitialized t__i")
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


LATE = """fn f(reg u64 a) -> reg u64 {
  reg u64 b, c, x;
  b = 1;
  x = 0;
  for r = 0 to 4 { x = x + a; a = b; b = c; }
  return x;
}"""


def test_earlier_fault_is_not_hidden_by_a_later_iterations_budget():
    """The documented difference: c is read uninitialized in iteration 0
    and the budget runs out in iteration 2.  The unrolled code charges
    all five iterations in one segment and reports the budget; a rolled
    iteration is a segment of its own."""
    p = prep(LATE)
    assert ROLLED in source(p)
    got = observe(p, "f", [5], memory.Memory(), budget=10)[0]
    want = observe(unroll(p), "f", [5], memory.Memory(), budget=10)[0]
    assert got[1:] == ("UninitializedUse", "5:42: use of uninitialized c", (5, 42))
    assert want[1:] == ("BudgetExhausted", "5:31: step budget exhausted", (5, 31))
    assert same_runs(p, "f", [5], memory.Memory(), budget=100)[1] == "UninitializedUse"


# -------------------------------------------------- what must not roll

MENTIONS = "fn f(reg u64 x) -> reg u64 {\n  for r = 0 to 3 { x = x + r; }\n  return x;\n}"


def test_body_mentioning_its_variable_stays_unrolled():
    p = prep(MENTIONS)
    assert repeats(p.func("f").body) == []
    assert source(p) == source(unroll(p))
    assert value(same_runs(p, "f", [5], memory.Memory())) == 11


GLOBAL = """
fn f(reg u64 x) -> reg u64 {
  for r = 0 to 2 { global u64 K = 5; x = x + K; }
  return x;
}"""


def test_global_declared_in_the_body_names_one_global():
    """Every iteration's `global` binds K to the same value, but the
    first iteration binds the name K, so expand expands each iteration
    from the source and makes no repeat node: it stays unrolled."""
    p = prep(GLOBAL)
    assert repeats(p.func("f").body) == [] and ROLLED not in source(p)
    assert value(same_runs(p, "f", [1], memory.Memory())) == 16


INLINE = """
fn f(reg u64 x) -> reg u64 {
  for r = 0 to 2 { inline int c = 2; x = x + c; }
  return x;
}"""


def test_iterations_that_differ_stay_unrolled():
    """A body whose first iteration changes the compile-time environment
    (here it binds the inline c) could expand to other statements in a
    later iteration, as far as expand knows: each is expanded from the
    source and no repeat node is made."""
    p = prep(INLINE)
    assert repeats(p.func("f").body) == [] and source(p) == source(unroll(p))
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
    """The iterations differ in inc's locals, which the node names per
    iteration: unrolled, each iteration's are mentioned by that iteration
    alone, and nothing outside the node mentions any of them."""
    p = prep(INC)
    body = p.func("f").body
    (node,) = repeats(body)
    ts = node.names["t__i1"]
    assert len(set(ts)) == 3 and ts[0] == "t__i1"
    if iteration is None:
        assert ROLLED in source(p)
        assert value(same_runs(p, "f", [1], memory.Memory())) == 4
        return
    i, n = body.index(node), len(node.body)
    flat = unroll(p).func("f").body
    its = [flat[i + j * n:i + (j + 1) * n] for j in range(3)]
    rest = [s for s in body if s is not node]
    assert [ts[iteration] in mentioned(it) for it in its + [rest]] == [
        j == iteration for j in range(4)]


NESTED = """
fn f(reg u64 x) -> reg u64 {
  for a = 0 to 1 { for b = 0 to 2 { x = x + 1; } x = x * 3; }
  return x;
}"""


def test_nested_loops_roll_the_outer_one():
    p = prep(NESTED)
    (node,) = repeats(p.func("f").body)  # the inner loop is unrolled in it
    assert (len(node.body), node.count) == (4, 2)
    assert source(p).count(ROLLED) == 1 and ROLLED + "2)" in source(p)
    assert value(same_runs(p, "f", [1], memory.Memory())) == 45


RESIZED = """
inline fn h(reg u64 a) -> reg u64 {
  return 7;
}
fn f(reg u32 y) -> reg u32 {
  for r = 0 to 2 { y = h(y); }
  return y;
}"""


def test_resized_literal_result_copies_as_expanded():
    """h's literal result moved to a narrower destination is folded when
    it is first expanded, as expanding it again folds it."""
    p = prep(RESIZED)
    assert ROLLED in source(p)
    assert expand(p) == p
    assert value(same_runs(p, "f", [1], memory.Memory())) == 7


SUMS = """
inline fn g(reg u64 a) -> reg u64 {
  reg u64 t, i;
  t = 0;
  i = 0;
  while (i < a) { t = t + i; i = i + 1; }
  return t;
}
fn f(reg u64 x, reg u64 p) -> reg u64 {
  reg u64 y, z;
  y = 0;
  for r = 0 to 2 { z = g(x); y = y + z; [p + y] = x; }
  return y;
}
"""


def test_while_loop_in_the_body_runs_in_every_iteration():
    p = prep(SUMS)
    assert ROLLED in source(p)
    m = memory.add_region(memory.Memory(), 0x100, 24)
    assert value(same_runs(p, "f", [3, 0x100], m)) == 3 + 3 + 3
    assert same_runs(p, "f", [4, 0x100], m)[1] == "OutOfRegion"  # [p + 18] spills over


KILLED = """fn f(reg u64 x) -> reg u64 {
  reg u64[2] a, b;
  a[0] = 1;
  a[1] = 1;
  for r = 0 to 2 { x = x + a[0]; a = b; }
  return x;
}"""


def test_fact_that_iteration_0_kills_is_checked_in_every_iteration():
    """a[0] is assigned before the loop, but iteration 0 copies the
    unassigned b over a: the read of a[0] is checked in the loop's
    body, whose facts are those of every iteration's start joined."""
    p = prep(KILLED)
    assert ROLLED in source(p)
    got = same_runs(p, "f", [5], memory.Memory())
    assert got[1:3] == ("UninitializedUse", "5:28: use of uninitialized a[0]")


# y is iteration 1's x before its guarded add; x - y is 0 or 8, as the
# join of iteration 1 is its own, not iteration 0's.
GUARDED = """fn f(reg u64 p, reg u64 x, reg u64 c) -> reg u64 {
  reg u64 y;
  y = x;
  for r = 0 to 1 { y = x; x = x + 8 if c > 0; }
  [p + (x - y)] = x;
  return x;
}"""


def test_guarded_assignment_in_the_body_runs_in_every_iteration():
    p = prep(GUARDED)
    assert ROLLED in source(p)
    for size, c, want in [(16, 1, "ok"), (8, 1, "fault"), (8, 0, "ok")]:
        m = memory.add_region(memory.Memory(), 0x100, size)
        got = same_runs(p, "f", [0x100, 5, c], m)
        assert got[0] == want
        if want == "ok":
            assert value(got) == 5 + 16 * c


# ------------------------------------------------------ the oracle

SOURCES = {
    "chase": CHASE, "pick": PICK, "half": HALF.replace("@PAD@", ""),
    "half-pieced": HALF.replace("@PAD@", "x = x + 1;\n" * (PIECE + 10)), "scoped": SCOPED,
    "late": LATE, "mentions": MENTIONS, "global": GLOBAL, "inline": INLINE, "inc": INC,
    "nested": NESTED, "resized": RESIZED, "sums": SUMS, "killed": KILLED, "guarded": GUARDED,
}

# The programs here that hold a repeat node.
ROLLING = {"chase", "pick", "half", "half-pieced", "scoped", "late", "inc", "nested",
           "resized", "sums", "killed", "guarded"}

# The sha256 of each program's printed IR with every `for` loop expanded
# per iteration from the source (first 16 hex digits; tests/unroll.py
# prints the whole digests).
UNROLLED = {
    "chacha20_avx2_big": "339500bfce077f2f",
    "chacha20_avx2_small": "28ac97451fca9485",
    "chacha20_scalar": "418fb6bfc266ffee",
    "gimli_ref": "8dce83e42444a4c4",
    "gimli_sse": "435caeb39ce297c7",
    "planted-0": "5cbddb663183c91d",
    "planted-1": "f1d77ec0bf7872f6",
    "planted-2": "f43187de1f1bc92b",
    "planted-3": "ad73c490fd4dac65",
    "planted-4": "d77e849b34989baf",
    "planted-5": "02b6f071a06b2cf1",
    "poly1305_avx2": "47c3fab77ffb761c",
    "poly1305_ref": "6a79eb5ade1cde5d",
    "rolled-chase": "8bf707794c84c44f",
    "rolled-global": "e142f59cd1227389",
    "rolled-guarded": "f0aa9b969281f8b6",
    "rolled-half": "c51963edca1aa777",
    "rolled-half-pieced": "db7f8467d239e08b",
    "rolled-inc": "e37fbda3f15cdabe",
    "rolled-killed": "04ef5e4167024986",
    "rolled-inline": "b9a48d761e0945b5",
    "rolled-late": "3f8540dae9efe72a",
    "rolled-mentions": "2fc9496966420672",
    "rolled-nested": "bba5c80926330fcd",
    "rolled-pick": "bce2ef423b8f3c0d",
    "rolled-resized": "1a551ca996925ce7",
    "rolled-scoped": "c51963edca1aa777",
    "rolled-sums": "214e8e7a96dbb8df",
}


@pytest.mark.parametrize("name", sorted(UNROLLED))
def test_records_are_true(name):
    """A repeat node records its iterations (its body and names): the
    program unrolled by them is the expansion of every iteration from
    the source.  Only ChaCha20 and the programs here that roll have
    repeat nodes."""
    src = cases()[name]
    assert hashlib.sha256(unrolled_ir(src).encode()).hexdigest()[:16] == UNROLLED[name]
    holds = any(repeats(f.body) for f in prep(src).funcs)
    assert holds == (name.startswith("chacha20") or name.removeprefix("rolled-") in ROLLING)


def test_every_program_is_checked():
    assert set(UNROLLED) == set(cases())


@pytest.mark.parametrize("name", sorted(ROLLING))
def test_expand_is_idempotent_on_repeat_nodes(name):
    p = prep(SOURCES[name])
    assert repeats(p.func("f").body)
    assert expand(p) == p
