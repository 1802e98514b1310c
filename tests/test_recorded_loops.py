"""The analyses on the loops that expand records as unrolled copies (see
jamin.flow): safety's ranges and maybe-uninit findings and leakage's
taint walk such a loop one iteration at a time and skip the rest once
an iteration changes nothing they observe.  Each test analyzes a
program as built and as a copy without expand's record, whose every
copy is walked, and requires the same reports; the new programs here
are loops that must be walked to their last iteration."""

import pytest

from reports import cases, report
from test_rolled import CHASE, HALF, INC, PICK, SCOPED, unrolled
from jamin import flow, leakage, safety
from jamin.expand import expand
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.typecheck import typecheck


@pytest.fixture
def walks(monkeypatch):
    """The recorded loops flow visits, as they are walked: a list of
    (domain class name, iterations walked, iterations)."""
    out = []
    real = flow.iterations

    def iterations(stmts, n, names, state, d):
        observable, calls = d.observable, []

        def counted(*args):
            calls.append(1)
            return observable(*args)

        d.observable = counted
        try:
            return real(stmts, n, names, state, d)
        finally:
            del d.observable
            out.append((type(d).__name__, len(calls) - 1, len(stmts) // n))

    monkeypatch.setattr(flow, "iterations", iterations)
    return out


def analyzer_after(p, entry, pointers, tracked) -> tuple:
    """What the range analysis leaves besides its report: the relevant
    scalars and the number of symbols made, on which the numbers of
    later ones depend."""
    an = safety._Analyzer(p, entry, pointers, tracked)
    try:
        an.run()
    except safety.AnalysisFailure:
        pass
    return an.relevant, an.minted


def same_reports(p, entry, pointers=(), tracked=()):
    """p and its copy without the record report the same, and leave the
    range analysis as each other."""
    assert report(p, entry, pointers, tracked) == report(unrolled(p), entry, pointers, tracked)
    assert analyzer_after(p, entry, pointers, tracked) == analyzer_after(
        unrolled(p), entry, pointers, tracked)


def prep(text):
    p = expand(typecheck(parse(text)))
    assert p.unrolled
    return p


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_planted_and_probes_report_as_unrolled(name):
    same_reports(*CASES[name]())


@pytest.mark.parametrize("src, pointers", [
    (CHASE, ("p",)), (PICK, ()), (HALF.replace("@PAD@", ""), ()), (SCOPED, ()), (INC, ())],
    ids=["chase", "pick", "half", "scoped", "inc"])
def test_rolled_programs_report_as_unrolled(src, pointers):
    same_reports(prep(src), "f", pointers, ())


@pytest.mark.parametrize("name", [n for n in sorted(PROGRAMS) if n.startswith("chacha20")])
def test_chacha20_rounds_walk_at_most_two_iterations(name, walks):
    """Each round loop is ten copies; from the second iteration on, an
    iteration changes nothing that the analyses observe."""
    info = PROGRAMS[name]
    p = load_program(name)
    leakage.infer_public(p, info.entry)
    safety.check_safety(p, info.entry, info.pointers, info.tracked)
    assert {d for d, _, _ in walks} == {"_Analyzer", "_Uninit", "_FnTaint"}
    assert all(k == 10 and 1 <= w <= 2 for _, w, k in walks), walks


def walked(walks, domain) -> list:
    return [(w, k) for d, w, k in walks if d == domain]


# A pointer stepped through memory: every pass of the while loop walks
# all four iterations, whose pointer differs, and the accesses span them.
STEP = """
inline fn put(reg u64 q, reg u64 v) -> reg u64 {
  reg u64 r;
  [q + 0] = v;
  r = q + 8;
  return r;
}
fn f(reg u64 p, reg u64 n, reg u64 v) {
  reg u64 i;
  i = 0;
  while (i < n) {
    for r = 0 to 3 { p = put(p, v); }
    i = i + 1;
  }
}
"""


def test_stepped_pointer_walks_every_iteration(walks):
    p = prep(STEP)
    rep = safety.analyze(p, "f", ["p"], ["n"])
    assert rep.machine_lines() == ["range(p) = p + [0; 32*n)", "range(n) = empty"]
    assert walked(walks, "_Analyzer") and all(w == k == 4 for w, k in walked(walks, "_Analyzer"))
    same_reports(p, "f", ("p",), ("n",))


# t is assigned only when c != 2: each iteration reads its own t, which
# may be unassigned, so each iteration adds a finding.
UNSET = """
inline fn half(reg u64 c) -> reg u64 {
  reg u64 t;
  if (c != 2) { t = c; }
  return t;
}
fn f(reg u64 i) -> reg u64 {
  reg u64 x, y;
  x = 0;
  for r = 0 to 3 {
    y = half(i);
    x = x + y;
  }
  return x;
}
"""


def test_maybe_uninit_renamed_local_walks_every_iteration(walks):
    p = prep(UNSET)
    found = [str(f) for f in safety.check_safety(p, "f")]
    assert len(found) == 4 and len(set(found)) == 4
    assert all(f.startswith("maybe-uninit at 5:10: t__i") for f in found)
    assert walked(walks, "_Uninit") == [(4, 4)]
    same_reports(p, "f")


# The divisor d may be zero: every copy of the division is a finding at
# the same site, and nothing else changes.
DIVIDE = """
inline fn div(reg u64 a, reg u64 b) -> reg u64 {
  reg u64 q;
  q = a / b;
  return q;
}
fn f(reg u64 x, reg u64 d) -> reg u64 {
  reg u64 y;
  y = 0;
  for r = 0 to 3 { y = div(x, d); }
  return y;
}
"""


def test_divisor_that_may_be_zero_walks_every_iteration(walks):
    p = prep(DIVIDE)
    rep = safety.analyze(p, "f", [], ["x", "d"])
    assert [str(f) for f in rep.findings] == ["div-by-zero at 4:9: divisor may be zero"] * 4
    assert walked(walks, "_Analyzer") == [(4, 4)]
    same_reports(p, "f", (), ("x", "d"))


# The address mixes p with a value the analysis cannot follow: every copy
# of the store is a failure at the same site, and nothing else changes.
UNRESOLVED = """
fn f(reg u64 p, reg u64 v) {
  for r = 0 to 3 { [p + (v ^ 3)] = v; }
}
"""


def test_unresolvable_address_walks_every_iteration(walks):
    p = prep(UNRESOLVED)
    rep = safety.analyze(p, "f", ["p"], ["v"])
    assert rep.failures == ["3:20: unresolvable address (not affine in tracked inputs)"] * 4
    assert walked(walks, "_Analyzer") == [(4, 4)]
    same_reports(p, "f", ("p",), ("v",))


# Iteration 0 stores s to p's region and changes no local: only the
# taint version tells that iteration 1's load now carries s.
STORE = """
fn f(reg u64 p, reg u64 s) -> reg u64 {
  reg u64 x;
  x = [p + 8];
  for r = 0 to 3 {
    x = [p + 8];
    [p + 0] = s;
  }
  if (x == 0) { x = 1; }
  return x;
}
"""


def test_newly_secret_store_walks_until_the_load_sees_it(walks):
    p = prep(STORE)
    assert leakage.infer_public(p, "f") == {"mem[p]", "p", "s"}
    assert walked(walks, "_FnTaint") == [(3, 4)]
    same_reports(p, "f", ("p",), ())


# t's symbol, made by the load, is dropped at the join after the test:
# an iteration makes a symbol and leaves no other trace in the state.
PRUNED = """
inline fn g(reg u64 q) -> reg u64 {
  reg u64 t;
  t = [q + 0];
  if (t == 0) { t = 1; } else { t = 1; }
  return t;
}
fn f(reg u64 p) -> reg u64 {
  reg u64 x;
  x = 0;
  for r = 0 to 3 { x = g(p); }
  return x;
}
"""


def test_symbol_made_and_dropped_walks_every_iteration(walks):
    p = prep(PRUNED)
    safety.analyze(p, "f", ["p"], [])
    assert walked(walks, "_Analyzer") == [(4, 4)]
    same_reports(p, "f", ("p",), ())
