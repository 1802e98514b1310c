"""The analyses on repeat nodes (see jamin.flow): safety's ranges,
leakage's taint and the must-be-assigned pass, whose noted reads give
safety's maybe-uninit findings and codegen's checks, walk a repeat node
one iteration at a time and skip the rest once an iteration changes
nothing they observe.  Each test
analyzes a program as built and unrolled (unroll.unroll), whose every
copy is walked, and requires the same reports, once each private local
of the unrolled form is named as in iteration 0 and the findings that
this makes identical are dropped; the programs here pin
how many iterations of each loop are walked."""

import re

import pytest

from gensrc import function_sources
from reports import cases, report
from test_rolled import GUARDED, HALF, ROLLING, SCOPED, SOURCES, observe, repeats
from unroll import private_names, unroll
from jamin import cli, flow, leakage, memory, safety
from jamin.expand import expand
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.typecheck import typecheck


@pytest.fixture
def walks(monkeypatch):
    """The repeat nodes flow visits, as they are walked: a list of
    (domain class name, iterations walked, iterations)."""
    out = []
    real = flow.repeat

    def repeat(s, state, d):
        observable, calls = d.observable, []

        def counted(*args):
            calls.append(1)
            return observable(*args)

        d.observable = counted
        try:
            return real(s, state, d)
        finally:
            del d.observable
            out.append((type(d).__name__, len(calls) - 1, s.count))

    monkeypatch.setattr(flow, "repeat", repeat)
    return out


def analyzer_after(p, entry, pointers, tracked, first=None) -> tuple:
    """What the range analysis leaves besides its report: the relevant
    scalars (each named as `first` maps it) and the number of symbols
    made, on which the numbers of later ones depend."""
    an = safety._Analyzer(p, entry, pointers, tracked)
    try:
        an.run()
    except safety.AnalysisFailure:
        pass
    return {(first or {}).get(n, n) for n in an.relevant}, an.minted


def as_repeated(p, text: str) -> str:
    """The report `text` of unroll(p) with each private local named as
    in iteration 0, and a finding line so made identical to an earlier
    one of its section dropped."""
    first = private_names(p)
    out, seen = [], set()
    for line in text.splitlines(keepends=True):
        line = re.sub(r"\w+", lambda m: first.get(m[0], m[0]), line)
        if line.startswith("["):
            seen = set()
        elif line.startswith(("finding:", "check_safety:")):
            if line in seen:
                continue
            seen.add(line)
        out.append(line)
    return "".join(out)


def same_reports(p, entry, pointers=(), tracked=()):
    """p and its unrolled form report the same, and leave the range
    analysis as each other."""
    assert report(p, entry, pointers, tracked) == as_repeated(
        p, report(unroll(p), entry, pointers, tracked))
    assert analyzer_after(p, entry, pointers, tracked) == analyzer_after(
        unroll(p), entry, pointers, tracked, private_names(p))


def prep(text):
    p = expand(typecheck(parse(text)))
    assert repeats(p.func("f").body)
    return p


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_planted_and_probes_report_as_unrolled(name):
    same_reports(*CASES[name]())


@pytest.mark.parametrize("name", sorted(ROLLING))
def test_rolled_programs_report_as_unrolled(name):
    pointers = ("p",) if name in ("chase", "sums", "guarded") else ()
    same_reports(prep(SOURCES[name]), "f", pointers, ())


@pytest.mark.parametrize("name", [n for n in sorted(PROGRAMS) if n.startswith("chacha20")])
def test_chacha20_rounds_walk_at_most_two_iterations(name, walks):
    """Each round loop is a repeat node of ten iterations; from the
    second iteration on, an iteration changes nothing that the analyses
    observe, the must-be-assigned pass of codegen and of safety
    included."""
    info = PROGRAMS[name]
    p = load_program(name)
    leakage.infer_public(p, info.entry)
    safety.check_safety(p, info.entry, info.pointers, info.tracked)
    function_sources(p)
    assert {d for d, _, _ in walks} == {"_Analyzer", "Assigned", "_FnTaint"}
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
# may be unassigned, and each would add a finding about its own t; named
# as in iteration 0, they are one.
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


def test_maybe_uninit_private_local_is_reported_once(walks):
    p = prep(UNSET)
    found = [str(f) for f in safety.check_safety(p, "f")]
    assert found == ["maybe-uninit at 5:10: t__i1 may be read before assignment"]
    assert walked(walks, "Assigned") == [(2, 4)]
    unrolled = [str(f) for f in safety.check_safety(unroll(p), "f")]
    assert len(set(unrolled)) == 4 and all(f.startswith("maybe-uninit at 5:10: t__i")
                                           for f in unrolled)
    same_reports(p, "f")


# The divisor d may be zero: every copy of the division finds the same
# at the same site, and nothing else changes.
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


def test_divisor_that_may_be_zero_is_reported_once(walks):
    p = prep(DIVIDE)
    for q in (p, unroll(p)):
        rep = safety.analyze(q, "f", [], ["x", "d"])
        assert [str(f) for f in rep.findings] == ["div-by-zero at 4:9: divisor may be zero"]
    assert walked(walks, "_Analyzer") == [(2, 4)]
    same_reports(p, "f", (), ("x", "d"))


# The address mixes p with a value the analysis cannot follow: every copy
# of the store fails the same at the same site, and nothing else changes.
UNRESOLVED = """
fn f(reg u64 p, reg u64 v) {
  for r = 0 to 3 { [p + (v ^ 3)] = v; }
}
"""


def test_unresolvable_address_is_reported_once(walks):
    p = prep(UNRESOLVED)
    for q in (p, unroll(p)):
        rep = safety.analyze(q, "f", ["p"], ["v"])
        assert rep.failures == [safety.Finding("analysis", "3:20", "unresolvable address (not affine)")]
    assert walked(walks, "_Analyzer") == [(2, 4)]
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


def test_guarded_assignment_joins_per_iteration(walks):
    """The join of `x = x + 8 if c > 0` in iteration 1 makes a symbol of
    its own, as the unrolled copy's join does: x - y may be 8, so the
    store may write up to p + 16, and both iterations are walked."""
    p = prep(GUARDED)
    rep = safety.analyze(p, "f", ["p"], [])
    assert rep.machine_lines() == safety.analyze(unroll(p), "f", ["p"], []).machine_lines()
    (line,) = rep.machine_lines()
    assert line.startswith("range(p) = p + [") and int(line.split("; ")[1].rstrip(")")) >= 16
    assert walked(walks, "_Analyzer") == [(2, 2)]
    same_reports(p, "f", ("p",), ())


def test_symbol_made_and_dropped_walks_every_iteration(walks):
    p = prep(PRUNED)
    safety.analyze(p, "f", ["p"], [])
    assert walked(walks, "_Analyzer") == [(4, 4)]
    same_reports(p, "f", ("p",), ())


@pytest.mark.parametrize("src, label", [
    (UNSET, "maybe-uninit at 5:10: t__i1 may be read before assignment"),
    (DIVIDE, "div-by-zero at 4:9: divisor may be zero"),
    (UNRESOLVED, "analysis at 3:20: unresolvable address (not affine)")],
    ids=["uninit", "divide", "unresolved"])
def test_safety_prints_a_repeated_line_once(src, label, tmp_path, capsys):
    path = tmp_path / "loop.jz"
    path.write_text(src)
    args = ["--pointer", "p", "--track", "v"] if "unresolvable" in label else []
    assert cli.main(["safety", str(path), "--entry", "f", *args]) == 1
    assert capsys.readouterr().out.count(label) == 1


@pytest.mark.parametrize("src", [HALF.replace("@PAD@", ""), SCOPED], ids=["half", "scoped"])
def test_private_local_read_unassigned_faults_and_is_found_as_unrolled(src):
    """t may be read before the body assigns it: the run faults as the
    unrolled one does, and maybe-uninit names t at the faulting read."""
    p = prep(src)
    got = observe(p, "f", [0], memory.Memory())[0]
    assert got == observe(unroll(p), "f", [0], memory.Memory())[0] and got[0] == "fault"
    (found,) = safety.check_safety(p, "f")
    assert (found.kind, found.where) == ("maybe-uninit", "%d:%d" % got[3])
    assert found.detail == "t__i1 may be read before assignment"
    same_reports(p, "f")


# t is assigned only where k != 2: on the other path, each iteration
# reads its own t unassigned, never the t of the iteration before, which
# holds x's taint; so x reaches no address.
STALE = """
inline fn g(reg u64 c, reg u64 k) -> reg u64 {
  reg u64 t;
  if (k != 2) { t = c; }
  return t;
}
fn f(reg u64 x, reg u64 s, reg u64 k, reg u64 p) -> reg u64 {
  reg u64 y;
  for r = 0 to 1 { y = g(x, k); x = s; }
  y = [p + y];
  return y;
}
"""


def test_private_local_is_unassigned_at_every_iterations_start():
    p = prep(STALE)
    assert leakage.infer_public(p, "f") == {"k", "p", "s"}
    same_reports(p, "f", ("p",), ())
