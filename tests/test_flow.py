"""The dataflow engine (jamin.flow) on toy domains, and the loop bound
that the range analysis keeps through it."""

import pytest

from jamin import cli, flow, safety
from jamin.expand import expand
from jamin.ir import SAssign, SIf, SReturn, SWhile
from jamin.parser import parse
from jamin.typecheck import typecheck


def body(text, name="f"):
    return expand(typecheck(parse(text))).func(name).body


class Deps:
    """The locals whose value may depend on those of the entry state: a
    forward domain with strong updates, joined by union."""

    recording = False

    def __init__(self):
        self.seen = []  # every statement transferred
        self.returned = []  # the state at each return

    def copy(self, st):
        return set(st)

    def refine(self, st, cond, taken):
        return st

    def join(self, key, a, b):
        return a | b

    def transfer(self, st, s):
        self.seen.append(s)
        if type(s) is SReturn:
            self.returned.append(set(st))
        if type(s) is SIf or type(s) is SWhile:
            return st
        reads, rebinds = flow.summary(s)
        tainted = not st.isdisjoint(reads)
        st.difference_update(rebinds)
        if tainted:
            st.update(rebinds)
        return st


def test_nested_loops_reach_the_fixpoint():
    """n reaches a in the outer loop, b from a and c from b in the inner
    one: three passes of each loop before nothing changes."""
    d = Deps()
    out = flow.forward(body("""
fn f(reg u64 n) -> reg u64 {
  reg u64 i, j, a, b, c;
  a = 0; b = 0; c = 0; i = 0;
  while (i < 3) {
    j = 0;
    while (j < 3) {
      c = b;
      b = a;
      j = j + 1;
    }
    a = n;
    i = i + 1;
  }
  return c;
}
"""), {"n"}, d)
    assert out is None  # the function returns
    assert d.returned == [{"n", "a", "b", "c"}]


def test_code_after_a_return_is_unreachable():
    """y = n follows a return: it is never transferred, and y reaches x
    without n's dependence."""
    d = Deps()
    stmts = body("""
fn f(reg u64 n) -> reg u64 {
  reg u64 x, y;
  x = 0;
  y = 0;
  if (n == 0) {
    return x;
    y = n;
  }
  x = y;
  return x;
}
""")
    assert flow.forward(stmts, {"n"}, d) is None
    assert stmts[3].then[1] not in d.seen
    assert d.returned == [{"n"}, {"n"}]


def test_backward_liveness_at_a_while_test():
    """Live at the test: the exit's x, the test's n, and the names the
    body reads before it writes them: y, z and a."""
    stmts = body("""
fn f(reg u64 n, reg u64 a, reg u64 x, reg u64 y, reg u64 z) -> reg u64 {
  while (0 < n) {
    x = y;
    y = z;
    z = a;
    n = n - 1;
  }
  return x;
}
""")

    def live(after, s):
        reads, rebinds = flow.summary(s)
        if type(s) is SWhile:
            return after | set(flow.reads(s.cond))
        if type(s) is SReturn:
            return set(reads)
        return (after - set(rebinds)) | set(reads)

    assert flow.backward(stmts, set(), live) == {"x", "n", "a", "y", "z"}


SHIFT = """
inline fn inc(reg u64 v) -> reg u64 {
  reg u64 t;
  t = v + 1;
  return t;
}
fn f(reg u64 n) -> reg u64 {
  reg u64 a, b, c;
  a = 0; b = 0; c = 0;
  for r = 0 to 5 { c = b; b = a; a = inc(n); }
  return c;
}
"""


class RecordedDeps(Deps):
    """Deps with the driver's hook for the loops expand recorded: all it
    observes is its state."""

    def __init__(self, p):
        super().__init__()
        self.unrolled = flow.records(p, p.func("f"))

    def observable(self, st, private):
        return st - private


def test_recorded_loop_is_walked_until_an_iteration_changes_nothing():
    """n reaches a in iteration 0, b in 1 and c in 2, and iteration 3
    changes nothing: the last two of the six are skipped, which a domain
    without the hook walks, and the state at the return differs only in
    the skipped iterations' copies of inc's locals."""
    p = expand(typecheck(parse(SHIFT)))
    ((_, n, k, names),) = p.unrolled["f"]
    assert (n, k) == (7, 6)  # c = b; b = a; v and t declared and assigned; a = t
    private = {nm for per in names.values() for nm in per}
    walked = {}  # iterations walked: assignments to c but c = 0
    for d in (Deps(), RecordedDeps(p)):
        assert flow.forward(p.func("f").body, {"n"}, d) is None
        walked[type(d)] = sum(type(s) is SAssign and s.dests[0].name == "c" for s in d.seen) - 1
        (returned,) = d.returned
        assert returned - private == {"n", "a", "b", "c"}
    assert walked == {Deps: 6, RecordedDeps: 4}
    assert returned & private == {nm for per in names.values() for nm in per[:4]}


COPY_SRC = """
fn copy(reg u64 src, reg u64 dst, reg u64 len) {
  reg u64 i, t;
  i = 0;
  while (i < len) {
    t = (u8)[src + i];
    (u8)[dst + i] = t;
    i = i + 1;
  }
}
"""


def test_unstable_loop_fails_the_analysis(monkeypatch, tmp_path, capsys):
    """A loop that needs more passes than MAX_ITERATIONS makes the range
    analysis fail, and `jamin safety` exit 2."""
    p = expand(typecheck(parse(COPY_SRC)))
    assert safety.analyze(p, "copy", ["src", "dst"], ["len"]).failures == []
    monkeypatch.setattr(safety, "MAX_ITERATIONS", 1)
    with pytest.raises(safety.AnalysisFailure, match="did not stabilize"):
        safety.analyze(p, "copy", ["src", "dst"], ["len"])
    src = tmp_path / "copy.jz"
    src.write_text(COPY_SRC)
    assert cli.main(["safety", str(src), "--entry", "copy", "--pointer", "src,dst",
                     "--track", "len"]) == cli.EXIT_USAGE
    assert "did not stabilize" in capsys.readouterr().err
