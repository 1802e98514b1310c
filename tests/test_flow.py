"""The dataflow engine (jamin.flow) on toy domains, and the loop bound
that the range analysis keeps through it."""

import time
from collections import Counter

import pytest

from unroll import private_names, unroll
from jamin import cli, codegen, flow, interp, leakage, safety
from jamin.expand import expand
from jamin.ir import SAssign, SIf, SRepeat, SReturn, SWhile
from jamin.parser import parse
from jamin.typecheck import TypecheckError, typecheck


def body(text, name="f"):
    return expand(typecheck(parse(text))).func(name).body


class Deps:
    """The locals whose value may depend on those of the entry state: a
    forward domain with strong updates, joined by union."""

    recording = False
    at = None

    def __init__(self):
        self.seen = []  # every statement transferred
        self.returned = []  # the state at each return
        self.heads = {}  # flow's kept loop heads

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
    assert out == {"n", "a", "b", "c"}  # the exit state: the return's
    assert d.returned == [out]


def test_code_after_a_return_is_unreachable():
    """y = n would follow a return, which no path reaches: typecheck
    rejects a return that does not end its function's body, so every
    point of an expanded function is reachable."""
    with pytest.raises(TypecheckError, match="6:5: f: return must be the last statement"):
        body("""
fn f(reg u64 n) -> reg u64 {
  reg u64 x, y;
  x = 0;
  if (n == 0) {
    return x;
    y = n;
  }
  return x;
}
""")


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


class RepeatDeps(Deps):
    """Deps with flow's hooks for repeat nodes: all it observes is
    its state."""

    def forget(self, st, private):
        return st - private

    observable = forget


def test_recorded_loop_is_walked_until_an_iteration_changes_nothing():
    """n reaches a in iteration 0, b in 1 and c in 2, and iteration 3
    changes nothing: the last two of the six are skipped, which the walk
    of the unrolled form goes through, and the states at the return
    differ only in inc's locals: every iteration's unrolled, the last
    walked iteration's in the repeat node."""
    p = expand(typecheck(parse(SHIFT)))
    (node,) = [s for s in p.func("f").body if type(s) is SRepeat]
    assert (len(node.body), node.count) == (7, 6)  # c = b; b = a; v and t declared and set; a = t
    private = set(private_names(p))
    walked, returned = {}, {}  # iterations walked: assignments to c but c = 0
    for q, d in ((unroll(p), Deps()), (p, RepeatDeps())):
        returned[type(d)] = flow.forward(q.func("f").body, {"n"}, d)  # the exit state
        walked[type(d)] = sum(type(s) is SAssign and s.dests[0].name == "c" for s in d.seen) - 1
        assert d.returned == [returned[type(d)]]
    assert walked == {Deps: 6, RepeatDeps: 4}
    assert returned[Deps] - private == returned[RepeatDeps] - private == {"n", "a", "b", "c"}
    assert returned[Deps] & private == private
    assert returned[RepeatDeps] & private == set(node.names) == {"v__i1", "t__i1"}


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


def test_check_safety_reports_an_unstable_loop_at_the_loop(monkeypatch):
    """check_safety reports the failure of a loop that does not stabilize
    at the loop, not at `?`."""
    p = expand(typecheck(parse(COPY_SRC)))
    monkeypatch.setattr(safety, "MAX_ITERATIONS", 1)
    ended = [str(f) for f in safety.check_safety(p, "copy", ["src", "dst"], ["len"])
             if f.kind == "analysis"]
    assert ended == ["analysis at 5:3: loop analysis did not stabilize"]


def nested_whiles(k: int) -> str:
    return ("fn f(reg u64 x) {\n" + "while (x < 1) {\n" * k + "x = x + 1;\n" + "}\n" * k
            + "}\n")


def test_nested_loops_cost_linear_walks(monkeypatch):
    """With k while loops nested around x = x + 1, the innermost body is
    walked a number of times linear in k by every domain: safety's
    ranges, leakage's taint and the must-be-assigned facts, which
    safety's maybe-uninit findings and codegen each walk once.
    Each loop resumes from the head it last stabilised at, so it does not
    iterate again from scratch on each pass over the loops around it."""
    walks = {}
    forward = flow.forward
    for k in range(1, 21):
        p = expand(typecheck(parse(nested_whiles(k))))
        inner = p.func("f").body
        for _ in range(k):
            inner = inner[0].body
        count = walks[k] = Counter()

        def counted(stmts, state, d):
            if stmts is inner:
                count[type(d).__name__] += 1
            return forward(stmts, state, d)

        monkeypatch.setattr(flow, "forward", counted)
        safety.analyze(p, "f", [], ["x"])
        leakage.infer_public(p, "f")
        codegen.compile_function(p, p.func("f"), interp._namespace(p))
        assert set(count) == {"_Analyzer", "Assigned", "_FnTaint"}
        if k > 2:  # checked as k grows, so that a faster growth fails early
            assert count == {d: n + (k - 1) * (walks[2][d] - n) for d, n in walks[1].items()}, k


@pytest.mark.wallclock
def test_twenty_nested_loops_analyse_in_under_a_second(tmp_path, capsys):
    src = tmp_path / "nest.jz"
    src.write_text(nested_whiles(20))
    start = time.perf_counter()
    assert cli.main(["safety", str(src), "--entry", "f", "--track", "x"]) == cli.EXIT_OK
    assert time.perf_counter() - start < 1
    assert "range(x) = empty" in capsys.readouterr().out
