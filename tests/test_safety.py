import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gensrc import function_sources
from harness import bound_range
from reports import cases
from jamin import interp, isa, memory, safety
from jamin.expand import expand
from jamin.parser import parse
from jamin.typecheck import typecheck


def prep(text):
    return expand(typecheck(parse(text)))


COPY = prep(
    """
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
)


def test_copy_loop_ranges():
    rep = safety.analyze(COPY, "copy", ["src", "dst"], ["len"])
    assert rep.machine_lines() == [
        "range(src) = src + [0; len)",
        "range(dst) = dst + [0; len)",
        "range(len) = empty",
    ]
    assert rep.failures == []


def test_no_memory_ops_all_empty():
    p = prep("fn f(reg u64 a, reg u64 b) -> reg u64 { a = a + b; return a; }")
    rep = safety.analyze(p, "f", ["a"], ["b"])
    assert rep.machine_lines() == ["range(a) = empty", "range(b) = empty"]


def test_poly1305_ref_paper_ranges():
    from jamin.primitives.corpus import load_program

    p = load_program("poly1305_ref")
    rep = safety.analyze(p, "poly1305", ["out", "in", "k"], ["inlen"])
    assert rep.machine_lines() == [
        "range(out) = out + [0; 16)",
        "range(in) = in + [0; inlen)",
        "range(inlen) = empty",
        "range(k) = k + [0; 32)",
    ]
    assert rep.failures == []
    # the text report uses the half-open bracket notation
    assert "range(in) : in + [0; inlen[" in rep.text_lines()


def test_mixed_bases_rejected():
    p = prep(
        """
fn f(reg u64 a, reg u64 b) -> reg u64 {
  reg u64 t;
  t = (u8)[a + b];
  return t;
}
"""
    )
    rep = safety.analyze(p, "f", ["a", "b"], [])
    assert rep.failures == [safety.Finding("analysis", "4:7", "address mixes bases or has no "
                                           "pointer base (a + b)")]


@pytest.mark.parametrize("loads", [1, 2])
def test_an_offset_without_lower_bound_keeps_none(loads):
    """q - n, n untracked, may lie anywhere below q: the range has no
    lower bound, printed -inf, whether one access records it or two
    join it."""
    body = "  t = (u8)[q + (0 - n)];\n" * loads
    p = prep(f"fn f(reg u64 q, reg u64 n) -> reg u64 {{\n  reg u64 t;\n{body}  return t;\n}}")
    rep = safety.analyze(p, "f", ["q"], [])
    assert rep.machine_lines() == ["range(q) = q + [-inf; 1)"]
    assert rep.text_lines() == ["range(q) : q + [-inf; 1["]
    assert bound_range(rep, "q", {}) == (float("-inf"), 1)


def test_findings_div_by_zero():
    p = prep(
        """
fn f(reg u64 x) -> reg u64 {
  reg u64 d;
  d = x % 7;
  x = x / d;
  return x;
}
"""
    )
    finds = safety.check_safety(p, "f")
    assert any(f.kind == "div-by-zero" for f in finds)


def test_findings_divisor_proven_nonzero():
    p = prep(
        """
fn f(reg u64 x) -> reg u64 {
  reg u64 d;
  d = (x % 9) + 1;
  x = x / d;
  return x;
}
"""
    )
    finds = safety.check_safety(p, "f")
    assert not any(f.kind == "div-by-zero" for f in finds)


def test_findings_array_out_of_bounds():
    p = prep(
        """
fn f() -> reg u64 {
  stack u8[4] a;
  (u8)a[0] = 0;
  reg u64 i, t;
  i = 0;
  while (i < 5) {
    (u8)a.[i] = 1;
    i = i + 1;
  }
  t = (u8)a[0];
  return t;
}
"""
    )
    finds = safety.check_safety(p, "f")
    assert any(f.kind == "array-bounds" for f in finds)


TESTED = """
fn f(reg u64 p, reg u64 i) -> reg u64 {
  stack u64[4] a;
  reg u64 t;
  a[0] = 0; a[1] = 1; a[2] = 2; a[3] = 3;
  t = 0;
  %s
  return t;
}
"""


@pytest.mark.parametrize("test, col", [
    ("if (a[i] < (u64)(u8)[p + (i ^ 1)]) { t = 1; }", 7),
    ("while (a[i] < (u64)(u8)[p + (i ^ 1)]) { t = t + 1; }", 10),
], ids=["if", "while"])
def test_test_of_if_and_while_records_once(test, col):
    """The test's own evaluation records its two findings; the
    refinement of each branch records nothing again."""
    p = prep(TESTED % test)
    rep = safety.analyze(p, "f", ["p"], ["i"])
    assert rep.findings == [
        safety.Finding("array-bounds", f"7:{col}", "index into a may leave its bounds"),
        safety.Finding("analysis", f"7:{col + 12}", "unresolvable address (not affine)")]
    assert safety.check_safety(p, "f", ["p"], ["i"]) == rep.findings


# Accesses the range analysis cannot analyse: analyze and check_safety
# report each once, as an `analysis` finding at its site, after the range
# findings and before the maybe-uninit ones, so they do not call the
# program clean.  Whether an address is affine does not depend on which
# parameters are tracked: `q` is tracked and `p + q * q` is not affine.
UNANALYSED = {
    "not-affine": ("""fn f(reg u64 p, reg u64 q) {
  reg u64 x;
  x = (u8)[p + q * q];
}
""", ["p"], ["q"], [
        "analysis at 3:7: unresolvable address (not affine)"]),
    "two-bases": ("""fn f(reg u64 p, reg u64 r, reg u64 d) -> reg u64 {
  reg u64 x, y;
  while (x < 2) { (u8)[p + r] = 0; x = 1; }
  y = 7 / d;
  return y;
}
""", ["p", "r"], [], [
        "div-by-zero at 4:9: divisor may be zero",
        "analysis at 3:19: address mixes bases or has no pointer base (p + r)",
        "maybe-uninit at 3:10: x may be read before assignment"]),
}


@pytest.mark.parametrize("name", sorted(UNANALYSED))
def test_check_safety_reports_each_unanalysed_access(name):
    src, pointers, tracked, expected = UNANALYSED[name]
    p = prep(src)
    assert [str(f) for f in safety.analyze(p, "f", pointers, tracked).findings] == expected
    assert [str(f) for f in safety.check_safety(p, "f", pointers, tracked)] == expected


def test_relevant_scalars_of_chacha20_scalar():
    """The pointers, the length and the tail's counter reach an address,
    an index or a test; the keystream words and block bytes do not."""
    from jamin.primitives.corpus import PROGRAMS, load_program

    info = PROGRAMS["chacha20_scalar"]
    an = safety._Analyzer(load_program("chacha20_scalar"), info.entry, info.pointers,
                          info.tracked)
    assert {"len", "plain", "output", "j"} <= an.relevant
    assert not an.relevant & {"lo", "hi", "ks", "pt", "k32", "p32", "b"}


UNINIT = [
    """
fn f(reg u64 x) -> reg u64 {
  reg u64 y;
  if (x == 0) { y = 1; }
  x = x + y;
  return x;
}
""",
    """
fn f(reg u64 x) -> reg u64 {
  reg u64 y;
  y = x if x == 0;
  x = x + y;
  return x;
}
""",
    """
fn f(reg u64 x) -> reg u64 {
  reg u64 y;
  x = 1 if y == 0;
  return x;
}
""",
]

CLEAN = [
    """
fn f(reg u64 x) -> reg u64 {
  reg u64 y;
  if (x == 0) { y = 1; } else { y = 2; }
  x = x + y;
  return x;
}
""",
    """
fn f(reg u64 x) -> reg u64 {
  reg u64 y;
  if (x != 0) { y = 2; x = x + y; }
  return x;
}
""",
]


def test_findings_maybe_uninit():
    for src in UNINIT:
        p = prep(src)
        finds = safety.check_safety(p, "f")
        assert any(f.kind == "maybe-uninit" and "y" in f.detail for f in finds), src
        with pytest.raises(interp.UninitializedUse):
            interp.run(p, "f", [1], memory.Memory())


@pytest.mark.parametrize("src", UNINIT, ids=["if", "guarded", "guard"])
def test_maybe_uninit_site_is_the_read_a_run_reports(src):
    p = prep(src)
    [finding] = [f for f in safety.check_safety(p, "f") if f.kind == "maybe-uninit"]
    with pytest.raises(interp.UninitializedUse) as exc:
        interp.run(p, "f", [1], memory.Memory())
    assert finding.where == "{}:{}".format(*exc.value.loc)


def test_findings_clean_when_both_branches_assign():
    for src in CLEAN:
        finds = safety.check_safety(prep(src), "f")
        assert not any(f.kind == "maybe-uninit" for f in finds), src


# A destination's index or address is read after the destinations before
# it are written, and before its own and those after it: the address of
# [p + hi] reads hi, which the destination before it writes; that of
# [p + t] reads t, which nothing writes; and that of [p + lo] reads lo,
# which only the destination after it writes.
PARTIAL = {
    name: """
fn f(reg u64 p, reg u64 a, reg u64 b) {
  reg u64 hi, lo, t;
  _, _, _, _, _, %s = #x86_MUL_64(a, b);
}
""" % dests
    for name, dests in (("hi", "hi, [p + hi]"), ("t", "hi, [p + t]"), ("lo", "[p + lo], lo"))
}


@pytest.mark.parametrize("read, col", [("hi", None), ("t", 27), ("lo", 23)], ids=["hi", "t", "lo"])
def test_destination_address_reads_the_destinations_before_it(read, col):
    """hi is written when [p + hi]'s address reads it, so neither the
    generated code checks it nor safety reports it; t and lo may be
    unassigned there, and both do."""
    p = prep(PARTIAL[read])
    found = [str(f) for f in safety.check_safety(p, "f", ["p"]) if f.kind == "maybe-uninit"]
    checked = re.findall(r"_uu\('(\w+)', ", function_sources(p)["f"])
    if col is None:
        assert (found, checked) == ([], [])
    else:
        assert (found, checked) == ([f"maybe-uninit at 4:{col}: {read} may be read before "
                                     "assignment"], [read])


def _agreement_cases():
    """(name, program, entry): the corpus, the safety_golden probes, the
    maybe-uninit and partial-destination inputs above and the programs of
    test_codegen."""
    import test_codegen as tc
    from test_safety_golden import PROBES

    from jamin.primitives.corpus import PROGRAMS, load_program

    for name, info in PROGRAMS.items():
        yield name, load_program(name), info.entry
    for name, (src, entry, _, _) in PROBES.items():
        yield name, prep(src), entry
    for i, src in enumerate(UNINIT + CLEAN):
        yield f"input {i}", prep(src), "f"
    for name, src in PARTIAL.items():
        yield f"partial {name}", prep(src), "f"
    for name in tc.TABLE_BUILT:
        d = isa.lookup(name)
        yield name, tc._program(d, list(range(len(d.destinations)))), "f"
    for name, (src, _) in tc.LIVE_SOURCES.items():
        yield name, prep(src), "f"
    yield "naming", prep(tc.NAMING), "f"
    yield "selectors", prep(tc.SELECTORS), "f"


def test_maybe_uninit_findings_are_the_reads_codegen_checks():
    """A scalar local has a maybe-uninit finding exactly when the
    generated code of its function checks one of its reads for UNDEF:
    both come from codegen's must-be-assigned facts."""
    flagged = 0
    for name, p, entry in _agreement_cases():
        checked = set(re.findall(r"_uu\('(\w+)', ", function_sources(p)[entry]))
        finds = safety.check_safety(p, entry)
        found = {f.detail.split()[0] for f in finds if f.kind == "maybe-uninit"}
        assert found == checked, name
        flagged += bool(found)
    assert flagged >= 10


def test_preanalyze_examples():
    from jamin.primitives.corpus import load_program

    assert safety.preanalyze(load_program("poly1305_ref"), "poly1305") == {"inlen"}
    assert safety.preanalyze(COPY, "copy") == {"len"}
    straight = prep("fn f(reg u64 a) -> reg u64 { a = a + 1; return a; }")
    assert safety.preanalyze(straight, "f") == set()


def test_unknown_parameter_rejected():
    with pytest.raises(safety.AnalysisFailure):
        safety.analyze(COPY, "copy", ["nope"], [])


def test_check_safety_reports_an_ended_analysis_at_its_site():
    """The failure that ends the range analysis is an `analysis` finding
    at its own site, as an unanalysed access's is; the exception's text,
    which `jamin safety` prints, keeps the site in front."""
    p = prep("fn g(reg u64 x) {\n}\nfn f(reg u64 a) {\n  g(a);\n}\n")
    with pytest.raises(safety.AnalysisFailure) as exc:
        safety.analyze(p, "f", [], ["a"])
    assert str(exc.value) == "4:3: call to non-inline function 'g' is not analyzable"
    assert (exc.value.site, exc.value.detail) == ("4:3", "call to non-inline function 'g' "
                                                  "is not analyzable")
    assert [str(f) for f in safety.check_safety(p, "f", [], ["a"])] == [
        "analysis at 4:3: call to non-inline function 'g' is not analyzable"]


CASES = cases()  # the corpus, the planted programs and the golden probes


def _tracked_choices(p, entry, declared) -> list:
    """The declared tracked set, preanalyze's, none and every parameter."""
    return [list(declared), sorted(safety.preanalyze(p, entry)), [],
            [q.name for q in p.func(entry).params]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_findings_are_check_safety(name):
    """Where the range analysis ends, analyze's findings are the list
    check_safety returns."""
    p, entry, pointers, declared = CASES[name]()
    for tracked in _tracked_choices(p, entry, declared):
        try:
            rep = safety.analyze(p, entry, pointers, tracked)
        except safety.AnalysisFailure:
            continue
        assert rep.findings == safety.check_safety(p, entry, pointers, tracked), tracked


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_safety_does_not_depend_on_tracked(name):
    """Tracking picks which parameters a reported bound may name, and
    which get a range line; the findings are the same under every
    choice."""
    p, entry, pointers, declared = CASES[name]()
    found = [safety.check_safety(p, entry, pointers, tracked)
             for tracked in _tracked_choices(p, entry, declared)]
    assert all(f == found[0] for f in found), name


def test_tracked_monotonicity():
    # dropping the tracked scalar keeps the report sound (looser, not wrong)
    rep = safety.analyze(COPY, "copy", ["src", "dst"], [])
    line = rep.machine_lines()[0]
    assert line.startswith("range(src) = src + [0; ")
    assert line.endswith("inf)") or line.endswith("len)")


def test_termination_on_widening_loop():
    p = prep(
        """
fn f(reg u64 n, reg u64 p) {
  reg u64 i;
  i = 0;
  while (i < n) {
    reg u64 j;
    j = 0;
    while (j < i) {
      (u8)[p + 0] = 0;
      j = j + 1;
    }
    i = i + 1;
  }
}
"""
    )
    rep = safety.analyze(p, "f", ["p"], ["n"])  # nested loops stabilize
    assert "range(p) = p + [0; 1)" in rep.machine_lines()


def test_corpus_analyzes_clean():
    from jamin.primitives.corpus import PROGRAMS, load_program

    for name, info in PROGRAMS.items():
        p = load_program(name)
        rep = safety.analyze(p, info.entry, info.pointers, info.tracked)
        assert rep.failures == [], (name, rep.failures)
        finds = safety.check_safety(p, info.entry, info.pointers, info.tracked)
        assert finds == [], (name, [str(f) for f in finds])


def test_corpus_loops_converge_within_three_passes(monkeypatch):
    """Every while loop of the corpus reaches its fixpoint within three
    passes over its body, in every fixpoint the analysis computes: the
    first pass joins the entry with one run of the body, the second
    widens what changed to the guard thresholds that hold, and the third
    finds nothing more to change."""
    from jamin.ir import SIf, SRepeat, SWhile
    from jamin.primitives.corpus import PROGRAMS, load_program

    def whiles(stmts):
        for s in stmts:
            if type(s) is SWhile:
                yield s
            for block in ((s.then, s.els) if type(s) is SIf else
                          (s.body,) if type(s) in (SWhile, SRepeat) else ()):
                yield from whiles(block)

    passes: dict = {}
    widen = safety._Analyzer.widen

    def counted(self, s, key, n, *rest):
        passes[s.loc] = max(passes.get(s.loc, 0), n + 1)
        return widen(self, s, key, n, *rest)

    monkeypatch.setattr(safety._Analyzer, "widen", counted)
    for name, info in PROGRAMS.items():
        p = load_program(name)
        passes.clear()
        safety.analyze(p, info.entry, info.pointers, info.tracked)
        assert set(passes) == {s.loc for s in whiles(p.func(info.entry).body)}, name
        assert all(n <= 3 for n in passes.values()), (name, passes)


# ------------------------------------------- Aff against a Fraction model

SYMS = [("p", "a"), ("p", "b"), ("s", 1), ("s", 2), ("s", 10)]
NUMS = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=6),
)
AFFS = st.builds(
    lambda c, t: safety.Aff(c, t.items()),
    NUMS,
    st.dictionaries(st.sampled_from(SYMS), NUMS, max_size=4),
)
AFF_PROPS = settings(max_examples=200, deadline=None)


def model(a):
    """(const, {sym: coeff}) as Fractions, after checking that `a` is
    canonical: ints where integral, Fractions only where not, no float,
    terms sorted with no zero coefficient."""
    for x in [a.const] + [c for _, c in a.terms]:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x
    assert [s for s, _ in a.terms] == sorted(s for s, _ in a.terms)
    assert all(c != 0 for _, c in a.terms)
    return Fraction(a.const), {s: Fraction(c) for s, c in a.terms}


def model_add(x, y, sign=1):
    terms = dict(x[1])
    for s, c in y[1].items():
        terms[s] = terms.get(s, 0) + sign * c
    return x[0] + sign * y[0], {s: c for s, c in terms.items() if c}


def model_render(m):
    """The rendering of the all-Fraction representation."""
    const, terms = m
    parts = []
    if const or not terms:
        parts.append(str(int(const)) if const.denominator == 1 else str(const))
    for s, c in sorted(terms.items()):
        name = s[1] if s[0] == "p" else f"s{s[1]}"
        if c == 1:
            parts.append(str(name))
        else:
            cc = str(int(c)) if c.denominator == 1 else f"({c})"
            parts.append(f"{cc}*{name}")
    return " + ".join(parts)


@AFF_PROPS
@given(AFFS, AFFS, st.integers(-40, 40))
def test_aff_add_sub_match_model(a, b, k):
    assert model(a + b) == model_add(model(a), model(b))
    assert model(a - b) == model_add(model(a), model(b), -1)
    assert model(a + k) == (model(a)[0] + k, model(a)[1])
    assert model(a - k) == (model(a)[0] - k, model(a)[1])
    assert a + b == b + a and hash(a + b) == hash(b + a)


@AFF_PROPS
@given(AFFS, NUMS)
def test_aff_scale_matches_model(a, k):
    const, terms = model(a)
    expect = (const * k, {s: c * k for s, c in terms.items() if c * k})
    assert model(a.scale(k)) == expect
    assert a.scale(1) is a


@AFF_PROPS
@given(AFFS, AFFS)
def test_aff_order_and_render_match_model(a, b):
    ma, mb = model(a), model(b)
    diff = model_add(mb, ma, -1)
    assert safety._le(a, b) == (diff[0] >= 0 and all(c >= 0 for c in diff[1].values()))
    assert a.nonneg() == (ma[0] >= 0 and all(c >= 0 for c in ma[1].values()))
    assert a.render() == model_render(ma)


def model_ratio(dv, du):
    """The c with dv == c*du, or None (also None when du is zero)."""
    parts = [(du[0], dv[0])] + [(c, dv[1].get(s, 0)) for s, c in du[1].items()]
    pivot = next(((u, v) for u, v in parts if u != 0), None)
    if pivot is None:
        return None
    c = Fraction(pivot[1]) / pivot[0]
    scaled = (du[0] * c, {s: x * c for s, x in du[1].items() if x * c})
    return c if scaled == dv else None


@AFF_PROPS
@given(AFFS, AFFS, NUMS, st.booleans())
def test_aff_ratio_matches_model(du, other, k, proportional):
    dv = du.scale(k) if proportional else other
    c = safety._ratio(dv, du)
    assert type(c) in (int, Fraction, type(None))
    assert c == model_ratio(model(dv), model(du))
    if c is not None:
        assert type(c) is int or c.denominator != 1


# Rules of the range analysis that the corpus leaves unreached, the
# non-affine ones first: each of those programs reads the byte at p + t
# for a t that no affine value gives.  Every run of a program must read
# only inside the range the analysis reports for p, under that run's
# parameters (the containment of criterion 7, on small programs).
# name -> (source, tracked, the reported range, runs: each the arguments
# after p and the byte at q).  The runs reach every rule's extremes.
P, Q = 0x10000, 0x20000

RULES = {
    # interval subtraction: 15 - [0; 7] is [8; 15]
    "subtract": ("""
fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 t, r;
  t = 15 - (x & 7);
  r = (u64)(u8)[p + t];
  return r;
}""", [], "p + [8; 16)", [([x], 0) for x in range(10)]),
    # _iv_mul of two constant ranges: [0; 3] * [0; 3] is [0; 9]
    "multiply": ("""
fn f(reg u64 p, reg u64 x, reg u64 y) -> reg u64 {
  reg u64 t, r;
  t = ((u64)(u8)x & 3) * ((u64)(u8)y & 3);
  r = (u64)(u8)[p + t];
  return r;
}""", [], "p + [0; 10)", [([x, y], 0) for x in range(5) for y in range(5)]),
    # the same with x and y tracked: `&` keeps 3 among the upper bounds of
    # each side, next to the parameter, and _iv_mul takes the least constant
    "multiply-tracked": ("""
fn f(reg u64 p, reg u64 x, reg u64 y) -> reg u64 {
  reg u64 t, r;
  t = (x & 3) * (y & 3);
  r = (u64)(u8)[p + t];
  return r;
}""", ["x", "y"], "p + [0; 10)", [([x, y], 0) for x in range(5) for y in range(5)]),
    # _iv_mul by a range without a constant upper bound: unbounded above;
    # `&` of two such ranges is bounded by its width
    "multiply-symbolic": ("""
fn f(reg u64 p, reg u64 x, reg u64 n) -> reg u64 {
  reg u64 t, u, r;
  t = (x & 3) * n;
  u = t & t;
  r = (u64)(u8)[p + u];
  return r;
}""", ["n"], "p + [0; 18446744073709551616)", [([x, n], 0) for x in range(4) for n in range(4)]),
    # a lane operator's value: the lanes' whole width
    "lanes": ("""
fn f(reg u64 p, reg u256 v) -> reg u64 {
  reg u256 w;
  reg u64 t, r;
  w = v +4u64 v;
  t = (u64)w & 15;
  r = (u64)(u8)[p + t];
  return r;
}""", [], "p + [0; 16)", [([v], 0) for v in (0, 7, 1 << 63, (1 << 256) - 1, 0x0f0e << 100)]),
    # a shift by a count that is not constant: the width of its value
    "shift": ("""
fn f(reg u64 p, reg u64 x, reg u64 y) -> reg u64 {
  reg u64 t, r;
  t = (x >> y) & 15;
  r = (u64)(u8)[p + t];
  return r;
}""", [], "p + [0; 16)", [([x, y], 0) for x in (0, 15, 255, 1 << 63) for y in (0, 1, 4, 63)]),
    # a single-destination intrinsic: the width of its destination
    "intrinsic": ("""
fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 t, u, r;
  t = #x86_MOV_64(x);
  u = t & 15;
  r = (u64)(u8)[p + u];
  return r;
}""", [], "p + [0; 16)", [([x], 0) for x in (0, 9, 15, 16, 1 << 63)]),
    # four incomparable lower bounds: a bound set keeps three, 0 among them
    "lower-bounds": ("""
fn f(reg u64 p, reg u64 q, reg u64 a, reg u64 b, reg u64 c, reg u64 d) -> reg u64 {
  reg u64 i, r;
  r = 0;
  i = (u64)(u8)[q];
  if (i >= a) { if (i >= b) { if (i >= c) { if (i >= d) { if (i < 16) {
    r = (u64)(u8)[p + i];
  } } } } }
  return r;
}""", ["a", "b", "c", "d"], "p + [a; 16)",
        [([Q, a, b, c, d], i) for a, b, c, d in ((0, 1, 2, 3), (3, 2, 1, 0), (5, 0, 9, 2))
         for i in (0, 4, 9, 15, 16)]),
    # `<<` and `*` by a constant keep an offset affine in the counter
    "shift-left": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, s;
  i = 0;
  s = 0;
  while (i < n) { s = s + (u64)(u8)[p + (i << 3)]; i = i + 1; }
  return s;
}""", ["n"], "p + [0; -7 + 8*n)", [([n], 0) for n in range(5)]),
    "times-constant": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, j, s;
  i = 0;
  s = 0;
  while (i < n) { j = 8 * i; s = s + (u64)(u8)[p + j]; i = i + 1; }
  return s;
}""", ["n"], "p + [0; -7 + 8*n)", [([n], 0) for n in range(5)]),
    # a join whose driver's new value is bounded below only by the
    # driver's own loop symbol, a bound the join drops
    "self-bounded-driver": ("""
fn f(reg u64 p) -> reg u64 {
  reg u64 j, k, s;
  j = 0;
  k = 0;
  s = 0;
  while (j == k) { s = s + (u64)(u8)[p + k]; j = k + 3; k = j + k; }
  return s;
}""", [], "p + [-inf; inf)", [([], 0)]),
    # counters capped by a test in the loop body: widening keeps the cap,
    # a threshold taken from that test, at the first pass that widens
    "capped-counter": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, j, s;
  i = 0;
  j = 0;
  s = 0;
  while (i < n) { if (j < 5) { j = j + 1; } s = s + (u64)(u8)[p + j]; i = i + 1; }
  return s;
}""", [], "p + [1; 6)", [([n], 0) for n in range(8)]),
    "capped-counter-wide": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, j, s;
  i = 0;
  j = 0;
  s = 0;
  while (i < n) { if (j < 20) { j = j + 1; } s = s + (u64)(u8)[p + j]; i = i + 1; }
  return s;
}""", [], "p + [1; 21)", [([n], 0) for n in (0, 1, 2, 19, 20, 21, 25)]),
    # a lower threshold: a counter counted down to a floor
    "floored-counter": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, j, s;
  i = 0;
  j = 10;
  s = 0;
  while (i < n) { if (j > 3) { j = j - 1; } s = s + (u64)(u8)[p + j]; i = i + 1; }
  return s;
}""", [], "p + [3; 10)", [([n], 0) for n in range(10)]),
    # a counter reset by a test in the body
    "reset-counter": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, j, s;
  i = 0;
  j = 0;
  s = 0;
  while (i < n) { j = j + 2; if (j >= 10) { j = 0; } s = s + (u64)(u8)[p + j]; i = i + 1; }
  return s;
}""", [], "p + [0; 10)", [([n], 0) for n in range(8)]),
    # a counter capped by its own assignment's guard, which refines both
    # of its sides as the test of an `if` does
    "guarded-counter": ("""
fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 i, j, s;
  i = 0;
  j = 0;
  s = 0;
  while (i < n) { j = j + 1 if j < 7; s = s + (u64)(u8)[p + j]; i = i + 1; }
  return s;
}""", [], "p + [1; 8)", [([n], 0) for n in range(10)]),
    # a return value, a bool destination and a bool literal that the
    # analysis evaluates, and a global array's element
    "return": ("""
fn f(reg u64 p) -> reg u64 {
  return (u64)(u8)[p + 2];
}""", [], "p + [2; 3)", [([], 0)] * 2),
    "bool-destination": ("""
fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg bool c;
  reg u64 r;
  r = 0;
  c = (u64)(u8)[p + x] == 1;
  if (c) { r = (u64)(u8)[p + x + 1]; }
  return r;
}""", ["x"], "p + [x; 2 + x)", [([x], 0) for x in range(8)]),
    "bool-literal": ("""
fn f(reg u64 p) -> reg u64 {
  reg bool c;
  reg u64 r;
  r = 0;
  c = true;
  if (c) { r = (u64)(u8)[p + 1]; }
  return r;
}""", [], "p + [1; 2)", [([], 0)] * 2),
    "global-array": ("""
global u64[2] G = {1, 2};
fn f(reg u64 p) -> reg u64 {
  reg u64 r;
  r = G[1] + (u64)(u8)[p + 3];
  return r;
}""", [], "p + [3; 4)", [([], 0)] * 2),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_reported_ranges_contain_every_run(name):
    text, tracked, want, runs = RULES[name]
    p = prep(text)
    pointers = ["p", "q"] if "reg u64 q" in text else ["p"]
    rep = safety.analyze(p, "f", pointers, tracked)
    assert rep.findings == []
    assert rep.machine_lines()[0] == f"range(p) = {want}"
    params = [q.name for q in p.func("f").params]
    data = bytes(range(1, 65))
    seen = set()
    for args, byte in runs:
        m = memory.Memory.from_spans([(P, data), (Q, bytes([byte]))])
        lo, hi = bound_range(rep, "p", dict(zip(params[1:], args)))
        trace: list = []
        interp.run(p, "f", [P, *args], m, trace=trace)
        offsets = [e - P for e in trace if type(e) is int and P <= e < Q]
        assert all(lo <= o < hi for o in offsets), (args, byte, lo, hi, offsets)
        seen.update(offsets)
    assert seen
