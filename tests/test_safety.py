import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gensrc import function_sources
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
    assert rep.failures and "mixes bases" in rep.failures[0]


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
    """The test's own evaluation records its finding and failure; the
    refinement of each branch records nothing again."""
    p = prep(TESTED % test)
    rep = safety.analyze(p, "f", ["p"], ["i"])
    assert [str(f) for f in rep.findings] == [
        f"array-bounds at 7:{col}: index into a may leave its bounds"]
    assert rep.failures == [
        f"7:{col + 12}: unresolvable address (not affine in tracked inputs)"]
    assert safety.check_safety(p, "f", ["p"], ["i"]) == rep.findings


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
  if (x == 0) { return x; } else { y = 2; }
  x = x + y;
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


def test_findings_clean_when_both_branches_assign():
    for src in CLEAN:
        finds = safety.check_safety(prep(src), "f")
        assert not any(f.kind == "maybe-uninit" for f in finds), src


def _agreement_cases():
    """(name, program, entry): the corpus, the safety_golden probes, the
    maybe-uninit inputs above and the programs of test_codegen."""
    import test_codegen as tc
    from test_safety_golden import PROBES

    from jamin.primitives.corpus import PROGRAMS, load_program

    for name, info in PROGRAMS.items():
        yield name, load_program(name), info.entry
    for name, (src, entry, _, _) in PROBES.items():
        yield name, prep(src), entry
    for i, src in enumerate(UNINIT + CLEAN):
        yield f"input {i}", prep(src), "f"
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
        checked = set(re.findall(r"_uu\([^,]+, '(\w+)', ", function_sources(p)[entry]))
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
