"""Recorded reports of the range and safety analysis.

tests/data/safety_golden.json holds what safety.analyze and
safety.check_safety report on every corpus program, and on a few small
probe programs that reach failures, findings on stores and rational
bounds, which the corpus does not, and scalars that matter to the
analysis through one kind of use only (an address, an index, a test, a
divisor, a guarded or compound assignment) beside data-only ones.  Each program is analyzed under
three choices of tracked parameters: the declared set, preanalyze's
suggestion and none at all.  An entry records the machine and text
range lines, the analysis failures and the findings (or the
AnalysisFailure that ended the analysis), so any change to a verdict
or a printed range shows up here.

Regenerate (only when a change of the analysis's output is intended) with
    PYTHONPATH=src python tests/test_safety_golden.py
"""

import json
from pathlib import Path

import pytest

from jamin import safety
from jamin.expand import expand
from jamin.parser import parse
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.typecheck import typecheck

GOLDEN = Path(__file__).resolve().parent / "data" / "safety_golden.json"

# name -> (source, entry, pointers, declared tracked)
PROBES = {
    "probe_store_bounds": (
        """fn f() -> reg u64 {
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
}""",
        "f", (), (),
    ),
    "probe_store_bases": (
        """fn f(reg u64 a, reg u64 b, reg u64 x) {
  reg u64 t;
  t = 7;
  (u8)[a + b] = t;
  [a + (x ^ 3)] = t;
}""",
        "f", ("a", "b"), ("x",),
    ),
    "probe_shifts": (
        """fn f(reg u64 p, reg u64 n, reg u64 x) -> reg u64 {
  reg u64 i, h, q, d;
  i = 0;
  while (i < n) {
    h = i >> 1;
    q = i / 3;
    (u8)[p + h] = 0;
    (u8)[p + q] = 0;
    i = i + 1;
  }
  d = x % 7;
  x = x / d;
  return x;
}""",
        "f", ("p",), ("n",),
    ),
    "probe_halves": (
        """fn f(reg u64 p, reg u64 n, reg u64 x) {
  reg u64 h, q;
  if (x < n) {
    h = x >> 1;
    (u8)[p + h] = 0;
  }
  if (x < 100) {
    q = x / 3;
    (u16)[p + q] = 0;
  }
}""",
        "f", ("p",), ("n", "x"),
    ),
    "probe_strides": (
        """fn f(reg u64 p, reg u64 q, reg u64 n) {
  reg u64 i, j, k;
  i = 0;
  j = 0;
  while (i < n) {
    (u16)[p + j] = 0;
    (u32)[q + 4 * i] = 0;
    i = i + 1;
    j = j + 2;
  }
  k = n;
  while (k > 0) {
    k = k - 1;
    (u8)[q + k] = 0;
  }
}""",
        "f", ("p", "q"), ("n",),
    ),
    "probe_uninit": (
        """fn f(reg u64 x, reg u64 p) -> reg u64 {
  reg u64 y;
  if (x == 0) { y = 1; }
  x = x + y;
  (u8)[p + x] = 0;
  return x;
}""",
        "f", ("p",), ("x",),
    ),
    # In each probe below one local matters to the analysis only through
    # a single kind of use; the other locals are data.
    "probe_rel_while": (
        """fn f(reg u64 p, reg u64 n, reg u64 x) -> reg u64 {
  reg u64 i, m, y;
  m = n & 15;
  y = x;
  i = 0;
  while (i < m) {
    (u8)[p + i] = 0;
    y = y * 3;
    i = i + 1;
  }
  return y;
}""",
        "f", ("p",), ("n",),
    ),
    "probe_rel_divisors": (
        """fn f(reg u64 x, reg u64 y) -> reg u64 {
  reg u64 a, b, c, q, r;
  a = (x & 7) + 1;
  b = (y & 3) + 2;
  c = (x & 1) + 1;
  q = x / a;
  r = y % b;
  _, _, _, _, _, q, r = #x86_DIV_64(0, q, c);
  q = q + r;
  return q;
}""",
        "f", (), ("x", "y"),
    ),
    "probe_rel_guarded": (
        """fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 i, t, c, y;
  t = x & 7;
  c = x >> 3;
  y = x ^ 5;
  i = 2;
  i = t if c == 0;
  y = i if y == 0;
  (u8)[p + i] = 0;
  return y;
}""",
        "f", ("p",), ("x",),
    ),
    "probe_rel_compound": (
        """fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 i, t, y;
  t = x & 7;
  y = x;
  i = 4;
  i += t;
  y ^= i;
  (u8)[p + i] = 0;
  return y;
}""",
        "f", ("p",), ("x",),
    ),
    "probe_rel_index": (
        """fn f(reg u64 x) -> reg u64 {
  stack u64[4] a;
  reg u64 j, y;
  a[0] = x;
  a[1] = x ^ 1;
  a[2] = x ^ 2;
  a[3] = x ^ 3;
  j = x & 3;
  y = a[j] ^ x;
  y = y + a[3];
  return y;
}""",
        "f", (), ("x",),
    ),
    "probe_data_load": (
        """fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 y, z;
  y = (u64)[p + 8];
  z = y ^ x;
  z = z + (u8)[p + 3];
  return z;
}""",
        "f", ("p",), ("x",),
    ),
    "probe_data_divisions": (
        """fn f(reg u64 x, reg u64 n) -> reg u64 {
  reg u64 y, z;
  y = x / n;
  z = x % n;
  y = y ^ z;
  _, _, _, _, _, z, x = #x86_DIV_64(0, y, n);
  y = y + z;
  return y;
}""",
        "f", (), ("n",),
    ),
    # A counter that only counts, joined at a loop head beside the
    # offset or the pointer that an access uses.
    "probe_lockstep_data": (
        """fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 c, j, t;
  c = 0;
  j = 0;
  while (j < n) {
    t = (u8)[p + j];
    c = c + 1;
    j = j + 1;
  }
  return c;
}""",
        "f", ("p",), ("n",),
    ),
    "probe_lockstep_ratio": (
        """fn f(reg u64 p, reg u64 n) -> reg u64 {
  reg u64 c, j, t;
  c = 0;
  j = 0;
  while (j < n) {
    t = (u8)[p + j];
    c = c + 2;
    j = j + 1;
  }
  return c;
}""",
        "f", ("p",), ("n",),
    ),
    "probe_lockstep_pointer": (
        """fn f(reg u64 q) -> reg u64 {
  reg u64 c, t;
  c = 0;
  t = (u8)[q + 0];
  while (t != 0) {
    q = q + 1;
    c = c + 1;
    t = (u8)[q + 0];
  }
  return c;
}""",
        "f", ("q",), (),
    ),
}


def _case(name):
    """(program, entry, pointers, declared tracked)."""
    if name in PROBES:
        src, entry, pointers, tracked = PROBES[name]
        return expand(typecheck(parse(src))), entry, pointers, tracked
    info = PROGRAMS[name]
    return load_program(name), info.entry, info.pointers, info.tracked


def _record(p, entry, pointers, tracked) -> dict:
    try:
        rep = safety.analyze(p, entry, pointers, tracked)
    except safety.AnalysisFailure as exc:
        out = {"error": str(exc)}
    else:
        out = {
            "machine_lines": rep.machine_lines(),
            "text_lines": rep.text_lines(),
            "failures": list(rep.failures),
        }
    out["tracked"] = tracked
    out["findings"] = [str(f) for f in safety.check_safety(p, entry, pointers, tracked)]
    if "error" not in out:  # analyze's report carries the same findings
        assert [str(f) for f in rep.findings] == out["findings"]
    return out


def capture(name) -> dict:
    p, entry, pointers, declared = _case(name)
    sets = {
        "declared": list(declared),
        "preanalyze": sorted(safety.preanalyze(p, entry)),
        "untracked": [],
    }
    return {label: _record(p, entry, pointers, tr) for label, tr in sets.items()}


NAMES = sorted(PROGRAMS) + sorted(PROBES)


@pytest.mark.parametrize("name", NAMES)
def test_analysis_matches_golden_report(name):
    golden = json.loads(GOLDEN.read_text())
    assert capture(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: capture(name) for name in NAMES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
