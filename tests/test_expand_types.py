"""expand types its own result, and the IR it builds is lean.

The differential: for the corpus, the planted programs of the
acceptance tests and the sample programs of the test suites,
typechecking a copy of expand's result changes nothing (the printed
program, the `ty`, `arr_storage` and `arr_ty` of every node and each
function's `envtypes`).  The guard: no IR node carries a `__dict__`,
and every WordTy of a typed program is the one `word_ty` gives for its
width.
"""

import copy
import dataclasses
import importlib
from pathlib import Path

import pytest

from jamin import ir
from jamin import typecheck as typecheck_mod
from jamin.expand import ExpandError, expand
from jamin.parser import ParseError, parse
from jamin.primitives.corpus import PROGRAMS, load_source
from jamin.typecheck import TypecheckError, typecheck

TYPES = (ir.WordTy, ir.BoolTy, ir.IntTy, ir.ArrayTy)
SIDE = ("ty", "arr_storage", "arr_ty")

# Programs in which expand creates nodes of every kind it types itself:
# folded literals, inline argument bindings and result moves (results
# of another width, results dropped), globals substituted at their reads
# (as indices and shift counts too).
SAMPLES = [
    """
param int N = 3;
global u64[2] T = {1, N};
inline fn g(reg u32 a, inline int k, reg u64[4] v, reg bool b) -> reg u32, reg bool {
  reg u32 t;
  t = a + k;
  t = t + v[k];
  return t, !b;
}
fn f(reg u64 x) -> reg u64 {
  global u64 M = N << 2;
  global u64 M2 = 12;
  reg u64[4] a;
  reg u64 r;
  reg bool c;
  for i = 0 to 3 { a[i] = x + i * M + M2; }
  r, c = g(x, N, a, x < N);
  x = x + a[N] + T[1] + (u32)(N) + r;
  x = x << (N - 1);
  _, c = g(x, 1, a, c);
  if (c) { x = x >>s N; }
  return x;
}
""",
    """
inline fn h(reg u256 v) -> reg u128 {
  reg u128 lo;
  lo = #x86_VEXTRACTI128(v, 0);
  return lo;
}
fn f(reg u256 v, reg u64 p) -> reg u256 {
  stack u8[32] s;
  reg u64 w;
  reg u256 r;
  for i = 0 to 3 { (u64)s.[i * 8] = (u64)(v >> (64 * i)); }
  w = (u64)s.[8];
  [p + 0] = h(v);
  r = v +4u64 (1 + 2);
  r = r +8u32 #x86_VPSHUFD_256(r, (4u2)[1, 0, 3, 2]);
  return r;
}
""",
    """
global u64 G = 3;
global u8 S = 4;
global u64[2] T = {1, G};
fn f(reg u64 x, reg u256 v) -> reg u64 {
  global u64 L = 1;
  reg u64[4] a;
  stack u64[4] s;
  reg u64 r;
  a[G] = x;
  a[(u64)0] = x << G;
  a[L] = T[L] >> S;
  a[2] = x;
  a[2] <<= S;
  s[G] = a[L];
  r = s[G] + a[0] + a[2] + a[3];
  r >>= L;
  v = v <<4u64 S;
  r = r + (u64)v;
  return r;
}
""",
]


def _program_texts(x):
    """The program sources held in x: a string, or a tuple, list or dict of them."""
    if isinstance(x, str):
        return [x] if "fn " in x else []
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        return [t for v in x for t in _program_texts(v)]
    return []


def _suite_samples() -> list:
    """The module-level sample programs of the other test modules that build."""
    texts = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.stem != Path(__file__).stem:
            texts += _program_texts(list(vars(importlib.import_module(path.stem)).values()))
    built = []
    for t in dict.fromkeys(texts):
        try:
            built.append(typecheck(parse(t)))
        except (ParseError, TypecheckError):
            continue
    return built


def _programs() -> dict:
    from test_acceptance import PLANTED

    progs = {name: typecheck(parse(load_source(name))) for name in PROGRAMS}
    progs.update((f"planted-{i}", typecheck(parse(src))) for i, (_, src, _, _) in enumerate(PLANTED))
    progs.update((f"sample-{i}", typecheck(parse(src))) for i, src in enumerate(SAMPLES))
    samples = _suite_samples()
    assert len(samples) >= 30, "the suites' sample programs were not found"
    progs.update((f"suite-{i}", p) for i, p in enumerate(samples))
    return progs


def _differences(a, b, path: str, out: list) -> list:
    """Where syntax trees a and b differ in a field or a typed side attribute."""
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _differences(x, y, f"{path}[{i}]", out)
    elif dataclasses.is_dataclass(a) and not isinstance(a, TYPES) and type(a) is type(b):
        for f in dataclasses.fields(a):
            if f.init or f.name in SIDE:
                _differences(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}", out)
    elif type(a) is not type(b) or a != b:
        out.append(f"{path}: {a!r} != {b!r}")
    return out


def _nodes(x):
    """Every IR node reachable from x, x included."""
    todo = [x]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, TYPES):
            yield x
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x) if f.init)


def _word_types(p):
    """Every WordTy a typed program holds, with where it sits."""
    for n in _nodes(p):
        yield type(n).__name__, getattr(n, "ty", None)
        if isinstance(n, ir.FuncDecl):
            yield from ((f"{n.name} rets", t) for _, t in n.rets)
            yield from ((f"{n.name} envtypes", t) for _, t in n.envtypes.values())


PROGS = _programs()


@pytest.mark.parametrize("name", sorted(PROGS))
def test_retypechecking_expand_changes_nothing(name):
    q = expand(PROGS[name])
    r = typecheck(copy.deepcopy(q))
    assert ir.print_program(r) == ir.print_program(q)
    assert _differences(q.globals, r.globals, "globals", []) == []
    for f, g in zip(q.funcs, r.funcs):
        assert _differences(f.body, g.body, f.name, []) == []
        assert list(f.envtypes.items()) == list(g.envtypes.items()), f.name


def test_repeat_nodes_are_retypechecked():
    held = {name for name, p in PROGS.items()
            if any(type(n) is ir.SRepeat for n in _nodes(expand(p)))}
    assert {n for n in PROGRAMS if n.startswith("chacha20")} <= held
    assert any(n.startswith("suite-") for n in held)


@pytest.mark.parametrize("name", [*PROGRAMS, "sample-0", "sample-1"])
def test_nodes_have_no_dict_and_word_types_are_shared(name):
    for p in (PROGS[name], expand(PROGS[name])):
        nodes = list(_nodes(p))
        assert len(nodes) > 10
        assert [type(n).__name__ for n in nodes if hasattr(n, "__dict__")] == []
        unshared = [(where, t) for where, t in _word_types(p)
                    if isinstance(t, ir.WordTy) and t is not ir.word_ty(t.bits)]
        assert unshared == []


def test_copies_of_types_are_the_shared_values():
    for t in (ir.word_ty(64), ir.BOOL, ir.INT):
        assert copy.deepcopy(t) is t and copy.copy(t) is t
    assert ir.word_ty(32) == ir.WordTy(32) and isinstance(ir.word_ty(32), ir.WordTy)


def test_typecheck_runs_once_per_build(monkeypatch):
    runs = []
    run = typecheck_mod._Checker.run
    monkeypatch.setattr(typecheck_mod._Checker, "run", lambda self: runs.append(1) or run(self))
    p = expand(typecheck(parse(load_source("chacha20_avx2_big"))))
    assert runs == [1]
    assert p.typed and p.expanded
    with pytest.raises(ExpandError, match="requires a typechecked program"):
        expand(parse(load_source("gimli_ref")))
