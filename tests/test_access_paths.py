"""Every memory and stack-array access kind, run on inputs that hit and
that miss, observes what it observed when the generated code called a
run-time helper for each access.

Generated code tests the common case of an access itself (a written
span inside one region, or a stack-array index in bounds) and calls the
helper of interp only for everything else.  The programs below make one
access kind each: memory loads and stores of 1 to 32 bytes, stores of a
call result too wide for the access (the value mask), type punning
across widths, and stack-array loads and stores at constant and
computed indices, element-sized and through wider or narrower views,
on u8, u32 and u64 arrays.  Their inputs reach every miss: an address
outside every region, an access straddling a gap between regions, one
in an earlier region sharing the index line with a later one, an
unwritten byte, a partly written span and an index past the end.  The
digest was recorded with the helper called for every access, and takes
each trace in its tagged view (harness.tagged).
"""

import ast
import hashlib

from gensrc import function_sources
from harness import tagged
from jamin import interp, memory
from jamin.expand import expand
from jamin.memory import Memory
from jamin.parser import parse
from jamin.typecheck import typecheck

TOP = 1 << 64

WIDE = """
fn g(reg u64 v) -> reg u64 {
  reg u64 r;
  r = v ^ 0xa5c3e1f00f1e3c5a;
  return r;
}
"""


def _mem_load(w):
    return f"""
fn f(reg u64 p, reg u64 x) -> reg u{w} {{
  reg u{w} v;
  v = (u{w})[p + x];
  return v;
}}"""


def _mem_store(w):
    """A value read where every layout holds one, stored at p + x and
    read back."""
    return f"""
fn f(reg u64 p, reg u64 x) -> reg u{w} {{
  reg u{w} v;
  v = (u{w})[p + 0x80];
  (u{w})[p + x] = v;
  v = (u{w})[p + x];
  return v;
}}"""


MEM_PUN = """
fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 r;
  reg u8 b;
  [p + x] = 0x1122334455667788 ^ x;
  r = (u8)[p + x + 3];
  r = r + (u16)[p + x + 5];
  r = r ^ (u32)[p + x + 2];
  b = r;
  (u8)[p + x + 9] = b;
  (u16)[p + x + 10] = r;
  (u32)[p + x + 12] = r;
  r = r + [p + x + 9];
  return r;
}"""

MEM_CALL = WIDE + """
fn f(reg u64 p, reg u64 x) -> reg u64 {
  reg u64 r;
  (u8)[p + x] = g(x);
  (u16)[p + x + 1] = g(x);
  (u32)[p + x + 3] = g(x);
  [p + x + 8] = g(x);
  r = (u64)[p + x];
  r = r ^ [p + x + 8];
  return r;
}"""


STACK_BODIES = {
    # computed index i: element-sized, narrower and wider views
    "ld": "w = s[i];",
    "ld-u8": "w = (u8)s[i];",
    "ld-u16-bytes": "w = (u16)s.[i];",
    "ld-u32": "w = (u32)s[i];",
    "ld-u64": "w = (u64)s[i];",
    "ld-u64-bytes": "w = (u64)s.[i];",
    "st": "s[i] = g(j); w = s[i];",
    "st-u8": "(u8)s[i] = g(j); w = (u8)s[i];",
    "st-u16-bytes": "(u16)s.[i] = g(j); w = (u16)s.[i];",
    "st-u32": "(u32)s[i] = j; w = (u32)s[i];",
    "st-u64-bytes": "(u64)s.[i] = g(j); w = (u64)s.[i];",
    "compound": "s[i] += 0xa7; w = s[i];",
    "u128": "q = (u128)s.[i]; (u128)s[0] = q; q = (u128)s[0]; (u128)s.[j] = q; w = q;",
    # constant indices; the last element is written on some paths only
    "ld-const": "w = s[0]; w ^= (u8)s.[3]; w += (u32)s[0]; w ^= (u64)s.[8]; w += s[LAST];",
    "st-const": "(u8)s.[5] = g(j); (u16)s[1] = g(j); (u32)s.[9] = j; (u64)s.[0] = g(i);"
                " w = (u64)s.[0] ^ (u64)s.[8]; s[LAST] ^= 3;",
}


def _stack(e, n, body):
    """A 16-byte array of u<e>: every element but the last written by a
    computed store, the last by a constant one when j < 4; then `body`
    (q is a u128 register)."""
    body = body.replace("LAST", str(n - 1))
    return WIDE + f"""
fn f(reg u64 i, reg u64 j) -> reg u64, stack u{e}[{n}] {{
  stack u{e}[{n}] s;
  reg u64 w, k;
  reg u128 q;
  k = 0;
  while (k < {n - 1}) {{ s[k] = k + 0x3b; k += 1; }}
  if (j < 4) {{ s[{n - 1}] = g(j); }}
  {body}
  return w, s;
}}"""


PROGRAMS = {
    **{f"mem-load-{w}": _mem_load(w) for w in (8, 16, 32, 64, 128, 256)},
    **{f"mem-store-{w}": _mem_store(w) for w in (8, 16, 32, 64, 128, 256)},
    "mem-pun": MEM_PUN,
    "mem-call": MEM_CALL,
    **{f"stack-u{e}-{kind}": _stack(e, 128 // e, body)
       for e in (8, 32, 64) for kind, body in STACK_BODIES.items()},
}


def _layouts():
    """(name, memory, p, offsets x): regions R1 = [0x1000, 0x1010) and
    R2 = [0x1012, 0x1030) share the line of 0x1000, R3 = [0x1080,
    0x10c0) has lines of its own; built whole (no init map) or with
    unwritten bytes (0x1005 and [0x1020, 0x1030)); and regions at the
    top of memory and at 0, where a wide access wraps."""
    spans = [(0x1000, bytes(range(1, 17))), (0x1012, bytes(range(40, 70))),
             (0x1080, bytes(range(100, 164)))]
    holes = Memory()
    for base, data in spans:
        holes = memory.add_region(holes, base, len(data))
    holes = memory.store_bytes(holes, 0x1000, spans[0][1][:5])
    holes = memory.store_bytes(holes, 0x1006, spans[0][1][6:])
    holes = memory.store_bytes(holes, 0x1012, spans[1][1][:14])
    holes = memory.store_bytes(holes, 0x1080, spans[2][1])
    xs = (0, 4, 0xC, 0xE, 0x10, 0x12, 0x1A, 0x28, 0x2C, 0x80, 0xA0, 0xB8, 0x200)
    top = Memory.from_spans([(TOP - 16, bytes(range(16))), (0, bytes(range(16, 32))),
                             (TOP - 0x80 + 0x10, bytes(range(64)))])
    yield "whole", Memory.from_spans(spans), 0x1000, xs
    yield "holes", holes, 0x1000, xs
    yield "top", top, TOP - 0x80, (0x70, 0x78, 0x7C, 0x7F)


STACK_I = (0, 1, 2, 3, 7, 8, 12, 13, 14, 15, 16, TOP - 1)
STACK_J = (0, 3, 4, 9)


def _observe(p, args, m, mode) -> tuple:
    trace: list = []
    try:
        r = interp.run(p, "f", args, m, trace=trace, vector_mode=mode)
        got = ("ok", repr(r.results), memory.dump(r.memory), r.steps)
    except interp.SafetyError as exc:
        got = ("fault", type(exc).__name__, str(exc), exc.loc)
    return got, tagged(trace)


def access_runs() -> list:
    """What every run of PROGRAMS observes in both vector modes: results,
    final memory and steps, or the fault's class, message and location;
    and the trace, up to the fault."""
    seen = []
    for name, src in PROGRAMS.items():
        p = expand(typecheck(parse(src)))
        if name.startswith("mem"):
            cases = [(lay, m, [base, x]) for lay, m, base, xs in _layouts() for x in xs]
        else:
            cases = [("", Memory(), [i, j]) for i in STACK_I for j in STACK_J]
        for lay, m, args in cases:
            for mode in ("OpsV", "Ops"):
                seen.append((name, lay, args, mode, *_observe(p, args, m, mode)))
    return seen


ACCESS_RUNS = "2db46f51c3251778"


def test_access_runs_keep_their_digest():
    digest = hashlib.sha256(repr(access_runs()).encode()).hexdigest()
    assert digest[:16] == ACCESS_RUNS


HELPERS = {"_ld": 4, "_st": 5, "_sld": 4, "_sst": 5}  # name: nbytes argument


def test_helpers_are_called_only_on_a_miss():
    """In the code generated for PROGRAMS, a helper call for an access
    of at most 8 bytes is always the `else` of the hit test, and one of
    16 or 32 bytes is the access itself."""
    kinds = set()
    for src in PROGRAMS.values():
        for code in function_sources(expand(typecheck(parse(src)))).values():
            tree = ast.parse(code)
            misses = {id(n.orelse if isinstance(n, ast.IfExp) else n.orelse[0].value)
                      for n in ast.walk(tree) if isinstance(n, (ast.IfExp, ast.If)) and n.orelse
                      and (isinstance(n, ast.IfExp) or isinstance(n.orelse[0], ast.Expr))}
            for n in ast.walk(tree):
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) in HELPERS:
                    nbytes = n.args[HELPERS[n.func.id]].value
                    assert (id(n) in misses) == (nbytes <= 8), ast.unparse(n)
                    kinds.add((n.func.id, nbytes <= 8))
    assert kinds == {(h, small) for h in HELPERS for small in (True, False)}
