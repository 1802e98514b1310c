import json
import re
from pathlib import Path

import pytest

from test_parser import DEEP, deep, limit, past_limit, roundtrip
from jamin.cli import main
from jamin.primitives.corpus import corpus_dir

CORPUS = corpus_dir()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_store2(tmp_path, capsys):
    prog = tmp_path / "store2.jz"
    prog.write_text(
        """
fn store2(reg u64 p, reg u64 v) -> reg u64 {
  [p + 0] = v;
  reg u64 t;
  t = [p + 0];
  return t;
}
"""
    )
    dump = tmp_path / "out.hex"
    code, out, _ = run_cli(
        capsys, "run", str(prog), "--entry", "store2",
        "--u64", "0x100", "--u64", "7",
        "--region", "0x100:8", "--mem-out", str(dump),
    )
    assert code == 0
    assert "result[0] = 0x0000000000000007" in out
    assert "00000100: 07 00" in dump.read_text()


def test_run_mem_in_roundtrip(tmp_path, capsys):
    prog = tmp_path / "bump.jz"
    prog.write_text(
        "fn bump(reg u64 p) { reg u64 t; t = [p + 0]; t = t + 1; [p + 0] = t; }"
    )
    src = tmp_path / "in.hex"
    src.write_text("00000040: 29 00 00 00 00 00 00 00\n")
    dump = tmp_path / "out.hex"
    code, out, _ = run_cli(
        capsys, "run", str(prog), "--entry", "bump", "--u64", "0x40",
        "--mem-in", str(src), "--mem-out", str(dump),
    )
    assert code == 0
    assert dump.read_text().startswith("00000040: 2a")


def test_run_mem_in_cell_not_hex_exit_2(tmp_path, capsys):
    prog = tmp_path / "f.jz"
    prog.write_text("fn f() { }")
    src = tmp_path / "in.hex"
    src.write_text("00001000: zz 11\n")
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--mem-in", str(src))
    assert code == 2
    assert "cannot load memory dump: dump line 1: 'zz' is not a byte" in err
    assert out == ""


def test_run_mem_in_not_utf8_exit_2(tmp_path, capsys):
    prog = tmp_path / "f.jz"
    prog.write_text("fn f() { }")
    src = tmp_path / "in.hex"
    src.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--mem-in", str(src))
    assert code == 2
    assert f"cannot read {src}: not UTF-8 text" in err
    assert "codec" not in err and "Traceback" not in err
    assert out == ""


def test_run_mem_out_not_writable_exit_2(tmp_path, capsys):
    prog = tmp_path / "f.jz"
    prog.write_text("fn f() { }")
    dump = tmp_path / "missing" / "out.hex"
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--mem-out", str(dump))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write memory dump: ") and str(dump) in err
    assert "Traceback" not in err


def test_run_safety_error_exit_1(tmp_path, capsys):
    prog = tmp_path / "oops.jz"
    prog.write_text("fn f(reg u64 p) { [p + 0] = 1; }")
    code, out, _ = run_cli(capsys, "run", str(prog), "--entry", "f", "--u64", "0")
    assert code == 1
    assert "safety error" in out


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent.jz", "--entry", "f")
    assert code == 2
    assert "cannot read" in err


def test_parse_error_exit_2(tmp_path, capsys):
    prog = tmp_path / "bad.jz"
    prog.write_text("fn f( {")
    code, _, err = run_cli(capsys, "run", str(prog), "--entry", "f")
    assert code == 2


def test_safety_poly1305_paper_output(capsys):
    code, out, _ = run_cli(
        capsys, "safety", str(CORPUS / "poly1305_ref.jz"), "--entry", "poly1305",
        "--pointer", "out,in,k", "--track", "inlen",
    )
    assert code == 0
    assert "range(out) = out + [0; 16)" in out
    assert "range(in) = in + [0; inlen)" in out
    assert "range(inlen) = empty" in out
    assert "range(k) = k + [0; 32)" in out
    # the human-readable block uses the paper's bracket style
    assert "range(k) : k + [0; 32[" in out


def test_safety_suggest_tracked(capsys):
    code, out, _ = run_cli(
        capsys, "safety", str(CORPUS / "poly1305_ref.jz"), "--entry", "poly1305",
        "--pointer", "out,in,k", "--suggest", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["tracked"] == ["inlen"]
    assert rep["schema_version"] == 1


def test_ct_secure_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "ct", str(CORPUS / "poly1305_ref.jz"), "--entry", "poly1305",
        "--public", "out,in,inlen,k",
        "--ptr", "out:16", "--ptr", "in:inlen", "--ptr", "k:32",
        "--len", "inlen:128", "--trials", "150", "--seed", "5", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "secure"
    assert rep["trials"] == 150 and rep["seed"] == 5
    assert rep["inferred_public"] == ["in", "inlen", "k", "out"]


def test_ct_insecure_exit_1(tmp_path, capsys):
    prog = tmp_path / "leaky.jz"
    prog.write_text(
        """
fn f(reg u64 s) -> reg u64 {
  reg u64 r;
  r = 0;
  if (s == 0) { r = 1; }
  return r;
}
"""
    )
    code, out, _ = run_cli(
        capsys, "ct", str(prog), "--entry", "f", "--public", "",
        "--trials", "200", "--seed", "3",
    )
    assert code == 1
    assert "insecure" in out
    assert "witness" in out


def test_difftest_cli(capsys):
    code, out, _ = run_cli(
        capsys, "difftest", str(CORPUS / "gimli_ref.jz"), str(CORPUS / "gimli_sse.jz"),
        "--entry", "gimli", "--shape", "gimli", "--runs", "20", "--seed", "2",
    )
    assert code == 0
    assert "gimli_spec vs gimli_ref: 20/20" in out


def test_isa_listing(capsys):
    code, out, _ = run_cli(capsys, "isa")
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("x86_MUL_64") and "MUL" in l for l in lines)
    assert any("set0_64" in l for l in lines)
    assert len(lines) == len(set(lines))  # one line per instruction


def test_bench_direction(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "chacha20_avx2_big", "--sizes", "4096",
        "--repetitions", "1", "--json",
    )
    assert code == 0
    big = json.loads(out)["rows"][0]["steps_per_byte"]
    code, out, _ = run_cli(
        capsys, "bench", "chacha20_scalar", "--sizes", "4096",
        "--repetitions", "1", "--json",
    )
    assert code == 0
    scalar = json.loads(out)["rows"][0]["steps_per_byte"]
    assert big < scalar


def test_bench_size_zero_row_present(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "poly1305_ref", "--sizes", "0", "--repetitions", "1",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["bytes"] == 0


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_bench_json_is_valid_json(capsys):
    """A size-0 row has no steps per byte: null in JSON (never NaN) and
    "-" in text."""
    argv = ("bench", "poly1305_ref", "--sizes", "0,64", "--repetitions", "1")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    rows = json.loads(out, parse_constant=_no_constant)["rows"]
    assert rows[0]["steps_per_byte"] is None and rows[1]["steps_per_byte"] > 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-2].split()[-1] == "-"


def test_bench_unknown_program_exit_2(capsys):
    code, _, err = run_cli(capsys, "bench", "nope")
    assert code == 2


GIMLI = str(CORPUS / "gimli_ref.jz")
POLY = str(CORPUS / "poly1305_ref.jz")


@pytest.mark.parametrize("argv", [
    ("run", GIMLI, "--entry", "gimli", "--u64", "zz"),
    ("run", GIMLI, "--entry", "gimli"),
    ("run", GIMLI, "--entry", "gimli", "--u64", "1", "--u64", "2"),
    ("run", GIMLI, "--entry", "gimli", "--u64", "1", "--budget", "0"),
    ("ct", POLY, "--entry", "poly1305", "--ptr", "out:16", "--ptr", "in:inlen",
     "--ptr", "k:32", "--len", "inlen:abc"),
    ("ct", POLY, "--entry", "poly1305", "--ptr", "out", "--ptr", "in:inlen",
     "--ptr", "k:32", "--len", "inlen:64"),
    ("ct", POLY, "--entry", "poly1305", "--trials", "0"),
    ("bench", "poly1305_ref", "--repetitions", "0"),
    ("bench", "poly1305_ref", "--sizes", "x"),
    ("difftest", GIMLI, "--entry", "gimli", "--shape", "gimli", "--runs", "0"),
    ("run", GIMLI, "--entry", "gimli", "--u64", "0", "--region", "0:-1"),
    ("run", GIMLI, "--entry", "gimli", "--u64", "0", "--region", "0xfffffffffffffff0:0x100"),
    ("run", GIMLI, "--entry", "gimli", "--u64", "0", "--region", "0:0x4000001"),
], ids=["run-u64-zz", "run-too-few-args", "run-too-many-args", "run-budget-0",
        "ct-len-abc", "ct-ptr-no-len", "ct-trials-0", "bench-repetitions-0", "bench-sizes-x",
        "difftest-runs-0", "run-region-negative", "run-region-past-2^64",
        "run-region-past-cap"])
def test_malformed_arguments_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("run", POLY, "--entry", "nope"), f"no function 'nope' in {POLY}"),
    (("ct", POLY, "--entry", "nope"), f"no function 'nope' in {POLY}"),
    (("ct", POLY, "--entry", "load_clamp"), f"no function 'load_clamp' in {POLY}"),
    (("safety", POLY, "--entry", "nope"), f"no function 'nope' in {POLY}"),
    (("safety", POLY, "--entry", "nope", "--suggest"), f"no function 'nope' in {POLY}"),
    (("safety", POLY, "--entry", "load_clamp", "--suggest"),
     f"no function 'load_clamp' in {POLY}"),
    (("difftest", GIMLI, POLY, "--entry", "gimli", "--shape", "gimli", "--runs", "1"),
     f"no function 'gimli' in {POLY}"),
    (("ct", GIMLI, "--entry", "gimli", "--ptr", "zz:4"), "'zz' is not a parameter of gimli"),
    (("ct", GIMLI, "--entry", "gimli", "--len", "zz:8"), "'zz' is not a parameter of gimli"),
    (("ct", GIMLI, "--entry", "gimli", "--public", "state,zz"),
     "'zz' is not a parameter of gimli"),
    (("ct", GIMLI, "--entry", "gimli", "--public-region", "zz"),
     "'zz' is not a parameter of gimli"),
    (("ct", GIMLI, "--entry", "gimli", "--ptr", "state:4", "--ptr", "state:8"),
     "conflicting shapes for parameter 'state': --ptr state:4 and --ptr state:8"),
    (("ct", POLY, "--entry", "poly1305", "--len", "inlen:8", "--len", "inlen:0"),
     "conflicting shapes for parameter 'inlen': --len inlen:8 and --len inlen:0"),
    (("ct", POLY, "--entry", "poly1305", "--ptr", "k:4", "--len", "k:8"),
     "conflicting shapes for parameter 'k': --ptr k:4 and --len k:8"),
], ids=["run-entry", "ct-entry", "ct-inline-entry", "safety-entry", "safety-suggest-entry",
        "safety-suggest-inline-entry", "difftest-entry", "ct-ptr", "ct-len", "ct-public",
        "ct-public-region", "ct-ptr-twice", "ct-len-twice", "ct-ptr-and-len"])
def test_unknown_entry_or_parameter_exit_2(capsys, argv, message):
    """An --entry that names no non-inline function, a ct shape or public
    name that is not a parameter of the entry, or a parameter given two
    shapes, exits 2 before anything runs."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("size", ["48", "048"])
def test_repeated_shape_is_accepted(capsys, size):
    """The same shape given twice, in the same or another spelling."""
    code, out, _ = run_cli(capsys, "ct", GIMLI, "--entry", "gimli", "--ptr", "state:48",
                           "--ptr", f"state:{size}", "--trials", "2")
    assert code == 0 and "secure" in out


@pytest.mark.parametrize("src, located", [
    ("fn f() -> reg u64 {\n  inline int n = 1 << (0 - 1);\n  reg u64 x;\n  x = n;\n  return x;\n}",
     "2:20:"),
    ("fn f() -> reg u64 {\n  reg u64[4] a;\n  a[1 / 0] = 1;\n  return a[0];\n}", "3:7:"),
    ("fn f(reg u128 a) -> reg u128 {\n  reg u128 b;\n"
     "  b = #x86_VPSHUFD_128(a, (4u2)[0, 1, 2, 5]);\n  return b;\n}", "3:27:"),
    ("fn f() {\n  inline int n = 5 +4u64 1;\n}", "2:20: f: lane operator +4u64"),
    ("fn f() {\n  reg u32[16] x;\n  for i = 0 to 16 { x[i] = 0; }\n}",
     "3:21: index 16 outside x: u32[16]"),
    ("inline fn g(reg u32[4] a, inline int k) -> reg u32 {\n  reg u32 t;\n  t = a[k];\n"
     "  return t;\n}\nfn f() -> reg u32 {\n  reg u32[4] x;\n  reg u32 r;\n"
     "  for i = 0 to 3 { x[i] = i; }\n  r = g(x, 7);\n  return r;\n}",
     "3:7: index 7 outside a: u32[4]"),
    ("fn f() -> reg u64 {\n  stack u8[8] b;\n  reg u64 t;\n  for i = 0 to 7 { (u8)b.[i] = 0; }\n"
     "  for i = 0 to 1 {\n    t = (u64)b.[i * 4];\n  }\n  return t;\n}",
     "6:9: index 4 outside b: u8[8]"),
    (b"\xff\xfe\x00bad", "not UTF-8 text"),
    ("fn f() -> reg u64 {\n  reg u64 x;\n  x = 010;\n  return x;\n}",
     "3:7: invalid integer literal '010'"),
    ("fn f() -> reg u64 {\n  reg u64 x;\n  x = 0x_;\n  return x;\n}",
     "3:7: invalid integer literal '0x_'"),
    ("fn f() -> reg u64 {\n  reg u64 x;\n  x = 0b_;\n  return x;\n}",
     "3:7: invalid integer literal '0b_'"),
], ids=["negative-compile-time-shift", "index-div-by-zero", "vector-lane-overflow",
        "lane-operator-on-ints", "unrolled-index", "inlined-index", "unrolled-byte-view",
        "not-utf-8", "leading-zero-literal", "empty-hex-literal", "empty-binary-literal"])
def test_malformed_program_exit_2(tmp_path, capsys, src, located):
    prog = tmp_path / "bad.jz"
    if isinstance(src, bytes):
        prog.write_bytes(src)
    else:
        prog.write_text(src)
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f")
    assert code == 2
    assert f"bad.jz: {located}" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("run", "--entry", "f", "--u64", "0x100", "--region", "0x100:8"),
    ("safety", "--entry", "f", "--pointer", "p"),
    ("ct", "--entry", "f", "--ptr", "p:8", "--trials", "2"),
], ids=["run", "safety", "ct"])
def test_compound_store_to_memory_exit_2(tmp_path, capsys, argv):
    """A compound assignment to memory is a typecheck error at its
    statement, whichever command loads the program."""
    prog = tmp_path / "bad.jz"
    prog.write_text("fn f(reg u64 p) {\n  reg u64 t;\n  [p] += 1;\n}\n")
    code, out, err = run_cli(capsys, argv[0], str(prog), *argv[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: {prog}: 3:3: f: compound assignment needs a register or an "
                   "array element as destination\n")


@pytest.mark.parametrize("shape", [("--ptr", "p:67108865", "--len", "n:4"),
                                   ("--ptr", "p:n", "--len", "n:67108865"),
                                   ("--ptr", "p:n", "--len", "n:99999999999"),
                                   ("--ptr", "p:99999999999", "--len", "n:4"),
                                   ("--ptr", "p:n", "--ptr", "q:n", "--len", "n:33554433")],
                         ids=["ptr", "len", "len-past-int64", "ptr-past-int64", "two-ptrs"])
def test_ct_oversized_regions_exit_2(tmp_path, capsys, shape):
    """--ptr regions that may hold more than memory.MAX_BYTES together
    (a --len maximum counted once per --ptr it sizes) exit 2 before any
    trial runs."""
    prog = tmp_path / "big.jz"
    prog.write_text("fn f(reg u64 p, reg u64 q, reg u64 n) {\n  reg u64 t;\n  t = [p];\n}\n")
    if "q:n" not in shape:
        shape += ("--ptr", "q:0")
    code, out, err = run_cli(capsys, "ct", str(prog), "--entry", "f", *shape)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: --ptr regions of up to \d+ bytes exceed 64 MiB together\n", err)


# `bench` step counts at sizes 0, 64 and 1024 (repetitions 1, seed 1),
# pinned so the counting path through the CLI cannot drift.
BENCH_STEPS_GOLDEN = {
    "poly1305_ref": [(0, 31), (64, 279), (1024, 3999)],
    "chacha20_avx2_big": [(0, 24), (64, 1289), (1024, 3594)],
}


@pytest.mark.parametrize("program", sorted(BENCH_STEPS_GOLDEN))
def test_bench_steps_golden(capsys, program):
    code, out, _ = run_cli(
        capsys, "bench", program, "--sizes", "0,64,1024", "--repetitions", "1",
        "--seed", "1", "--json",
    )
    assert code == 0
    rows = [(r["bytes"], r["steps"]) for r in json.loads(out)["rows"]]
    assert rows == BENCH_STEPS_GOLDEN[program]


@pytest.mark.parametrize("form", sorted(DEEP))
def test_deepest_program_runs_and_one_level_more_exits_2(tmp_path, capsys, form):
    """The deepest nesting the parser accepts compiles to Python that runs
    (Python allows 20 nested loop blocks and 200 nested parentheses);
    one level more is a located parse error."""
    prog = tmp_path / "deep.jz"
    prog.write_text(deep(form, limit(form)))
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--u64", "5")
    assert (code, err) == (0, "")
    text, located = past_limit(form)
    prog.write_text(text)
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--u64", "5")
    assert code == 2 and f"deep.jz: {located} " in err and "Traceback" not in err


@pytest.mark.parametrize("form, n", [("sum", 500), ("parens", 400), ("while", 25), ("if", 150)])
def test_very_deep_program_exit_2(tmp_path, capsys, form, n):
    prog = tmp_path / "deep.jz"
    prog.write_text(deep(form, n))
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--u64", "5")
    assert code == 2 and "Traceback" not in err
    assert re.search(r"deep\.jz: \d+:\d+: (expression|blocks) nested more than \d+ deep", err)


def test_very_long_else_if_chain_exit_2(tmp_path, capsys):
    prog = tmp_path / "deep.jz"
    prog.write_text(deep("else-if", 1000))
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--u64", "5")
    assert code == 2 and "Traceback" not in err
    assert re.search(r"deep\.jz: \d+:\d+: else-if arms nested more than \d+ deep", err)


def test_else_if_chain_of_99_arms_runs_and_analyses(tmp_path, capsys):
    """An else-if chain is one level deep: 99 arms parse, print and parse
    back to the same tree, run with equal results in both vector modes, and
    complete the safety analysis and the constant-time check."""
    src = deep("else-if", 98)
    roundtrip(src)
    prog = tmp_path / "chain.jz"
    prog.write_text(src)
    for x in (0, 1, 50, 98, 99, 2**64 - 1):
        outs = []
        for mode in ("OpsV", "Ops"):
            code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f",
                                     "--u64", str(x), "--vector-mode", mode)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1] == f"result[0] = 0x{x + 1 if x < 99 else x:016x}\n"
    code, out, _ = run_cli(capsys, "safety", str(prog), "--entry", "f", "--track", "x")
    assert code == 0
    code, out, _ = run_cli(capsys, "ct", str(prog), "--entry", "f", "--public", "x",
                           "--trials", "20")
    assert code == 0 and "secure" in out


@pytest.mark.parametrize("param, shown", [
    ("reg u64[2] x, reg u64 n", "'x' of f is reg u64[2]"),
    ("stack u64[2] s", "'s' of f is stack u64[2]"),
    ("reg bool b", "'b' of f is reg bool"),
], ids=["reg-array", "stack-array", "bool"])
def test_run_non_word_parameter_exit_2(tmp_path, capsys, param, shown):
    """run passes --u64 words only: an entry parameter of any other type
    is an input error before anything runs, not a safety error."""
    prog = tmp_path / "params.jz"
    prog.write_text(f"fn f({param}) -> reg u64 {{\n  reg u64 r;\n  r = 1;\n  return r;\n}}\n")
    count = param.count(",") + 1
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f",
                             *[a for i in range(count) for a in ("--u64", str(i + 1))])
    assert (code, out) == (2, "")
    assert err == f"error: parameter {shown}; run takes word parameters only (--u64)\n"


@pytest.mark.parametrize("argv", [("run", "--u64", "5"), ("safety",), ("ct", "--trials", "2")],
                         ids=["run", "safety", "ct"])
@pytest.mark.parametrize("src, located", [
    ("global u64 g = 4;\nfn f(reg u64 a) -> reg u64 {\n  reg u64[4] x;\n"
     "  x[0] = a;\n  if (a == 3) { x[g] = a; }\n  a = x[0];\n  return a;\n}\n",
     "5:17: index 4 outside x: u64[4]"),
    ("fn f(reg u64 a) -> reg u64 {\n  reg u64 b;\n  b = a;\n"
     "  if (a == 3) { b = a << 70; }\n  return b;\n}\n",
     "4:23: shift count 70 outside [0, 64]"),
], ids=["global-index", "literal-count"])
def test_out_of_range_settled_value_exit_2(tmp_path, capsys, src, located, argv):
    """Expand settles every value known before the run, so an index or a
    shift count that one of them puts out of range is a located input
    error under every command, even where the run never reaches it."""
    prog = tmp_path / "settled.jz"
    prog.write_text(src)
    code, out, err = run_cli(capsys, argv[0], str(prog), "--entry", "f", *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {prog}: {located}\n"


@pytest.mark.parametrize("argv", [("run", "--u64", "5"), ("safety",), ("ct", "--trials", "2")],
                         ids=["run", "safety", "ct"])
@pytest.mark.parametrize("src, located", [
    ("fn f(reg u64 a) -> reg u64 {\n  inline int n = 1;\n  n = 2;\n  return a;\n}\n",
     "3:3: f: inline variables are fixed by expansion"),
    ("fn f(reg u64 a) -> reg u64 {\n  for i = 0 to 3 {\n    i = 2;\n    a = a + 1;\n  }\n"
     "  return a;\n}\n", "3:5: f: inline variables are fixed by expansion"),
    ("inline fn g(inline int k) -> reg u64 {\n  reg u64 x;\n  k = 3;\n  x = 1;\n  return x;\n}\n"
     "fn f(reg u64 a) -> reg u64 {\n  a = g(1);\n  return a;\n}\n",
     "3:3: g: inline variables are fixed by expansion"),
], ids=["inline-variable", "for-counter", "inline-parameter"])
def test_assignment_to_compile_time_name_exit_2(tmp_path, capsys, src, located, argv):
    prog = tmp_path / "fixed.jz"
    prog.write_text(src)
    code, out, err = run_cli(capsys, argv[0], str(prog), "--entry", "f", *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {prog}: {located}\n"


@pytest.mark.parametrize("stmt, located", [
    ("(x) = 1;", "3:3: expected assignment destination, found '('"),
    ("(u64)x = 1;", "3:3: expected assignment destination, found '('"),
    ("1 = x;", "3:3: expected assignment destination, found '1'"),
    ("true = x;", "3:3: expected assignment destination, found 'true'"),
    ("#x86_MOV_64(x) = 1;", "3:3: expected assignment destination, found '#'"),
    ("x, (x) = 1;", "3:6: expected assignment destination, found '('"),
    ("f(x) = 1;", "3:8: expected ';', found '='"),
], ids=["parenthesized", "cast", "literal", "bool", "intrinsic", "second", "call"])
def test_invalid_destination_exit_2(tmp_path, capsys, stmt, located):
    prog = tmp_path / "dest.jz"
    prog.write_text(f"fn f() {{\n  reg u64 x;\n  {stmt}\n}}\n")
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f")
    assert (code, out) == (2, "")
    assert err == f"error: {prog}: {located}\n"


@pytest.mark.parametrize("stmt, col", [("zz[0] = a;", 3), ("a = zz[0];", 7),
                                       ("a = (u32)zz.[a];", 7)],
                         ids=["write", "read", "byte-view"])
def test_unknown_array_is_reported_once_exit_2(tmp_path, capsys, stmt, col):
    prog = tmp_path / "zz.jz"
    prog.write_text(f"fn f(reg u64 a) -> reg u64 {{\n  {stmt}\n  return a;\n}}\n")
    code, out, err = run_cli(capsys, "run", str(prog), "--entry", "f", "--u64", "5")
    assert (code, out) == (2, "")
    assert err == f"error: {prog}: 2:{col}: f: unknown variable 'zz'\n"


def test_safety_reads_a_global_in_an_address_as_its_value(tmp_path, capsys):
    prog = tmp_path / "k.jz"
    prog.write_text("global u64 K = 8;\nfn f(reg u64 p) -> reg u64 {\n  reg u64 x;\n"
                    "  x = [p + K];\n  return x;\n}\n")
    code, out, _ = run_cli(capsys, "safety", str(prog), "--entry", "f", "--pointer", "p")
    assert code == 0
    assert "range(p) = p + [8; 16)" in out.splitlines()


def test_safety_on_a_call_names_the_callee_exit_2(tmp_path, capsys):
    prog = tmp_path / "call.jz"
    prog.write_text("fn g(reg u64 a) -> reg u64 {\n  a = a + 1;\n  return a;\n}\n"
                    "fn f(reg u64 a) -> reg u64 {\n  reg u64 b;\n  b = g(a);\n  return b;\n}\n")
    code, out, err = run_cli(capsys, "safety", str(prog), "--entry", "f")
    assert (code, out) == (2, "")
    assert err == "error: 7:3: call to non-inline function 'g' is not analyzable\n"


@pytest.mark.parametrize("program", ["gimli_ref", "gimli_sse"])
def test_bench_gimli_runs_its_48_byte_state_only(capsys, program):
    """The permutation processes 48 bytes whatever the size asked for, so
    48 is the default and the only size taken."""
    code, out, _ = run_cli(capsys, "bench", program, "--repetitions", "1", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["bytes"] for r in rows] == [48]
    assert rows[0]["steps_per_byte"] == rows[0]["steps"] / 48
    code, out, err = run_cli(capsys, "bench", program, "--sizes", "0,48,4096")
    assert (code, out) == (2, "")
    assert err == f"error: {program} permutes a 48-byte state; --sizes takes 48 only\n"
