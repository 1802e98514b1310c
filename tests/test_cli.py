import json
import re
from pathlib import Path

import pytest

from test_parser import DEEP, deep, limit, past_limit
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
], ids=["run-entry", "ct-entry", "ct-inline-entry", "safety-entry", "safety-suggest-entry",
        "safety-suggest-inline-entry", "difftest-entry", "ct-ptr", "ct-len", "ct-public",
        "ct-public-region"])
def test_unknown_entry_or_parameter_exit_2(capsys, argv, message):
    """An --entry that names no non-inline function, or a ct shape or
    public name that is not a parameter of the entry, exits 2 before
    anything runs."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
