import json
from pathlib import Path

import pytest

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
], ids=["run-u64-zz", "run-too-few-args", "run-too-many-args", "run-budget-0",
        "ct-len-abc", "ct-ptr-no-len", "ct-trials-0", "bench-repetitions-0", "bench-sizes-x",
        "difftest-runs-0"])
def test_malformed_arguments_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err
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
