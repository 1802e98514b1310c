"""Differential check of the executor against recorded reference runs.

tests/data/exec_golden.json holds, for every corpus program, what the
original closure interpreter produced on fixed inputs: the results, the
sha256 of the final memory dump, the sha256 of repr(trace) and the step
count.  Each program runs in OpsV; the vectorized ones also in Ops.
The inputs are the 11 boundary lengths plus 4 seeded random cases of
the program's difftest shape, and 8 traced trials drawn by
leakage.build_inputs (two runs each).

Regenerate (only when a semantic change is intended) with
    PYTHONPATH=src python tests/test_exec_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from jamin import interp, isa, leakage, memory
from jamin.primitives.corpus import PROGRAMS, load_program
from jamin.primitives.difftest import BOUNDARY_LENGTHS, SHAPES

GOLDEN = Path(__file__).resolve().parent / "data" / "exec_golden.json"
VECTORIZED = ("poly1305_avx2", "chacha20_avx2_small", "chacha20_avx2_big", "gimli_sse")
RANDOM_CASES = 4
TRIALS = 8
CASE_SEED = 1
TRIAL_SEED = 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(p, entry, args, m, mode) -> dict:
    trace: list = []
    results, final, steps = interp.run(p, entry, args, m, trace=trace, vector_mode=mode)
    plain = interp.run(p, entry, args, m, vector_mode=mode)
    assert plain.results == results and plain.steps == steps
    assert memory.dump(plain.memory) == memory.dump(final)
    return {
        "results": repr(results),
        "memory": _sha(memory.dump(final)),
        "trace": _sha(repr(trace)),
        "steps": steps,
    }


def _inputs(name):
    """(label, memory, args) for every run of one program."""
    info = PROGRAMS[name]
    p = load_program(name)
    shape = SHAPES[info.kind]
    rng = random.Random(CASE_SEED)
    for i in range(len(BOUNDARY_LENGTHS) + RANDOM_CASES):
        m, args = shape.build_memory(shape.sample(rng, i))
        yield f"case{i}", m, args
    rng = random.Random(TRIAL_SEED)
    for t in range(TRIALS):
        public, regions, pub, sec1, sec2 = leakage.build_inputs(
            p, info.entry, info.shape, info.public, rng
        )
        for k, sec in enumerate((sec1, sec2)):
            args, m = leakage._materialize(p, info.entry, public, regions, pub, sec)
            yield f"trial{t}.{k}", m, args


def _runs():
    for name, info in PROGRAMS.items():
        modes = (isa.OPSV, isa.OPS) if name in VECTORIZED else (isa.OPSV,)
        for mode in modes:
            yield name, mode, info.entry


def capture() -> dict:
    out = {}
    for name, mode, entry in _runs():
        p = load_program(name)
        out[f"{name}/{mode}"] = {
            label: _record(p, entry, args, m, mode) for label, m, args in _inputs(name)
        }
    return out


def test_executor_matches_golden_runs():
    golden = json.loads(GOLDEN.read_text())
    assert golden == capture()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
