"""Recorded semantics of every scalar instruction descriptor.

tests/data/isa_scalar_golden.json holds, per scalar descriptor, the
sha256 of what its `sem` returns on a fixed grid and on 500 seeded
random operand tuples.  The grid takes, for each word operand, 0, 1,
the top bit, the mask, the mask minus 1 and the shift counts 0, 1, w-1
and w (w the operation width), for each flag operand False and True,
and runs every combination.  Outputs are serialised by type, so a flag
True and a word 1 differ, and UNDEF and faults have their own tokens.

Regenerate (only when a semantic change is intended) with
    PYTHONPATH=src python tests/test_isa_scalar_golden.py
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from jamin import isa

GOLDEN = Path(__file__).resolve().parent / "data" / "isa_scalar_golden.json"
RANDOM_TUPLES = 500


def _grid_values(width, op_width):
    if width == "flag":
        return [False, True]
    mask = (1 << width) - 1
    vals = [0, 1, 1 << (width - 1), mask, mask - 1, 0, 1, op_width - 1, op_width]
    return list(dict.fromkeys(v & mask for v in vals))


def _random_value(rng, width):
    return rng.random() < 0.5 if width == "flag" else rng.getrandbits(width)


def _token(o) -> str:
    if o is isa.UNDEF:
        return "U"
    if type(o) is bool:
        return "T" if o else "F"
    if type(o) is int:
        return format(o, "x")
    return f"?{type(o).__name__}:{o!r}"


def _outputs(d, args) -> str:
    try:
        outs = d.sem(list(args))
    except isa.IsaFault as exc:
        return f"fault:{exc}"
    return ",".join(map(_token, outs))


def scalar_descriptors():
    return {n: d for n, d in sorted(isa.registry().items()) if not d.is_vector}


def _op_width(d) -> int:
    """The operation width: that of the descriptor's explicit operands."""
    return next(loc.width for loc in d.sources + d.destinations if isinstance(loc, isa.E))


def record(d) -> dict:
    grid = list(itertools.product(*(_grid_values(w, _op_width(d)) for w in d.src_widths)))
    rng = random.Random(d.name)
    rand = [tuple(_random_value(rng, w) for w in d.src_widths) for _ in range(RANDOM_TUPLES)]
    h = hashlib.sha256()
    for args in grid + rand:
        h.update(f"{args!r}->{_outputs(d, args)}\n".encode())
    return {"cases": len(grid) + len(rand), "sha256": h.hexdigest()}


def capture() -> dict:
    return {name: record(d) for name, d in scalar_descriptors().items()}


def test_scalar_semantics_match_golden():
    golden = json.loads(GOLDEN.read_text())
    now = capture()
    assert sorted(now) == sorted(golden)
    changed = [name for name in golden if now[name] != golden[name]]
    assert not changed, f"scalar semantics changed for {changed}"


def test_token_tells_flags_from_words():
    assert _token(True) != _token(1)
    assert _token(False) != _token(0)
    assert _token(isa.UNDEF) == "U"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
