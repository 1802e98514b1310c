"""List interfaces of the vector instructions, and a descriptor check.

The system runs each vector descriptor through its positional forms,
`vsem` (OpsV) and `ops` (Ops).  The tests compare those with the list
views built here from the lane semantics `lsem`, the packed semantics
`sem` and the lane conversions of `isa._lane_codec`: `exec_ops` returns
the result lanes, `exec_vector` the result Words of either mode, and
`validate_descriptor` checks a descriptor's shape by computation.
"""

from __future__ import annotations

from jamin.isa import (
    OPS,
    OPSV,
    UNDEF,
    Descriptor,
    E,
    IsaError,
    IsaFault,
    _coerce_sources,
    _lane_codec,
    _wrap_outputs,
    exec_intrinsic,
)


def join_int(vals, m: int) -> int:
    """The int whose m-bit lanes, lowest first, are `vals`."""
    return _lane_codec(len(vals), m)[1](vals)


def exec_ops(d: Descriptor, args) -> list:
    """Ops-mode execution: vector operands as sequences of sub-word ints,
    each lane result returned as a list."""
    if not d.is_vector:
        raise IsaError(f"{d.name} is not a vector instruction")
    split = [_lane_codec(*shape)[0](a) if shape else a
             for a, shape in zip(_coerce_sources(d, args), d.src_lanes)]
    outs = [d.lsem(*split)]
    return [list(o) if shape else o for o, shape in zip(outs, d.dst_lanes)]


def exec_vector(d: Descriptor, mode: str, args) -> list:
    """Execute a vector intrinsic in the chosen representation.

    Both modes return packed Words so callers can store results
    uniformly; in Ops mode the lane results are joined through the
    word/array bijection.
    """
    if mode == OPSV:
        return exec_intrinsic(d, args)
    if mode != OPS:
        raise IsaError(f"unknown vector mode {mode!r}")
    outs = [join_int(o, shape[1]) if shape else o
            for o, shape in zip(exec_ops(d, args), d.dst_lanes)]
    return _wrap_outputs(d, outs)


def validate_descriptor(d: Descriptor) -> list[str]:
    """Well-formedness checks, established by computation."""
    problems = []
    if len(d.sources) != len(d.src_widths):
        problems.append("source width list out of sync")
    seen = set()
    for loc in d.destinations:
        if loc in seen:
            problems.append(f"duplicate destination {loc!r}")
        seen.add(loc)
    e_idx = sorted(loc.index for loc in d.sources if isinstance(loc, E))
    if e_idx != list(range(len(e_idx))):
        problems.append("explicit-argument indices are not dense from 0")
    for w in d.src_widths + d.dst_widths:
        if w != "flag" and w not in (8, 16, 32, 64, 128, 256):
            problems.append(f"illegal operand width {w}")
    if d.is_vector and (d.vsem is None or d.lsem is None):
        problems.append("vector descriptor without lane semantics")
    # probe the semantics with benign inputs
    probe = [False if w == "flag" else 1 for w in d.src_widths]
    try:
        outs = d.sem(probe)
    except IsaFault:
        outs = None
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        problems.append(f"semantics raised {exc!r} on probe input")
        outs = None
    if outs is not None:
        if len(outs) != len(d.destinations):
            problems.append(
                f"semantics returns {len(outs)} values for {len(d.destinations)} destinations"
            )
        else:
            for o, w in zip(outs, d.dst_widths):
                if w == "flag":
                    if not (isinstance(o, bool) or o is UNDEF):
                        problems.append(f"flag output is {o!r}")
                elif not isinstance(o, int) or o < 0 or o >> w:
                    problems.append(f"word output {o!r} does not fit {w} bits")
    if d.is_vector and not problems:
        vec = exec_vector(d, OPS, probe)
        vecv = exec_vector(d, OPSV, probe)
        if vec != vecv:
            problems.append("Ops and OpsV disagree on probe input")
    return problems
