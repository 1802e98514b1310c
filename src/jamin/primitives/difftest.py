"""Differential equivalence testing across implementation hops.

A hop chain is an ordered list of executables, from the pure functional
specification down to the vectorized DSL implementation.  For each
sampled input every entry runs on an identical initial memory and must
produce a byte-identical final memory (spec entries predict theirs by
patching the expected output into the initial memory).  Boundary
message lengths are always exercised before random ones, and the
ChaCha20 shapes include the aliased (in-place) case its contracts
allow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .. import interp, memory
from ..isa import OPSV
from ..leakage import BOUNDARY_LENGTHS
from ..memory import Memory
from .chacha20 import chacha20_xor
from .gimli import gimli_bytes
from .poly1305 import poly1305_mac

MAX_RANDOM_LENGTH = 4096


@dataclass(frozen=True)
class SpecEntry:
    name: str
    fn: object  # case -> bytes (the produced output)


@dataclass(frozen=True)
class DslEntry:
    name: str
    program: object
    entry: str
    vector_mode: str = OPSV


@dataclass
class PairReport:
    left: str
    right: str
    runs: int = 0
    failures: int = 0
    first_counterexample: dict | None = None


@dataclass
class DiffReport:
    shape: str
    runs: int
    seed: int
    pairs: list

    @property
    def ok(self) -> bool:
        return all(p.failures == 0 for p in self.pairs)


class Shape:
    """Input sampler plus memory layout for one primitive family.

    Each family defines `sample(rng, index)`, a case; `build_memory(case)`,
    the case's initial memory, built in one Memory.from_spans call of its
    input spans and, unless the output is an input updated in place, its
    output span unwritten, and the entry's arguments; `output(case)`, the
    address and length of the case's output; and `spec_output(case)`,
    the output the specification computes.  perfbench's span tracer
    wraps build_memory, expected_memory and spec_output in each family's
    own class namespace, so each family holds all three itself."""

    def unwritten_output(self, case) -> tuple:
        """The case's output as an unwritten span of Memory.from_spans."""
        base, n = self.output(case)
        return base, bytes(n), bytes(n)

    def expected_memory(self, case, out_bytes: bytes) -> Memory:
        m, _ = self.build_memory(case)
        m.store_bytes_inplace(self.output(case)[0], out_bytes)
        return m

    def read_output(self, case, mem: Memory) -> bytes:
        return memory.load_bytes(mem, *self.output(case))

    def _length(self, rng, index):
        if index < len(BOUNDARY_LENGTHS):
            return BOUNDARY_LENGTHS[index]
        return rng.randrange(MAX_RANDOM_LENGTH + 1)


class Poly1305Shape(Shape):
    name = "poly1305"
    expected_memory = Shape.expected_memory

    def sample(self, rng, index):
        L = self._length(rng, index)
        return {
            "msg": rng.randbytes(L),
            "key": rng.randbytes(32),
            "out": 0x1000,
            "in": 0x10000,
            "k": 0x3000,
        }

    def output(self, case):
        return case["out"], 16

    def build_memory(self, case):
        m = Memory.from_spans(((case["in"], case["msg"]), (case["k"], case["key"]),
                               self.unwritten_output(case)))
        return m, [case["out"], case["in"], len(case["msg"]), case["k"]]

    def spec_output(self, case):
        return poly1305_mac(case["key"], case["msg"])


class ChaCha20Shape(Shape):
    name = "chacha20"
    expected_memory = Shape.expected_memory

    def sample(self, rng, index):
        L = self._length(rng, index)
        aliased = rng.random() < 0.25
        plain_at = 0x10000
        return {
            "msg": rng.randbytes(L),
            "key": rng.randbytes(32),
            "nonce": rng.randbytes(12),
            "counter": rng.choice((0, 1, rng.randrange(1 << 32))),
            "plain": plain_at,
            "output": plain_at if aliased else 0x40000,
            "k": 0x1000,
            "n": 0x2000,
        }

    def output(self, case):
        return case["output"], len(case["msg"])

    def build_memory(self, case):
        # when aliased, the output lies in plain: its unwritten span,
        # the later, leaves the message's bytes written
        m = Memory.from_spans(((case["k"], case["key"]), (case["n"], case["nonce"]),
                               (case["plain"], case["msg"]), self.unwritten_output(case)))
        return m, [case["output"], case["plain"], len(case["msg"]), case["k"], case["n"],
                   case["counter"]]

    def spec_output(self, case):
        return chacha20_xor(case["key"], case["nonce"], case["counter"], case["msg"])


class GimliShape(Shape):
    name = "gimli"
    expected_memory = Shape.expected_memory

    def sample(self, rng, index):
        return {"state": rng.randbytes(48), "base": 0x1000}

    def output(self, case):
        return case["base"], 48  # the state, permuted in place

    def build_memory(self, case):
        return Memory.from_spans(((case["base"], case["state"]),)), [case["base"]]

    def spec_output(self, case):
        return gimli_bytes(case["state"])


SHAPES = {
    "poly1305": Poly1305Shape(),
    "chacha20": ChaCha20Shape(),
    "gimli": GimliShape(),
}


def _execute(entry, shape: Shape, case):
    """Run one chain entry; returns (output bytes, final-memory dump)."""
    if isinstance(entry, SpecEntry):
        out = entry.fn(case)
        final = shape.expected_memory(case, out)
        return out, memory.dump(final)
    m, args = shape.build_memory(case)
    final = interp.run(entry.program, entry.entry, args, m,
                       vector_mode=entry.vector_mode).memory
    return shape.read_output(case, final), memory.dump(final)


def _describe_case(case) -> dict:
    out = {}
    for k, v in case.items():
        out[k] = v.hex() if isinstance(v, bytes) else v
    return out


def hop_difftest(
    chain, runs: int, seed: int, input_shape: str, stop_on_failure: bool = False
) -> DiffReport:
    """Check that adjacent chain entries agree on outputs and final
    memories for boundary and random inputs; a chain of fewer than two
    entries, which compares nothing, is a ValueError."""
    if len(chain) < 2:
        raise ValueError(f"a hop chain needs two or more entries, got {len(chain)}")
    shape = SHAPES[input_shape]
    rng = random.Random(seed)
    pairs = [
        PairReport(chain[i].name, chain[i + 1].name) for i in range(len(chain) - 1)
    ]
    executed = 0
    for index in range(runs):
        case = shape.sample(rng, index)
        results = []
        failed_entry = None
        for e in chain:
            try:
                results.append(_execute(e, shape, case))
            except Exception as exc:  # a crash counts as a mismatch
                results.append(("<error>", f"{type(exc).__name__}: {exc}"))
                failed_entry = e.name
        executed += 1
        mismatch = False
        for i, pr in enumerate(pairs):
            pr.runs += 1
            if results[i] != results[i + 1]:
                mismatch = True
                pr.failures += 1
                if pr.first_counterexample is None:
                    left = results[i][0]
                    right = results[i + 1][0]
                    pr.first_counterexample = {
                        "run": index,
                        "seed": seed,
                        "case": _describe_case(case),
                        "left_output": left.hex() if isinstance(left, bytes) else left,
                        "right_output": right.hex()
                        if isinstance(right, bytes)
                        else right,
                        "crashed": failed_entry,
                    }
        if mismatch and stop_on_failure:
            break
    return DiffReport(shape.name, executed, seed, pairs)

