"""Spans recorded from outside the program, around the public functions
of each jamin module.

`Tracer.install` replaces a module or class attribute with a wrapper
that records one span per call (name, tag, label, phase, parent span
name, self time and an optional count) and restores the original on `uninstall`.  Wrappers
carry a marker attribute, so untraced runs can prove that every target
is the original function (`check_originals`).

A wrapper only sees calls that look the attribute up at call time.  A
caller that bound the function directly (`from m import f`) bypasses
it; the workloads therefore compare span counts with the counts their
inputs imply (`SpanCheck`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

MARKER = "__perfbench_span__"


class BenchmarkError(Exception):
    """The benchmark itself is inconsistent (not a wrong program answer)."""


@dataclass
class Span:
    name: str
    tag: object
    label: str | None
    phase: str
    parent: str | None
    self_time: float
    extra: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.label: str | None = None  # the program or family being worked on
        self._stack: list[list] = []  # [name, child seconds]
        self._undo: list = []

    def install(self, owner, attr: str, name: str, tag=None, extra=None):
        """Wrap owner.attr.  `tag(args, kwargs)` labels a call before it
        runs; `extra(result)` derives a count after the clock stops."""
        orig = owner.__dict__[attr]
        if hasattr(orig, MARKER):
            raise BenchmarkError(f"{name} is already wrapped")
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            key = tag(args, kwargs) if tag is not None else None
            label = self.label
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
            spans.append(
                Span(name, key, label, self.phase, parent, dt - frame[1],
                     extra(result) if extra is not None else None)
            )
            return result

        wrapper.__wrapped__ = orig
        setattr(wrapper, MARKER, name)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- aggregation

    def select(self, name, phase=None, parent=None, where=None):
        return [
            s
            for s in self.spans
            if s.name == name
            and (phase is None or s.phase == phase)
            and (parent is None or s.parent == parent)
            and (where is None or where(s))
        ]

    def self_ms(self, name, **kw) -> float:
        return 1e3 * sum(s.self_time for s in self.select(name, **kw))

    def calls(self, name, **kw) -> int:
        return len(self.select(name, **kw))

    def by_tag(self, name, key, **kw) -> dict:
        """Sum of (self seconds, extra, calls) per key(span)."""
        out = defaultdict(lambda: [0.0, 0, 0])
        for s in self.select(name, **kw):
            acc = out[key(s)]
            acc[0] += s.self_time
            acc[1] += s.extra or 0
            acc[2] += 1
        return out


def check_originals(targets) -> None:
    """Raise unless every (owner, attr) holds an unwrapped function."""
    for owner, attr in targets:
        if hasattr(owner.__dict__[attr], MARKER):
            raise BenchmarkError(
                f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped"
            )


class SpanCheck:
    """Collects span-count mismatches against the counts a workload implies."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.errors: list[str] = []

    def expect(self, name: str, want: int, **kw):
        got = self.tracer.calls(name, **kw)
        if got != want:
            self.errors.append(f"{name}{kw or ''}: {got} spans, expected {want}")

    def raise_if_failed(self):
        if self.errors:
            raise BenchmarkError("span-binding self-check failed: " + "; ".join(self.errors))
