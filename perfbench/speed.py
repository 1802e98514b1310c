"""Host speed probe.

On a shared host, co-tenants slow a core by up to 2x for a few
milliseconds at a time, 40 to 100% of the time, differently on each
core and changing from minute to minute.  A short, fixed
pure-Python loop that shares nothing with jamin runs next to every
timed chunk of work; a chunk's time is then scaled to the reference
speed: time x (REFERENCE_S / probe time).  The probe allocates no
container objects, so the garbage collector never runs inside it and
the program's heap cannot change its time.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_ITERATIONS = 10000
# Probe time on the reference host (2-core x86 at 2.0 GHz, CPython 3.11,
# no contention).  Reported times are "seconds at reference speed".
REFERENCE_S = 0.003


def _mix(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFFFFFF


def probe_for(seconds: float) -> float:
    """Mean time of probes run back to back for at least `seconds` (and
    at least once).  Contention comes and goes every few milliseconds,
    so one probe sees either state; many see the mix a long chunk saw."""
    total = 0.0
    n = 0
    while n == 0 or total < seconds:
        total += probe()
        n += 1
    return total / n


def probe() -> float:
    """Seconds the fixed loop takes now."""
    mix = _mix
    d: dict = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        k = i & 127
        v = mix(d.get(k, i), i)
        d[k] = v
        acc ^= v >> 3
    return time.perf_counter() - t0


_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


SETTLE_EVERY_S = 1.0
_SETTLED = [float("-inf")]


def settle() -> None:
    """Move this process to the CPU where the probe runs fastest now,
    unless that was done less than SETTLE_EVERY_S seconds ago.

    Co-tenants load each CPU of a shared host differently and the load
    moves.  This changes only this process's own CPU affinity, within
    the set it started with."""
    now = time.perf_counter()
    if len(_CPUS) < 2 or now - _SETTLED[0] < SETTLE_EVERY_S:
        return
    _SETTLED[0] = now
    best = None
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        t = statistics.median(probe() for _ in range(5))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})
