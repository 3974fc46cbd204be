"""The reference loop: a fixed piece of work that measures the host's speed.

The host is shared. Load from other tenants makes the same computation
take 30-40% longer for seconds to minutes at a time; no number of
repetitions inside one run averages that away. So the
benchmark's client times this loop right before and after every job (or
every step of a few short jobs), on the CPU where the jobs run, and
reports each job's time scaled to the speed at which the loop takes
``REF_S`` seconds:

    normalized seconds = measured seconds * REF_S / loop seconds

The loop is the kind of work umbra's kernel does (products of plain
``Fraction`` coefficients of mixed height, in pure Python), so it slows
down with the host as the program does. It never calls the program and
runs in the client, not in a process that holds the program's heap, so a
change to the program cannot move it; the garbage collector is off while
it runs.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the loop's median time on the 2-core x86-64 VM (Python 3.11.7)
# where the benchmark was tuned; a normalized time is what the job would
# have taken there at that speed.
REF_S = 0.020

_TERMS = 40
_A = [Fraction(1, k + 2) ** 3 + Fraction(k, 7) for k in range(_TERMS)]
_B = [Fraction(k * k + 1, 2 * k + 3) for k in range(_TERMS)]


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return out


def loop_seconds() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for _ in range(2):
            _mul(_A, _B)
            _mul(_B, _A)
        return (time.perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()
