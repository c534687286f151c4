"""The machine's speed at a given moment, from a fixed reference computation.

The benchmark runs on shared machines whose speed swings by up to 2x
between phases that last from seconds to minutes, as neighbours come and
go.  A run of 30 s can fall wholly in a slow or a fast phase, so raw job
times differ between runs of the same code by more than the benchmark's
bounds.  Every timed job is therefore bracketed by a *probe*: the best
of ``REPEATS`` timings of a fixed computation in exact rational
arithmetic, the same kind of work ``alphahg`` does.  A job's time is
rescaled to the reference speed, at which one probe takes
``REFERENCE_S``::

    scaled = measured * REFERENCE_S / probe

Only the machine's speed enters the probe, never the program's: the
probe uses no ``alphahg`` code, so a change to the package moves the
scaled times by the same factor as the raw ones, while a slow phase of
the machine largely cancels (on one 2-vCPU VM, 10-s medians of a poa job
swung 1.74x raw and 1.06x scaled).  Raw times are kept in the per-run
record beside the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

REPEATS = 3
STEPS = 200
# Probe time on a 2-vCPU cloud VM in its fast phase (CPython 3, Fraction).
REFERENCE_S = 0.0013


def _reference_work() -> Fraction:
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, STEPS):
        acc += x * Fraction(i, i + 7) - Fraction(1, i)
    return acc


def probe() -> float:
    """Seconds one reference computation takes now: the best of
    ``REPEATS`` back-to-back timings, so a stray interrupt is dropped."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while a probe took ``probe_s``, rescaled to
    the reference speed."""
    return seconds * REFERENCE_S / probe_s
