"""The machine's momentary speed, gauged by a fixed pure-Python task.

On a shared host the same code can run 1.5x slower for tens of seconds
while another tenant loads the core, so raw times of one run differ from
those of the next by more than any change worth measuring.  The benchmark
runs this probe between operations and scales each latency by
REFERENCE_S / (probe time around it): times are reported at the speed at
which the probe takes REFERENCE_S.  The probe does what radolab's inner
loops do (Fraction arithmetic, small dicts, tuples and strings) and calls
no radolab code, so a change to radolab moves the scaled times exactly as
it moves the raw ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# the probe's time on an uncontended 2-vCPU Xeon VM under Python 3.11
REFERENCE_S = 0.0007


def probe_seconds() -> float:
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 140):
        acc += Fraction(i, i + 7)
        table[(i, str(i))] = [i, i + 1]
    return perf_counter() - t0
