"""The fixed reference loop that the benchmark's timings are rescaled by.

The loop uses the standard library only and never imports ``starcover``.  Its
work is shaped like the program's exact kernel: products of sparse
polynomials held as dicts from exponent tuples to ``Fraction`` coefficients.
Every slice repeats exactly the same work, so a change in a slice's duration
is a change in the machine's speed, not in the work.
"""

import gc
import time
from fractions import Fraction

# Median duration of one slice on the reference machine (a 2-CPU Intel Xeon
# virtual machine, Python 3.11.7) at its usual speed.  Timings are reported
# in seconds at this speed: a timed interval is multiplied by
# NOMINAL_SLICE_S / (measured slice time).
NOMINAL_SLICE_S = 0.025

_A = {
    (i, j): Fraction((-1) ** (i + j) * (i + 2 * j + 1), 1 + (i * j) % 5)
    for i in range(4)
    for j in range(4)
    if i + j <= 4
}
_B = {
    (i, j): Fraction(3 * i - j + 2, 2 + (i + j) % 3)
    for i in range(3)
    for j in range(4)
    if i + j <= 3
}
_REPS = 70


def _work() -> Fraction:
    acc = Fraction(0)
    for _ in range(_REPS):
        prod: dict = {}
        for (ai, aj), ca in _A.items():
            for (bi, bj), cb in _B.items():
                key = (ai + bi, aj + bj)
                prod[key] = prod[key] + ca * cb if key in prod else ca * cb
        acc += sum(prod.values()) / len(prod)
    return acc


EXPECTED = _work()


def run_slice() -> float:
    """Run one slice with the garbage collector paused; return its seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = _work()
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if value != EXPECTED:
        raise RuntimeError("reference loop computed a different value")
    return elapsed
