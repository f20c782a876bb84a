"""Interpreter-speed calibration for ``setup_s`` and ``solve_s``.

On a shared host the same operation's wall time moves by up to 2x over
minutes, and CPU time moves with it: the whole machine runs faster or
slower, not just this process.  ``kernel`` is a fixed piece of pure-Python
work in the style of the closed-form solver (float arithmetic, small
function calls, ``math.gamma`` and ``math.exp``, float-keyed dict fills and
lookups) that calls nothing in ``fracdelay``, so no change to the program
moves it.

For a workload whose time is spent in the interpreter, the worker times
``kernel`` right before every operation and once after the last.
``run.py`` scales each operation's wall time by ``REFERENCE_S`` over the
mean of the two calibration times beside it, and the median set-up time
by ``REFERENCE_S`` over the run's median calibration time, so ``solve_s``
and ``setup_s`` are times at the interpreter speed where ``kernel`` takes
``REFERENCE_S``.  The raw wall times stay in the run record.
"""

from __future__ import annotations

import math

# about kernel()'s time on a quiet 2.1 GHz Xeon vCPU; only sets the scale
REFERENCE_S = 0.15


def _term(x: float, i: int) -> float:
    return math.gamma(1.0 + (i % 50) * 0.02) * math.exp(-x * 1e-3)


def kernel() -> float:
    """Fixed work, about REFERENCE_S seconds; returns its sum."""
    acc = 0.0
    for r in range(70):
        table = {}
        for i in range(2500):
            x = r + i * 1e-3
            table[x] = _term(x, i)
        for i in range(2500):
            acc += table.get(r + i * 1e-3, 0.0) * 0.5 + 1e-9 * i
    return acc
