"""Host-speed reference: a fixed loop that belongs to the benchmark.

The host shares its cores with other tenants, and its speed drifts by tens of
percent over minutes.  The drift slows this loop and the program alike, so
each time the benchmark reports is scaled by how long this loop took next to
it: ``scaled(t, unit) = t * UNIT_S / unit``, the time the work would take on a
host where one unit of the loop takes ``UNIT_S`` seconds.  The loop mixes the
kinds of work the program does (numpy on arrays of a few thousand floats, and
scalar math in the interpreter), and it never calls the program, so no change
to the program can move it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

UNIT_S = 0.1          # reported times are at this speed of one unit
BLOCKS_PER_UNIT = 3000


def unit_seconds(units: int = 1) -> float:
    """Mean wall seconds of one unit of the loop, over ``units`` units."""
    x = np.linspace(0.01, 3.0, 2048)
    total = 0.0
    start = perf_counter()
    for _ in range(units * BLOCKS_PER_UNIT):
        total += float(np.log1p(np.exp(-1.3 * x) ** 1.5).sum())
        for j in range(1, 41):
            total += math.log(0.5 * math.erfc(j / 20.0))
    elapsed = perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference loop gave a non-finite sum")
    return elapsed / units


def scaled(seconds: float, unit_s: float) -> float:
    """``seconds`` measured while one unit took ``unit_s``, at the reference speed."""
    return seconds * UNIT_S / unit_s
