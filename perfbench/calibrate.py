"""Host-speed calibration for the timed loops.

The CPU speed of a shared host moves between regimes that last tens of
seconds: one ``jet_compose`` call was measured at 10.5, 17 and 21 ms on
the same 2-vCPU host within one minute.  Wall-clock medians of runs taken
minutes apart then differ by more than any useful regression bound.

The timed loops therefore run a fixed calibration kernel between ops and
scale each op's wall time by ``REF_S / local kernel time``: the op's cost
at the speed where the kernel takes ``REF_S``.  The kernel is exact
rational arithmetic in a dict loop, the same kind of work as the series
layer, but it lives here, so no change to ``artifact`` can change it.
Raw wall-clock figures are reported alongside in the detail line.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0025        # one sample's duration at the reference speed
WINDOW = 2            # samples each side of an op that set its scale


def _poly(rng):
    return {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for i in range(5) for j in range(5 - i)}


_RNG = random.Random(0)
_P, _Q = _poly(_RNG), _poly(_RNG)


def _kernel():
    out = {}
    for (a1, a2), ca in _P.items():
        for (b1, b2), cb in _Q.items():
            if a1 + a2 + b1 + b2 > 6:
                continue
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + ca * cb
    return out


def sample():
    """Seconds for one calibration sample (three kernel runs)."""
    t0 = perf_counter()
    for _ in range(3):
        _kernel()
    return perf_counter() - t0


def scales(samples):
    """Scale factor for each interval between consecutive samples: the
    reference time over the median of the nearest samples."""
    out = []
    for i in range(len(samples) - 1):
        near = samples[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(REF_S / statistics.median(near))
    return out
