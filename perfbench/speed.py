"""Reference-speed scaling of the end-to-end times.

On a shared host one core's speed drifts with its neighbours' load.  On a
2-CPU Xeon virtual machine (Python 3.11, numpy 2.4) one cap-oracle pass
took 17 to 28 s across consecutive runs, with CPU time equal to wall time.
The worker therefore runs a fixed reference kernel, independent of
spherefrac, before every measured operation, and scales raw seconds to
seconds at the reference speed:

    t_ref = t_raw * NOMINAL_S / mean(kernel seconds over the run)

Set-up times are scaled the same way, each by the kernel run in its own
process right after set-up.

The kernel mixes the two kinds of work spherefrac does: short numpy calls
driven from a Python loop (as in the quadrature) and arithmetic on
chunk-sized arrays (as in the Monte Carlo estimators).  Raw seconds are kept
in the full result next to the scaled ones.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

# Kernel seconds on the machine above at its faster speed (range 18-28 ms);
# it only sets the unit, so both sides of a comparison share it.
NOMINAL_S = 0.020

_NODES = np.linspace(0.01, 3.0, 22)
_AXIS = np.array([0.0, 0.0, 1.0])
_SORTED = np.random.default_rng(0).random(400_000)
_CHUNK = np.random.default_rng(1).standard_normal((65536, 3))


def _small_calls() -> float:
    heap, acc = [], 0.0
    for i in range(600):
        v = _NODES * (1.0 + i * 1e-3)
        heapq.heappush(heap, (-float(np.sum(np.sinc(v / math.pi) * v**-0.5)), i))
        if len(heap) > 50:
            acc += heapq.heappop(heap)[0]
    return acc


def _arrays() -> float:
    x = _CHUNK / np.linalg.norm(_CHUNK, axis=-1)[:, None]
    inside = np.arccos(np.clip(x @ _AXIS, -1.0, 1.0)) < 1.0
    return float(np.sort(_SORTED)[0] + np.sum(np.sqrt(_SORTED) * np.sin(_SORTED))
                 + np.count_nonzero(inside))


class Speedometer:
    """Samples the reference kernel; factor() turns raw into reference seconds."""

    def __init__(self):
        self.samples: list = []
        self.sample()  # warm-up, not kept
        self.samples.clear()

    def sample(self) -> None:
        start = time.perf_counter()
        _small_calls()
        _arrays()
        self.samples.append(time.perf_counter() - start)

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        return NOMINAL_S / self.mean()
