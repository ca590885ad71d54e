"""A fixed reference computation that tracks how fast the machine runs now.

On a shared machine the speed of identical work can drift by 10-30% over
minutes, uniformly across code. A run times this kernel between its steps
and evaluations (never inside them). Its timing metrics are scaled by
`REFERENCE_S / median(kernel time)`, so they read as if the machine ran at
the speed it had when REFERENCE_S was measured. The kernel mixes what
arelax spends its time on: small dense GEMMs with tanh, per-array guard
reductions, an interpreter loop and a streamed copy. Nothing in it calls
arelax, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time inside benchmark runs on a 2-CPU Intel Xeon at 2.1 GHz
# (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread). Any fixed
# value works; this one keeps calibrated figures near measured ones there.
REFERENCE_S = 0.0038


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 300))
        self._w = rng.standard_normal((300, 300)) / 17.0
        self._big = rng.standard_normal(256 * 1024)
        self.times: list[float] = []

    def _kernel(self) -> float:
        x = self._x
        for _ in range(8):
            x = np.tanh(x @ self._w)
            if not np.isfinite(x).all() or float(np.max(np.abs(x))) > 1e6:
                raise FloatingPointError("calibration kernel diverged")
        acc = 0
        for i in range(2000):
            acc += i & 7
        s = self._big.copy()
        s *= 0.5
        return float(x[0, 0]) + acc + float(s[0])

    def sample(self, n: int = 1) -> None:
        """n timed kernels after one untimed one, which brings the kernel's
        data back into cache whatever ran before."""
        self._kernel()
        for _ in range(n):
            t0 = perf_counter()
            self._kernel()
            self.times.append(perf_counter() - t0)

    def factor(self) -> float:
        """Reference speed over current speed: multiply a time by it."""
        return REFERENCE_S / statistics.median(self.times)
