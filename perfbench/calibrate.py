"""Machine-speed calibration for a shared, drifting host.

On a shared 2-core host the speed of one process drifts by up to
~30% over tens of seconds, in both Python and BLAS work, while its CPU
time tracks its wall time: the core itself runs slower. Run medians
alone then differ between runs by more than any useful bound.

``Calibration.kernel`` times a fixed kernel of the kind of work that
dominates the workload. It never calls funreg, so no change to the
package can move it. The benchmark
runs it just before every set-up and every timed operation, and
multiplies that work's times by the kernel's nominal time over the
kernel's time, taken for an operation as the median over it and its two
neighbours on either side: a time in the result is the time the work
would take at the speed at which the kernel takes its nominal time. The
raw times are printed beside the result.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Kernel time at nominal speed, about its time on an idle 2-core x86_64
# host, per kernel kind.
NOMINAL_S = {"mixed": 0.0165, "dense": 0.0175}


class Calibration:
    """``mixed`` covers parsing, Python loops and small linear algebra;
    ``dense`` is one symmetric eigensolve of order 400, for workloads whose
    time is mostly in LAPACK."""

    def __init__(self, kind: str = "mixed"):
        self.kind = kind
        rng = np.random.default_rng(20051017)
        self._X = rng.standard_normal((4000, 101))
        self._lines = [",".join(repr(float(v)) for v in row) for row in self._X[:300]]
        self._payload = json.dumps({"rows": self._X[:60].tolist()})
        self._floats = self._X[:, 0].tolist() * 5
        A = rng.standard_normal((400, 400))
        self._S = A @ A.T
        self.kernel()

    def kernel(self) -> float:
        """Seconds taken by one pass of the fixed kernel."""
        t0 = perf_counter()
        if self.kind == "dense":
            np.linalg.eigh(self._S)
            return perf_counter() - t0
        [[float(cell) for cell in line.split(",")] for line in self._lines]
        json.loads(self._payload)
        total = 0.0
        for v in self._floats:
            total += v * v
        np.linalg.eigh(self._X.T @ self._X)
        (self._X - self._X.mean(axis=0)) * 1.5
        return perf_counter() - t0

    def factor(self) -> float:
        """Multiplier taking times measured now to nominal machine speed."""
        return NOMINAL_S[self.kind] / self.kernel()

    def smoothed_factors(self, kernel_s: list[float], half_window: int = 2) -> list[float]:
        """Per-operation multipliers from a centred running median of kernel
        times, which damps the noise of a single short kernel pass."""
        return [NOMINAL_S[self.kind] / statistics.median(kernel_s[max(0, i - half_window):i + half_window + 1])
                for i in range(len(kernel_s))]
