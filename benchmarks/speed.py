"""Machine speed sampled during a run, to rescale its wall time.

The benchmark shares a small virtual machine with other tenants, and the
speed at which it runs the same instructions changes by up to 1.6x from
second to second and from minute to minute.  Wall time alone then measures
the neighbours more than the program.  ``SpeedMeter`` interrupts the run
every ``INTERVAL_S`` seconds (``SIGALRM``, handled between bytecodes, so a
running numpy call finishes first) and times a fixed kernel that does not
use the program, with one part for each kind of work the workloads do: a
pure-Python loop, a small matrix product and a random gather from an array
larger than the per-core caches.  A sample's slowdown is the mean over the
parts of part time / nominal part time.  Each stretch of the run between
two samples is divided by the median slowdown of the four samples around
it, so

    ref_seconds = sum(stretch / slowdown around the stretch)

is the time the run would have taken had the machine run the kernel at its
nominal speed throughout.  The kernel's own time is left out.  A program
change leaves the kernel unchanged, so it shows in full.  A span too short
to sample, such as a process's set-up, is divided by the slowdown of
samples taken right after it (``probe``).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
PY_LOOP = 10_000
MATRIX_ORDER = 128
GATHER_ARRAY = 4_000_000  # float64 values, 32 MB
GATHER_READS = 20_000
# Part times at the host's faster speed (2 vCPU Xeon at 2.0 GHz, one BLAS
# thread, the 5th percentile of some 3600 samples); a sample that reads these
# has slowdown 1.
NOMINAL_S = (6.7e-4, 1.8e-4, 3.6e-4)
WINDOW = 2  # samples on each side of a stretch
PROBE_SAMPLES = 9


class SpeedMeter:
    """Samples the kernel while active; ``ref_seconds`` rescales an interval
    of ``time.perf_counter()`` readings taken while it was active."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((MATRIX_ORDER, MATRIX_ORDER))
        self._array = rng.random(GATHER_ARRAY)
        self._reads = rng.integers(0, GATHER_ARRAY, GATHER_READS)
        # (start, end, slowdown) per sample
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None
        self._busy = False

    def _slowdown(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(PY_LOOP):
            total += i * i
        t1 = time.perf_counter()
        self._matrix @ self._matrix
        t2 = time.perf_counter()
        self._array.take(self._reads).sum()
        parts = (t1 - t0, t2 - t1, time.perf_counter() - t2)
        return statistics.fmean(t / nominal for t, nominal in zip(parts, NOMINAL_S))

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            slowdown = self._slowdown()
            self.samples.append((start, time.perf_counter(), slowdown))
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedMeter":
        self._slowdown()  # warm the code paths and the arrays
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def ref_seconds(self, begin: float, end: float) -> float:
        """Nominal-speed seconds spent in [begin, end] outside samples."""
        total = 0.0
        samples = self.samples
        for i in range(1, len(samples)):
            lo, hi = max(samples[i - 1][1], begin), min(samples[i][0], end)
            if hi > lo:
                window = samples[max(i - WINDOW, 0):i + WINDOW]
                total += (hi - lo) / statistics.median(s for _, _, s in window)
        return total

    def median_slowdown(self) -> float:
        return statistics.median(s for _, _, s in self.samples)

    def probe(self) -> float:
        """Median slowdown of ``PROBE_SAMPLES`` samples taken now, back to back."""
        self._slowdown()
        for _ in range(PROBE_SAMPLES):
            self.sample()
        return self.median_slowdown()
