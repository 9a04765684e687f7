"""Host-speed calibration for timings taken on a machine whose CPU speed drifts.

On a shared host the same op can run 1.5x faster or slower from one
second to the next (on a shared 2-core x86-64 VM, the wall time of one
identical 1.7 s op varied by 14-19%, as a coefficient of variation,
within a minute).  The client therefore times a short fixed probe, which
never touches gausschain, right before every op, on a wall-clock timer
while the op runs, and right after it.  Each op's wall time, less the
probes that ran inside it, is scaled by REFERENCE_S over the mean probe
time around and during it.  A change to gausschain moves the scaled
times as it moves the raw ones, while a change of host speed cancels:
on that VM the scaled times of the same op varied by 4-6%, against
8-12% with probes taken only before and after the op, because the speed
changes within a long op.  Raw times and factors are kept in the result
file.
"""

import signal
import time

import numpy as np

REFERENCE_S = 0.002  # probe time at the reference host speed
INTERVAL_S = 0.1  # probe period while an op runs
_MATRIX = np.random.default_rng(0).random((60, 60))


def probe_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and a small LAPACK call."""
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - start


def speed_factor(probe_times) -> float:
    """Scale that maps wall time at the measured speed to the reference speed."""
    return REFERENCE_S * len(probe_times) / sum(probe_times)


class Sampler:
    """Runs the probe on a SIGALRM timer while an op runs.

    ``samples`` holds the probe times and ``busy`` the (start, end) of
    each probe, so its time can be taken out of the op's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        start = time.perf_counter()
        self.samples.append(probe_seconds())
        self.busy.append((start, time.perf_counter()))

    def start(self) -> None:
        self.samples, self.busy = [], []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def busy_between(self, start: float, end: float) -> float:
        """Probe time that fell inside [start, end]."""
        return sum(e - s for s, e in self.busy if s >= start and e <= end)
