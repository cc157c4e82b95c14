"""Host-speed probe: times measured in seconds at a fixed reference speed.

The shared development host changes speed by up to 2x within seconds
(the same pass of the same code took 1.0 s and 2.3 s a minute apart),
and a reference timed before or after a pass does not predict it.  So
the probe measures the host's speed *during* the pass, on the same
core: a real-time timer interrupts the program every ``INTERVAL``
seconds and runs one fixed reference unit (exact elimination of a 7 x 7
rational matrix with ``fractions.Fraction``, pure Python like the
program, independent of tropbetti).  ``seconds(t0, t1)`` then gives the
program's own time in ``[t0, t1]`` (the probe's time taken out) scaled
by ``NOMINAL_S / unit time``: the seconds it would have taken on a host
that runs one unit in ``NOMINAL_S``.  The scale is the median unit time
of each run of ``CHUNK`` consecutive samples, so drift within a long
pass is followed.

The probe costs 3-6 % of the pass, all of it outside the reported
figure.  Python runs the handler between bytecodes of the main
thread, so the program stays single-threaded.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.04
NOMINAL_S = 0.001
CHUNK = 25  # about 1 s of samples per scale
MIN_SAMPLES = 5
NEAREST = 25  # samples that scale a window holding fewer than MIN_SAMPLES


def reference_unit() -> int:
    n = 7
    a = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + 2 * j) % 5) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(n):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration), in time order
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.monotonic()
        reference_unit()
        self.samples.append((t, time.monotonic() - t))
        self._busy = False

    def start(self) -> float:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return time.monotonic()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def calibrate(self, units: int = NEAREST) -> None:
        """Take ``units`` samples back to back (the timer must be stopped)."""
        for _ in range(units):
            self._sample(None, None)

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S / median unit time over [t0, t1], or over the samples
        nearest to it when fewer than MIN_SAMPLES fall there."""
        inside = [d for s, d in self.samples if t0 <= s and s + d <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            inside = [d for _, d in nearest[:NEAREST]]
        if not inside:
            raise RuntimeError("the speed probe took no sample")
        return NOMINAL_S / statistics.median(inside)

    def seconds(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1], probe excluded, in seconds at reference speed."""
        inside = [(s, d) for s, d in self.samples if t0 <= s and s + d <= t1]
        chunks = [inside[i : i + CHUNK] for i in range(0, len(inside), CHUNK)]
        if len(chunks) > 1 and len(chunks[-1]) < CHUNK // 2:
            chunks[-2:] = [chunks[-2] + chunks[-1]]
        if len(chunks) <= 1:
            probed = sum(d for _, d in inside)
            return (t1 - t0 - probed) * self.scale(t0, t1)
        total, start = 0.0, t0
        for j, chunk in enumerate(chunks):
            end = t1 if j == len(chunks) - 1 else chunk[-1][0] + chunk[-1][1]
            durations = [d for _, d in chunk]
            total += (end - start - sum(durations)) * NOMINAL_S / statistics.median(durations)
            start = end
        return total
