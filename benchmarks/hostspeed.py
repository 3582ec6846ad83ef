"""Host speed, sampled by a reference loop while a workload runs.

The host the benchmark was built on changes speed by up to ~30% for seconds
at a time, and by as much between runs a few minutes apart; process CPU time
varies just as much as wall time. Every 0.1 s, a SIGALRM handler runs a fixed
loop (~0.25 ms) and records how long it took. ``seconds(t0, t1)``
then converts a wall interval into nominal seconds: the time the interval
would have taken on a host where the loop takes ``NOMINAL_PROBE_S``. The
probes themselves do not count. Over one minute of 5-second windows, a bound
computation's time moved by 22% (IQR over median), its ratio to an
interpreted-arithmetic loop by 3%.

The loop uses nothing from the program under test, so a change to the program
cannot change the scale. While a child process runs, sampling pauses (a probe
would measure the parent's CPU, not the child's, and compete with it); the
speed across the pause is interpolated from the probes on either side.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.1
SMOOTH = 5  # a probe can be interrupted: use the median of this many
PROBE_ITERATIONS = 2000
#: reported times are those of a host on which one probe takes this long
NOMINAL_PROBE_S = 2.5e-4

_clock = time.perf_counter


def _probe() -> float:
    """A tight interpreted float loop. Of the kinds of work the workloads do,
    it tracked every workload's speed best: recorded beside each workload,
    one-second windows of bounds-stream requests and single registry sweeps
    varied by 0.04-0.07 (sd of log time) after dividing by it, against
    0.05-0.11 undivided. Numpy calls on scalars tracked them worst (0.11-0.19),
    and a loop mixing the two did worse than no correction on registry."""
    s = 0.0
    for i in range(PROBE_ITERATIONS):
        s += math.sqrt(i + 0.5)
    return s


class HostSpeed:
    """Context manager that samples the host speed while it is open."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self._old = None
        self._xs = self._cum = None

    def _sample(self, *_):
        self.start.append(_clock())
        _probe()
        self.end.append(_clock())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self._calibrate()

    @contextmanager
    def paused(self):
        """No sampling inside; one probe just before and one just after."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        try:
            yield
        finally:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _calibrate(self):
        s, e = np.array(self.start), np.array(self.end)
        probe = e - s
        if len(probe) >= SMOOTH:
            half = SMOOTH // 2
            padded = np.concatenate([np.repeat(probe[:1], half), probe, np.repeat(probe[-1:], half)])
            probe = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        # nominal time stands still during a probe and, between two probes,
        # advances at NOMINAL_PROBE_S / (their mean duration) per wall second
        gaps = (s[1:] - e[:-1]) * NOMINAL_PROBE_S / (0.5 * (probe[:-1] + probe[1:]))
        self._xs = np.stack([s, e], axis=1).ravel()
        steps = np.stack([np.zeros(len(s)), np.append(gaps, 0.0)], axis=1).ravel()
        self._cum = np.concatenate([[0.0], np.cumsum(steps)[:-1]])

    def seconds(self, t0: float, t1: float) -> float:
        """Nominal seconds of the wall interval [t0, t1] (perf_counter)."""
        return float(np.interp(t1, self._xs, self._cum) - np.interp(t0, self._xs, self._cum))

    def samples(self) -> int:
        return len(self.start)
