"""Machine speed sampled while the workload runs.

On a shared host the same work can take twice as long from one second to
the next: the process keeps running, but slower.  A timer signal
interrupts the workload every INTERVAL_S seconds and times a fixed probe
(small matrix products in a Python loop, the kind of work the solvers do).
REFERENCE_PROBE_S divided by a probe's duration is the machine's relative
speed at that moment.  An interval of wall time, less the time spent in
the probes, times the mean relative speed over the interval is the time
the same work takes at the reference speed.  Every timing the benchmark
reports (set-up, pass wall time, call latency) is converted this way.

This assumes the program runs on one thread; a program that kept a second
core busy would slow the probe itself.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
PROBE_STEPS = 100
# Probe duration at the reference speed: the fast state of a 2-vCPU
# Intel Xeon host (CPython 3.11, numpy 2.4).
REFERENCE_PROBE_S = 1.25e-4
CALL_MARGIN_S = 0.25  # probes this close to a call also describe its speed


def probe() -> float:
    """Seconds taken by a fixed amount of small-matrix work."""
    M = np.eye(4) * 0.999
    y = np.ones((4, 5))
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        y = M @ y
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager that runs `probe` on SIGALRM and keeps
    (start time, handler duration, relative speed) per sample."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        speed = REFERENCE_PROBE_S / probe()
        self.samples.append((start, time.perf_counter() - start, speed))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at_reference(self, start: float, end: float,
                     margin: float = 0.0) -> float:
        """Seconds the interval [start, end) would take at the reference
        speed.  Probes within `margin` of the interval count towards its
        speed; only those inside it are subtracted as overhead."""
        overhead = sum(h for t, h, _ in self.samples if start <= t < end)
        speeds = [s for t, _, s in self.samples
                  if start - margin <= t < end + margin]
        if not speeds:
            raise ValueError("no speed probe near the interval; "
                             "widen the margin")
        return (end - start - overhead) * sum(speeds) / len(speeds)
