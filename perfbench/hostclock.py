"""Wall time scaled by the speed of the host at the moment it was spent.

On a shared host, other tenants slow this process's core down by up to
half for seconds at a time, so raw wall times of one workload can differ
by more than a third between two runs; CPU time of the process moves as
much, because the core itself runs slower. A fixed reference routine (a mix
of small numpy calls and interpreter work, like the program's own inner
loops) is timed every PERIOD_S of CPU time from a SIGPROF handler in the
main thread; no thread or process is started. An interval's scaled time
is its wall time times REFERENCE_S over the median reference time sampled
around it. It reads in seconds of a host on which the reference takes
REFERENCE_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
WINDOW_S = 0.5
REFERENCE_S = 1.0e-3   # about the reference routine's time on the 2-core host it was tuned on

_A = np.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24) / 24.0
_V = np.linspace(0.0, 1.0, 96)


def reference() -> None:
    x = _A
    for _ in range(60):
        x = np.tanh(x @ _A) * 0.5
        y = _V[:48] + _V[48:]
        np.concatenate([y, y])
    d: dict = {}
    for i in range(1200):
        key = ("k", i % 25)
        d[key] = d.get(key, 0) + i * i % 7
    sorted(d.items())


class HostClock:
    def __init__(self) -> None:
        self.at: list[float] = []      # sample times (perf_counter)
        self.took: list[float] = []    # reference durations

    def sample(self) -> None:
        # With the collector on, the reference's allocations could start a
        # collection of the program's heap and time that instead.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def _on_prof(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        reference()   # the first call pays for cold caches
        self.sample()
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled length of the wall interval [t0, t1] (perf_counter times).

        The host's speed is the median reference time sampled within
        WINDOW_S of the interval: one sample jitters by a tenth or more,
        and the host's speed can change by half from one second to the
        next. Over sets of five and six seeds, a 0.5 s window with a sample every 0.1 s
        gave smaller spreads than 1, 2 or 4 s windows, and than one factor
        for the whole run.
        """
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        window = self.took[lo:hi] or self.took
        return (t1 - t0) * REFERENCE_S / statistics.median(window)
