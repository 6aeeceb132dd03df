"""Host speed, sampled while a run measures.

The measuring host is shared, and its speed shifts by up to half for
seconds to minutes at a time, with no sign in steal time or process time.
While a run measures, a timer signal runs a fixed reference task every
INTERVAL_S of wall time and records how long it took. An interval's time at
reference speed is its wall time, less the samples taken inside it, scaled
by REF_NOMINAL_S over the mean of the samples inside it (or of the two on
either side of it, if none fell inside). The reference task calls no
scrubsim code, so a change to the program moves times at reference speed
as it moves wall times, while a shift in the host's speed moves wall times
only.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# The reference task: small numpy calls from the interpreter, the mix of the
# program's own inner loops. It takes about REF_NOMINAL_S on a quiet host.
REF_STEPS = 300
REF_NOMINAL_S = 5e-4
_REF_INPUT = np.arange(60.0)


def reference_task() -> None:
    a = _REF_INPUT
    for _ in range(REF_STEPS):
        a = np.sqrt(a * a + 1.0)


class HostSpeed:
    """Samples the reference task from SIGALRM while the context is open.
    The handler runs in the main thread between bytecodes, so a sample that
    starts inside a timed interval also ends inside it."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_task()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> HostSpeed:
        reference_task()  # the first call pays numpy's first-use costs
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def at_reference_speed(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (perf_counter readings taken
        while sampling), less the samples inside, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        near = inside or self.durations[max(lo - 1, 0):lo + 1]
        return (end - start - sum(inside)) * REF_NOMINAL_S * len(near) / sum(near)
