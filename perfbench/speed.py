"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark host is a small VM that shares its cores: the same pure
Python loop runs up to 1.6x slower from one second to the next, so raw
times from two runs of identical code differ by 20-40%.  A
:class:`SpeedProbe` runs a fixed loop of the benchmark's own (no
``repro`` code) from a ``SIGALRM`` handler every :data:`INTERVAL_S`
seconds, interleaved with the workload at bytecode granularity, and
accumulates how long the loop took.  An interval's time net of the probe,
times :data:`REFERENCE_PROBE_S` over the mean probe duration in that
interval, is the time it would have taken at the reference speed.  The
handler touches no simulator state, so outputs are unchanged.
"""

from __future__ import annotations

import os
import signal
import time

#: Seconds between probes.
INTERVAL_S = 0.005
#: Mean probe duration that defines the reference speed (about its median
#: on the host the benchmark was defined on).
REFERENCE_PROBE_S = 0.000225


def _probe_loop() -> int:
    """Integer arithmetic, then small-dict allocation.

    On the definition host an integer loop alone under-corrected the
    allocation-heavy check and trace layers when the host slowed (raw time
    grew as the probe time to the power 1.5), and a dict loop alone
    over-corrected the packet tier; the mix tracked both to within about
    6% per second of run time.
    """
    total = 0
    for i in range(1500):
        total += i * i % 7
    recent = []
    for i in range(125):
        record = {"ev": "probe", "t": i * 0.5, "i": i}
        record.update(q="a", occ=i)
        recent.append(record)
        if len(recent) > 32:
            recent.pop(0)
    return total


class SpeedProbe:
    """Accumulates probe seconds and count while running in this process."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self._pid = None
        self._previous = None

    @property
    def running(self) -> bool:
        return self._pid == os.getpid()

    def start(self) -> "SpeedProbe":
        if not self.running:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            self._pid = os.getpid()
        return self

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._pid = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.seconds += time.perf_counter() - start
        self.count += 1

    def mark(self) -> tuple:
        """``(probe seconds, probe count)`` so far, to difference later."""
        return (self.seconds, self.count)


def slowdown(probe_s: float, count: int) -> float:
    """How much slower than the reference the host ran (1.0 if unprobed)."""
    return probe_s / count / REFERENCE_PROBE_S if count else 1.0
