"""The real-network runtime: asyncio timers behind the simulation API.

:class:`AsyncioTimers` implements the :class:`~repro.sim.clock.Timers`
protocol on a real event loop — ``now`` is ``loop.time()`` (the OS
monotonic clock) and ``schedule_at``/``schedule_in`` wrap
``loop.call_at``/``loop.call_later``, whose handles already expose the
``.cancel()`` the protocol requires.  :class:`RtSimulation` is a
:class:`~repro.sim.simulation.Simulation` whose ``scheduler`` is an
:class:`AsyncioTimers`, so the TCP/MPTCP state machines, the path
manager, the invariant monitor and ``repro.exp`` point functions run on
real sockets *unchanged*.

Two deliberate differences from the simulator:

* **The clock is raw monotonic.**  ``now`` does not start at 0; it is
  whatever ``loop.time()`` returns, and every trace event carries that
  epoch (the run's ``rt.run`` record declares ``time_origin`` so tools
  can rebase).  Scenario code converts scenario-relative times with
  :meth:`RtSimulation.at` and runs phases with
  :meth:`RtSimulation.run_until_elapsed`.
* **Runs are wall-clock.**  ``run_until`` blocks the calling thread for
  real seconds while the private event loop services sockets and timers.
  Nothing here is deterministic; determinism claims stay with the sim
  backend, divergence between the two is measured by
  :mod:`repro.rt.divergence`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, List

from ..sim.simulation import Simulation

__all__ = ["AsyncioTimers", "RtSimulation"]


class AsyncioTimers:
    """:class:`~repro.sim.clock.Timers` over an asyncio event loop."""

    __slots__ = ("_loop",)

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop

    @property
    def now(self) -> float:
        """Monotonic-clock seconds (``loop.time()``; arbitrary origin)."""
        return self._loop.time()

    def schedule_at(self, when: float, callback: Callable, arg: Any = None):
        """Run ``callback(arg?)`` at absolute loop time ``when``; a time
        in the past fires as soon as the loop runs (never raises, unlike
        the simulator's scheduler — real clocks cannot rewind)."""
        if arg is None:
            return self._loop.call_at(when, callback)
        return self._loop.call_at(when, callback, arg)

    def schedule_in(self, delay: float, callback: Callable, arg: Any = None):
        if arg is None:
            return self._loop.call_later(delay, callback)
        return self._loop.call_later(delay, callback, arg)


class RtSimulation(Simulation):
    """A :class:`~repro.sim.simulation.Simulation` running on real sockets.

    Registry, RNG, ``now``, ``schedule_at``/``schedule_in`` and
    ``at_end``/``finish`` are inherited; only the clock differs —
    ``scheduler`` is an :class:`AsyncioTimers` on a private event loop
    (never installed as the thread's global loop) so multiple runs — and
    the sim backend — can coexist in one process.  The constructor shape
    is ``Simulation(seed, trace)``, so
    :meth:`repro.check.hooks.CheckContext.simulation` can build one with
    full invariant-monitor wiring via ``cls=RtSimulation``.  The seeded
    ``rng`` drives the impairment layer: its loss/jitter schedule is
    reproducible even though packet timing is not.
    """

    def __init__(self, seed: int = 1, trace=None):
        super().__init__(seed=seed, trace=trace)
        self._loop = asyncio.new_event_loop()
        # Components reach the clock through ``sim.scheduler``; anything
        # touching event-heap internals fails loudly here (as it should).
        self.scheduler = AsyncioTimers(self._loop)
        self._cleanups: List[Callable[[], None]] = []
        self._closed = False
        #: Monotonic-clock value at the run origin; observers rebase
        #: timestamps by subtracting it (SeriesRecorder does so
        #: automatically — see its ``time_origin`` parameter).
        self.time_origin = self._loop.time()
        #: Wall-clock (Unix epoch) time at the run origin.
        self.origin_unix = time.time()
        if self.trace.enabled:
            self.trace.emit(
                "rt.run",
                self.time_origin,
                backend="rt",
                origin_mono=self.time_origin,
                origin_unix=self.origin_unix,
                seed=seed,
            )

    # -- time ----------------------------------------------------------
    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def elapsed(self) -> float:
        """Seconds since the run origin (a 0-based, sim-like axis)."""
        return self._loop.time() - self.time_origin

    def at(self, rel: float) -> float:
        """Absolute loop time for a scenario-relative instant."""
        return self.time_origin + rel

    # -- running ---------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Service sockets and timers until absolute loop time
        ``end_time`` (already-past times return immediately)."""
        remaining = end_time - self._loop.time()
        if remaining > 0:
            self._loop.run_until_complete(asyncio.sleep(remaining))

    def run_until_elapsed(self, rel: float) -> None:
        """Run until ``rel`` seconds after the run origin — the
        real-backend spelling of the simulator's ``run_until(t)``."""
        self.run_until(self.time_origin + rel)

    def run_for(self, duration: float) -> None:
        self.run_until(self._loop.time() + duration)

    # -- teardown --------------------------------------------------------
    def add_cleanup(self, callback: Callable[[], None]) -> None:
        """Register transport/socket teardown run by :meth:`close`."""
        self._cleanups.append(callback)

    def close(self) -> None:
        """Close sockets and the event loop.  Idempotent; every run
        should reach it (``with RtSimulation() as sim`` does)."""
        if self._closed:
            return
        self._closed = True
        for callback in reversed(self._cleanups):
            callback()
        # One last spin so transport.close() teardown callbacks run.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    def __enter__(self) -> "RtSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RtSimulation(seed={self.seed}, elapsed={self.elapsed:.3f}s, "
            f"components={len(self._components)})"
        )
