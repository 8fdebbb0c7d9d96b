"""Top-level simulation container.

A :class:`Simulation` bundles the event scheduler with a seeded random number
generator and a registry of components, so that an experiment is fully
reproducible from ``(scenario, seed)``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional

from ..obs.trace import NULL_TRACE
from .engine import EventScheduler

__all__ = ["Simulation"]


class Simulation:
    """Event scheduler + seeded randomness + component registry.

    All simulator components take a ``Simulation`` in their constructor and
    use ``sim.scheduler`` for timing and ``sim.rng`` for randomness, so that
    a run is a pure function of the scenario and the seed.

    Passing a :class:`~repro.obs.trace.TraceBus` as ``trace`` turns on
    structured event tracing for every component built on this simulation
    (components resolve their default ``trace=`` keyword to ``sim.trace``).
    Without one, ``sim.trace`` is the no-op singleton and instrumented hot
    paths pay a single attribute check.
    """

    def __init__(self, seed: int = 1, trace=None):
        self.trace = NULL_TRACE if trace is None else trace
        #: The :class:`~repro.sim.clock.Timers` implementation components
        #: use for time and timer access: the event heap here; the
        #: real-network backend (:class:`repro.rt.loop.RtSimulation`)
        #: replaces it with timers on the asyncio loop's monotonic clock.
        self.scheduler = EventScheduler(trace=self.trace)
        #: Epoch of ``now`` relative to the run start: 0 in simulation.
        #: Real-backend runs set this to the monotonic clock's value at
        #: the run origin so observers (e.g. SeriesRecorder) can rebase.
        self.time_origin = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._components: List[Any] = []
        self._watchers: List[Callable[[Any], None]] = []
        self._at_end: List[Callable[[], None]] = []

    # -- time ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.scheduler.now

    def schedule_at(self, time: float, callback, arg=None):
        return self.scheduler.schedule_at(time, callback, arg)

    def schedule_in(self, delay: float, callback, arg=None):
        return self.scheduler.schedule_in(delay, callback, arg)

    # -- components ------------------------------------------------------
    def register(self, component: Any) -> Any:
        """Track a component for introspection; returns it for chaining."""
        self._components.append(component)
        for watcher in self._watchers:
            watcher(component)
        return component

    def on_register(
        self, callback: Callable[[Any], None], replay: bool = True
    ) -> None:
        """Invoke ``callback`` for every registered component, now and in
        the future.

        This is how cross-cutting observers (the invariant monitor, the
        fault-injection layer) discover the queues, senders and connections
        of a scenario without explicit wiring: components register
        themselves at construction, and a watcher attached at any time sees
        the ones built before it (``replay=True``) as well as everything
        built afterwards.
        """
        self._watchers.append(callback)
        if replay:
            for component in self._components:
                callback(component)

    @property
    def components(self) -> List[Any]:
        return list(self._components)

    # -- running ---------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        self.scheduler.run_until(end_time)

    def run(self, max_events: Optional[int] = None) -> int:
        return self.scheduler.run(max_events=max_events)

    def at_end(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked by :meth:`finish`."""
        self._at_end.append(callback)

    def finish(self) -> None:
        """Invoke end-of-run callbacks (e.g. to flush metric samples) and
        flush any trace sinks."""
        for callback in self._at_end:
            callback()
        self.trace.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulation(seed={self.seed}, now={self.now:.3f})"
