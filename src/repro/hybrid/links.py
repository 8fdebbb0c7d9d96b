"""Fluid link models coupled to the packet-level queues.

A :class:`HybridLink` is the fluid view of one
:class:`~repro.net.queue.DropTailQueue`.  Each hybrid step it

1. measures the packet-level ("tracer") arrival rate from the queue's
   own counters, so real packet flows contribute to the link's total
   load exactly like fluid classes do;
2. integrates the fluid backlog ``b' = (total − C)·dt`` clamped to the
   buffer, and derives the drop-tail feedback signals from it: loss
   ``p = 1 − C/total`` while the buffer is full, queueing delay
   ``b/C``, and the served fraction ``min(1, C/total)`` that caps
   delivered fluid at capacity;
3. couples back into the packet world: the queue's service rate is set
   to the capacity left over by the fluid load (tracers queue behind
   the aggregate traffic), and an intercept drops arriving tracer
   packets with the fluid loss probability (seeded per link, so runs
   stay deterministic; drops are emitted as ``pkt.drop`` with
   ``kind='hybrid'``).

The intercept consumes packets *before* the queue counts them, which is
exactly how the fault layer's drops stay invisible to the
queue-conservation invariant — hybrid drops inherit that safety.  The
packets the intercept did consume are added back into the measured
tracer rate, since they were offered load even though the queue never
saw them.
"""

from __future__ import annotations

import random

from ..net.queue import DropTailQueue, chain_intercept

__all__ = ["HybridLink"]

#: Fraction of capacity always left to the packet-level tracers, so a
#: fluid-saturated link slows tracer service sharply without stalling it
#: (tracer throughput is loss-limited at that point, as it would be for
#: any single flow among the aggregate).
_MIN_TRACER_SHARE = 0.01


class HybridLink:
    """Fluid state of one bottleneck queue plus the packet coupling."""

    __slots__ = (
        "sim", "queue", "name", "capacity", "buffer",
        "backlog", "loss", "queue_delay", "served_fraction",
        "fluid_pps", "tracer_pps",
        "_last_offered", "_intercept_drops", "_rng",
    )

    def __init__(self, sim, queue: DropTailQueue, name: str = ""):
        self.sim = sim
        self.queue = queue
        self.name = name or queue.name or f"hlink-{id(queue):x}"
        #: Service capacity in pkt/s, snapshotted at wrap time (the queue's
        #: own rate is subsequently mutated to the tracer residual).
        self.capacity = float(queue.rate_pps)
        #: Buffer size in packets.
        self.buffer = float(queue.capacity)
        self.backlog = 0.0
        self.loss = 0.0
        self.queue_delay = 0.0
        self.served_fraction = 1.0
        self.fluid_pps = 0.0
        self.tracer_pps = 0.0
        self._intercept_drops = 0
        self._last_offered = queue.arrivals
        # Per-link derived RNG (the fault layer's idiom): tracer drops are
        # reproducible from (seed, link) alone, independent of whatever
        # else draws from sim.rng.
        self._rng = random.Random(f"{sim.seed}:hybrid:{self.name}")
        self._install_intercept()
        sim.register(self)

    # ------------------------------------------------------------------
    def _install_intercept(self) -> None:
        """Chain a probabilistic tracer-drop interceptor onto the queue
        (after any interceptor already present — first consumer wins)."""

        def hybrid_drop(packet, _self=self):
            if _self.loss <= 0.0 or _self._rng.random() >= _self.loss:
                return False
            _self._intercept_drops += 1
            trace = _self.queue.trace
            if trace.enabled:
                trace.emit(
                    "pkt.drop",
                    _self.sim.now,
                    elem=_self.queue.name,
                    kind="hybrid",
                    flow=getattr(packet.flow, "name", None),
                    seq=getattr(packet, "seq", None),
                )
            return True

        chain_intercept(self.queue, hybrid_drop)

    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Zero the fluid accumulator before classes push their rates."""
        self.fluid_pps = 0.0

    def add_fluid(self, rate_pps: float) -> None:
        self.fluid_pps += rate_pps

    def step(self, dt: float) -> None:
        """Advance the fluid backlog one ``dt`` and refresh the coupling."""
        offered = self.queue.arrivals + self._intercept_drops
        self.tracer_pps = (offered - self._last_offered) / dt
        self._last_offered = offered

        total = self.fluid_pps + self.tracer_pps
        cap = self.capacity
        if total > 0.0:
            self.served_fraction = min(1.0, cap / total)
        else:
            self.served_fraction = 1.0
        self.backlog = min(
            self.buffer, max(0.0, self.backlog + (total - cap) * dt)
        )
        # Drop-tail fluid loss: only a full buffer sheds the excess rate.
        if total > cap and self.backlog >= self.buffer * (1.0 - 1e-9):
            self.loss = 1.0 - cap / total
        else:
            self.loss = 0.0
        self.queue_delay = self.backlog / cap if cap > 0.0 else 0.0
        # Packet-side coupling: tracers are served from the capacity the
        # fluid load leaves over.
        self.queue.rate_pps = max(
            cap - self.fluid_pps, cap * _MIN_TRACER_SHARE, 1.0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HybridLink({self.name!r}, cap={self.capacity:.0f}pps, "
            f"fluid={self.fluid_pps:.0f}pps, loss={self.loss:.3f})"
        )
