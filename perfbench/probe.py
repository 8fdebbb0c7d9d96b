"""Running sweep points under observation and reading their counters.

The probe hooks three cheap places, once per point rather than per packet,
so the untraced run pays nothing on the hot path:

* ``CheckContext.simulation`` -- captures the point's ``Simulation`` and
  its invariant monitor;
* ``Simulation.run_until`` -- its first call ends the build phase and
  starts the run phase;
* ``TcpReceiver.__init__`` -- collects receivers, which do not register
  with the simulation, for the in-order delivery counts.

After the point returns, :func:`harvest` reads the public counters of the
components through ``Simulation.components``.  For a given seed the
counts repeat exactly.

Pool workers reach the same machinery through :func:`pool_task`, which
stands in for the runner's worker entry point and spools what each task
measured to a JSON file the parent merges at the end.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.check.hooks import CheckContext
from repro.check.invariants import InvariantMonitor
from repro.exp.spec import TaskSpec, execute_task
from repro.hybrid.flowclass import FlowClass
from repro.mptcp.connection import MptcpConnection, MptcpReceiver
from repro.mptcp.subflow import MptcpSubflow
from repro.net.pipe import Pipe
from repro.net.queue import DropTailQueue
from repro.obs.trace import TraceBus
from repro.sim.simulation import Simulation
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

from . import spans
from .speed import SpeedProbe


class PointProbe:
    """What one point built, and when its phases began and ended."""

    def __init__(self) -> None:
        self.sim: Optional[Simulation] = None
        self.monitor: Optional[InvariantMonitor] = None
        self.receivers: List[TcpReceiver] = []
        self.t_start = time.perf_counter()
        self.t_run: Optional[float] = None
        self.spans_at_run: Optional[dict] = None
        self.speed_at_run = (0.0, 0)


@dataclass
class PointRecord:
    """One executed point: its canonical row and what it cost."""

    index: int
    row: Optional[dict]
    error: Optional[str]
    build_s: float                    # net of speed-probe time
    run_s: float                      # net of speed-probe time
    counts: Dict[str, float]
    probe_s: float = 0.0              # speed-probe seconds inside the point
    probe_n: int = 0                  # speed probes inside the point
    spans: Optional[dict] = None      # span delta over the run phase
    mono_start: float = 0.0           # time.monotonic() at task start

    def to_json(self) -> dict:
        return dict(self.__dict__)


class Session:
    """Hooks installed for one benchmark process (and inherited by forked
    pool workers); optionally a speed probe for the end-to-end run or a
    span recorder for the traced run."""

    def __init__(self, speed: Optional[SpeedProbe] = None) -> None:
        self.current: Optional[PointProbe] = None
        self.speed = speed
        self.recorder: Optional[spans.SpanRecorder] = None
        self._instrumentation: Optional[spans.Instrumentation] = None
        self._undo: List[tuple] = []

    # -- hooks -------------------------------------------------------------
    def install(self) -> "Session":
        session = self
        build_sim = CheckContext.__dict__["simulation"]
        run_until = Simulation.__dict__["run_until"]
        rx_init = TcpReceiver.__dict__["__init__"]

        def simulation(ctx, *args, **kwargs):
            sim = build_sim(ctx, *args, **kwargs)
            probe = session.current
            if probe is not None:
                probe.sim, probe.monitor = sim, ctx.monitor
            return sim

        def probed_run_until(sim, end_time):
            probe = session.current
            if probe is not None and probe.t_run is None:
                if session.recorder is not None:
                    probe.spans_at_run = session.recorder.snapshot()
                probe.speed_at_run = session.speed_mark()
                probe.t_run = time.perf_counter()
            return run_until(sim, end_time)

        def receiver_init(rx, *args, **kwargs):
            rx_init(rx, *args, **kwargs)
            probe = session.current
            if probe is not None:
                probe.receivers.append(rx)

        for owner, name, value in (
            (CheckContext, "simulation", simulation),
            (Simulation, "run_until", probed_run_until),
            (TcpReceiver, "__init__", receiver_init),
        ):
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)
        return self

    def remove(self) -> None:
        self.stop_tracing()
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def start_tracing(self) -> None:
        self.recorder = spans.SpanRecorder()
        self._instrumentation = spans.Instrumentation(self.recorder).install()

    def stop_tracing(self) -> None:
        if self._instrumentation is not None:
            self._instrumentation.remove()
        self._instrumentation = None
        self.recorder = None

    def speed_mark(self) -> tuple:
        return self.speed.mark() if self.speed is not None else (0.0, 0)

    # -- running -------------------------------------------------------------
    def run_point(self, task: TaskSpec) -> PointRecord:
        """Execute one task in this process and harvest its counters."""
        mono_start = time.monotonic()
        speed_start = self.speed_mark()
        probe = self.current = PointProbe()
        error = None
        row = None
        try:
            row = json.loads(json.dumps(execute_task(task)))
        except Exception as exc:  # a failed point is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t_end = time.perf_counter()
        speed_end = self.speed_mark()
        self.current = None
        if probe.t_run is None:
            probe.t_run, probe.speed_at_run = t_end, speed_end
        t_run = probe.t_run
        build_probe = probe.speed_at_run[0] - speed_start[0]
        run_probe = speed_end[0] - probe.speed_at_run[0]
        span_delta = None
        if self.recorder is not None and probe.spans_at_run is not None:
            span_delta = spans.delta(self.recorder.snapshot(), probe.spans_at_run)
        counts = harvest(probe) if probe.sim is not None else {}
        return PointRecord(
            index=task.index, row=row, error=error,
            build_s=t_run - probe.t_start - build_probe,
            run_s=t_end - t_run - run_probe,
            counts=counts, probe_s=build_probe + run_probe,
            probe_n=speed_end[1] - speed_start[1],
            spans=span_delta, mono_start=mono_start,
        )


def harvest(probe: PointProbe) -> Dict[str, float]:
    """Public counters of everything the point built, summed by layer."""
    sim = probe.sim
    comps = sim.components
    sched = sim.scheduler
    queues = [c for c in comps if isinstance(c, DropTailQueue)]
    senders = [c for c in comps if isinstance(c, TcpSender)]
    classes = [c for c in comps if isinstance(c, FlowClass)]
    reassemblers = [c.reassembler for c in comps if isinstance(c, MptcpReceiver)]
    packet_flows = (
        sum(1 for s in senders if not isinstance(s, MptcpSubflow))
        + sum(1 for c in comps if isinstance(c, MptcpConnection))
    )
    fluid_flows = sum(fc.count for fc in classes)
    counts = {
        "sim.engine.events": sched.events_run,
        "net.queue.arrivals": sum(q.total_arrivals for q in queues),
        "net.queue.drops": sum(q.total_drops for q in queues),
        "net.pipe.deliveries": sum(
            p.deliveries for p in comps if isinstance(p, Pipe)),
        "tcp.sender.sent": sum(s.packets_sent for s in senders),
        "tcp.sender.retx": sum(s.retransmissions for s in senders),
        "tcp.sender.timeouts": sum(s.timeouts for s in senders),
        "tcp.receiver.received": sum(r.packets_received for r in probe.receivers),
        "tcp.receiver.delivered": sum(
            r.packets_delivered for r in probe.receivers),
        "tcp.receiver.duplicates": sum(r.duplicates for r in probe.receivers),
        "mptcp.reassembly.delivered": sum(r.delivered for r in reassemblers),
        "mptcp.reassembly.duplicates": sum(r.duplicates for r in reassemblers),
        "hybrid.flowclass.flows": fluid_flows,
        "obs.trace.records": (
            sim.trace.events_emitted if isinstance(sim.trace, TraceBus) else 0),
        "flows": packet_flows + fluid_flows,
        "sim_s": sim.now,
    }
    if probe.monitor is not None:
        stats = probe.monitor.stats()
        counts["check.invariants.records"] = stats["events"]
        counts["check.invariants.checks"] = stats["checks"]
        counts["check.invariants.violations"] = stats["violations"]
    return counts


def row_problems(row: Optional[dict], params: Dict[str, Any]) -> List[str]:
    """Why a result row is not acceptable; empty when it is.

    Goodput must be finite and positive, Jain's index in (0, 1], a
    ``delivery_gap`` zero, ``violations`` zero where the point was
    checked, and ``aggregate_flows`` the count the point asked for.
    """
    if row is None:
        return ["no row"]
    problems = []
    goodput = next(
        (row[k] for k in ("total_pps", "m_pps", "goodput_pps") if k in row),
        None,
    )
    if not (isinstance(goodput, (int, float)) and math.isfinite(goodput)
            and goodput > 0):
        problems.append(f"goodput {goodput!r} not finite and positive")
    if "jain" in row and not 0 < row["jain"] <= 1:
        problems.append(f"jain {row['jain']!r} outside (0, 1]")
    if row.get("delivery_gap", 0) != 0:
        problems.append(f"delivery_gap {row['delivery_gap']!r}")
    if row.get("violations", 0) != 0:
        problems.append(f"violations {row['violations']!r}")
    if "aggregate_flows" in row:
        want = (int(params.get("classes", 5))
                * int(params.get("flows_per_class", 1))
                + int(params.get("tracers", 0)))
        if row["aggregate_flows"] != want:
            problems.append(
                f"aggregate_flows {row['aggregate_flows']!r} != {want}")
    return problems


# -- pool workers ------------------------------------------------------------
#: The session of this process.  The parent sets it before the runner's
#: pool forks, so workers inherit the installed hooks (and, in the traced
#: run, the span wrappers); a worker started any other way builds its own.
SESSION: Optional[Session] = None


def pool_task(spool_dir: str, traced: bool, task: TaskSpec):
    """Worker entry point standing in for the runner's: run the task under
    the probe, spool the record, return ``(wall seconds, row)`` as the
    runner expects."""
    global SESSION
    if SESSION is None:
        SESSION = Session(speed=None if traced else SpeedProbe()).install()
        if traced:
            SESSION.start_tracing()
    if SESSION.speed is not None:
        SESSION.speed.start()   # timers do not survive fork; no-op if running
    start = time.perf_counter()
    record = SESSION.run_point(task)
    wall = time.perf_counter() - start
    if record.error is not None:
        raise RuntimeError(record.error)
    path = os.path.join(spool_dir, f"task-{task.index}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record.to_json(), fh)
    os.replace(tmp, path)
    return wall, record.row
