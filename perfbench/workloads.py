"""The benchmark's workloads and the code that runs one batch of each.

A workload is a fixed batch of registered sweep points run to completion;
none has an arrival process.  The seed given to the benchmark replaces the
grid's registered seed in every point, so the same seed gives the same
inputs.  Window lengths are set here, shorter than the paper's so a batch
takes a few seconds, and are the same on every commit measured.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exp import runner as runner_mod
from repro.exp.cache import ResultCache
from repro.exp.grids import specs_for_grid
from repro.exp.runner import Runner
from repro.exp.spec import TaskSpec
from repro.harness.sweep import merge_row
from repro.obs.sinks import MemorySink
from repro.obs.trace import TraceBus
from repro.topology.scenarios import SWEEP_GRIDS

from . import probe, spans, speed


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str
    warmup: float       # simulated seconds before the measurement window
    duration: float     # simulated seconds of the measurement window
    parallel: int       # 1: serial in-process; >1: Runner pool + fresh cache
    why: str

    @property
    def default_seed(self) -> int:
        return SWEEP_GRIDS[self.grid]["seed"]

    def tasks(self, seed: int, scale: float = 1.0) -> List[TaskSpec]:
        specs = specs_for_grid(
            self.grid, seed=seed,
            warmup=self.warmup * scale, duration=self.duration * scale,
        )
        return [TaskSpec(index=i, spec=s) for i, s in enumerate(specs)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "torus_packet", "fig8_torus", warmup=1.5, duration=4.0, parallel=1,
        why="Fig 8 torus, 3 algos x 4 capacities, serial and unchecked: "
            "the packet tier (engine, queue, pipe, TCP, MPTCP, LIA) does "
            "all the work",
    ),
    Workload(
        "hybrid_1m", "fig8_torus_hybrid_1m", warmup=0.4, duration=0.8,
        parallel=1,
        why="10^6 flows as 1000 fluid classes plus 10 packet tracers, "
            "checked: the fluid kernel, flow classes and alpha dominate",
    ),
    Workload(
        "rtt_grid_pool", "fig16_rtt", warmup=4.5, duration=9.0, parallel=2,
        why="Fig 16 RTT grid, 16 points through Runner(parallel=2) and a "
            "fresh result cache: the only path through the executor",
    ),
    Workload(
        "zoo_checked", "fig8_torus_zoo", warmup=0.4, duration=0.8,
        parallel=1,
        why="Fig 8 torus over all nine controllers with the invariant "
            "monitor on: check and trace layers dominate",
    ),
)}


@dataclass
class Batch:
    """One batch of a workload: rows in grid order plus what they cost."""

    rows: List[Optional[dict]]
    records: List[Optional[probe.PointRecord]]
    wall_s: float                 # raw
    cpu_s: float                  # raw
    pool_start_s: float
    failures: Dict[int, List[str]]
    runner: Dict[str, float]
    parent_spans: Optional[dict] = None
    probe_s: float = 0.0          # speed-probe seconds inside the batch
    probe_n: int = 0
    pooled: bool = False          # points ran in pool workers

    @property
    def digest(self) -> str:
        return rows_digest(self.rows)

    def _points(self):
        return [r for r in self.records if r is not None]

    def total(self, key: str) -> float:
        return sum(r.counts.get(key, 0) for r in self._points())

    @property
    def run_s(self) -> float:
        return sum(r.run_s for r in self._points())

    @property
    def slowdown(self) -> float:
        return speed.slowdown(self.probe_s, self.probe_n)

    @property
    def net_wall_s(self) -> float:
        """Wall time less the speed probes': serial batches probe in this
        process; pool workers each lose their probe share of the time."""
        if not self.pooled:
            return self.wall_s - self.probe_s
        busy = sum(r.build_s + r.run_s + r.probe_s for r in self._points())
        return self.wall_s * (1.0 - self.probe_s / busy) if busy else self.wall_s

    # Times at the reference host speed (see speed.py).
    @property
    def scaled_wall_s(self) -> float:
        return self.net_wall_s / self.slowdown

    @property
    def scaled_cpu_s(self) -> float:
        return (self.cpu_s - self.probe_s) / self.slowdown

    @property
    def scaled_build_s(self) -> float:
        return sum(r.build_s for r in self._points()) / self.slowdown

    @property
    def scaled_run_s(self) -> float:
        return self.run_s / self.slowdown


def rows_digest(rows: List[Optional[dict]]) -> str:
    """SHA-256 of the canonical JSON of a batch's rows."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_batch(
    workload: Workload,
    tasks: List[TaskSpec],
    session: probe.Session,
    scratch: str,
) -> Batch:
    """Run every task of one batch and check each row."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if workload.parallel > 1:
        batch = _run_pool(workload, tasks, session, scratch)
    else:
        speed0 = session.speed_mark()
        records = [session.run_point(task) for task in tasks]
        speed1 = session.speed_mark()
        batch = Batch(
            rows=[None if r.row is None else merge_row(dict(t.spec.params), r.row)
                  for t, r in zip(tasks, records)],
            records=records, wall_s=0.0, cpu_s=0.0, pool_start_s=0.0,
            failures={r.index: [r.error] for r in records if r.error},
            runner={},
            probe_s=speed1[0] - speed0[0], probe_n=speed1[1] - speed0[1],
        )
    batch.wall_s = time.perf_counter() - t0
    batch.cpu_s = _cpu_seconds() - cpu0
    for task, row in zip(tasks, batch.rows):
        problems = probe.row_problems(row, task.spec.params)
        if problems:
            batch.failures.setdefault(task.index, []).extend(problems)
    return batch


def _run_pool(workload, tasks, session, scratch) -> Batch:
    """Tasks through ``Runner(parallel=N)`` with a fresh result cache.

    Workers run :func:`probe.pool_task` in place of the runner's own entry
    point and spool one record per task; the runner's ``exp.*`` events give
    the parent's view of each task."""
    spool = os.path.join(scratch, "spool")
    cache_dir = os.path.join(scratch, "cache")
    for path in (spool, cache_dir):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(spool)
    sink = MemorySink()
    mono0 = time.monotonic()
    traced = session.recorder is not None
    parent_before = session.recorder.snapshot() if traced else None
    # Workers probe the host speed themselves; a probing parent would take
    # CPU from them.
    parent_probing = session.speed is not None and session.speed.running
    if parent_probing:
        session.speed.stop()
    probe.SESSION = session
    entry = runner_mod._execute_in_worker
    runner_mod._execute_in_worker = functools.partial(
        probe.pool_task, spool, traced)
    failures: Dict[int, List[str]] = {}
    try:
        runner = Runner(
            parallel=workload.parallel, cache=ResultCache(cache_dir),
            trace=TraceBus(sinks=[sink]), timeout=120.0,
        )
        try:
            rows = runner.run([t.spec for t in tasks])
        except runner_mod.TaskError as exc:
            rows = [None] * len(tasks)
            failures[exc.task.index] = [str(exc)]
    finally:
        runner_mod._execute_in_worker = entry
        probe.SESSION = None
        if parent_probing:
            session.speed.start()
    parent_spans = None
    if traced:
        parent_spans = spans.delta(session.recorder.snapshot(), parent_before)
    records: List[Optional[probe.PointRecord]] = []
    for task in tasks:
        path = os.path.join(spool, f"task-{task.index}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                records.append(probe.PointRecord(**json.load(fh)))
        except OSError:
            records.append(None)
            failures.setdefault(task.index, []).append("no worker record")
    events = sink.events
    for ev in events:
        if ev["ev"] in ("exp.task_retry", "exp.task_failed"):
            failures.setdefault(ev["task"], []).append(
                f"{ev['ev']}: {ev.get('reason')}")
    task_wall = sum(ev["wall"] for ev in events if ev["ev"] == "exp.task_done")
    starts = [r.mono_start for r in records if r is not None]
    capacity = runner.wall * workload.parallel
    stores = sum(len(files) for _, _, files in os.walk(cache_dir))
    return Batch(
        rows=rows, records=records, wall_s=0.0, cpu_s=0.0,
        # Pool start-up: from the runner call to the first task starting in
        # a worker (CLOCK_MONOTONIC is shared across processes).
        pool_start_s=max(0.0, min(starts) - mono0) if starts else 0.0,
        failures=failures,
        runner={
            "exp.runner.tasks": sum(
                1 for ev in events if ev["ev"] == "exp.task_done"),
            "exp.runner.retries": runner.retried,
            "exp.runner.busy_frac": task_wall / capacity if capacity else 0.0,
            "exp.runner.idle_s": max(0.0, capacity - task_wall),
            "exp.cache.stores": stores,
        },
        parent_spans=parent_spans,
        probe_s=sum(r.probe_s for r in records if r is not None),
        probe_n=sum(r.probe_n for r in records if r is not None),
        pooled=True,
    )
