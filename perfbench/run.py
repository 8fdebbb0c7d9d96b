"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload torus_packet --seed 9 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke      # seconds-long check

``--trace 0`` repeats the workload's batch until ``--seconds`` of host time
are used and prints the end-to-end metrics (medians over batches).
``--trace 1`` runs the batch once untraced and once with every layer's
entry points wrapped in spans, and prints the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (points)
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")

#: A fresh interpreter imports what any workload needs, under the speed
#: probe, and prints seconds, probe seconds and probe count.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{root!r}]; "
    "from perfbench.speed import SpeedProbe; p = SpeedProbe().start(); "
    "t = time.perf_counter(); import repro.exp.grids, repro.exp.runner; "
    "e = time.perf_counter() - t; p.stop(); print(e, p.seconds, p.count)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=None,
                    help="point seed (default: the grid's registered seed)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="host seconds of batches to measure (trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer traced run instead of end-to-end")
    ap.add_argument("--smoke", action="store_true",
                    help="windows scaled to 1/10, one batch, one import "
                         "probe: the same code path in seconds")
    return ap.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def time_imports(count: int) -> list:
    """Import seconds of ``count`` fresh interpreters, at reference speed."""
    from perfbench.speed import slowdown

    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(root=ROOT)], env=env,
            cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
        ).stdout.split()
        elapsed, probe_s, probe_n = float(out[0]), float(out[1]), int(out[2])
        samples.append((elapsed - probe_s) / slowdown(probe_s, probe_n))
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def compare(reference, batch, failures) -> None:
    """Count every point whose row or harvested counts differ from the
    reference batch's: same seed, so they must repeat exactly."""
    for i, (ref_row, row) in enumerate(zip(reference.rows, batch.rows)):
        ref_rec, rec = reference.records[i], batch.records[i]
        if ref_row != row:
            failures.setdefault(i, []).append("row differs between runs")
        if (ref_rec is None) != (rec is None) or (
                rec is not None and ref_rec.counts != rec.counts):
            failures.setdefault(i, []).append("counts differ between runs")


def safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(batches, imports) -> dict:
    """Medians over batches of times at the reference host speed
    (``setup_s`` adds the median import time)."""
    med = statistics.median
    return {
        "wall_s": med(b.scaled_wall_s for b in batches),
        "setup_s": med(imports) + med(
            b.scaled_build_s + b.pool_start_s / b.slowdown for b in batches),
        "pkts_per_s": med(
            safe_div(b.total("tcp.receiver.delivered"), b.scaled_run_s)
            for b in batches),
        "flow_s_per_s": med(
            safe_div(sum(r.counts["flows"] * r.counts["sim_s"]
                         for r in b.records if r is not None),
                     b.scaled_run_s)
            for b in batches),
        "cpu_s": med(b.scaled_cpu_s for b in batches),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(untraced, traced, layer_of, span_cost) -> dict:
    """Layer counts from the untraced batch, calls and self time from the
    traced one.  Self times are corrected for the span wrappers' cost,
    which goes to ``trace.wrapper_s``; ``other.self_s`` is run-phase time
    outside every span, so layers + wrapper + other = run phase."""
    from perfbench import spans
    from perfbench.spans import LAYERS

    run = {}
    for rec in traced.records:
        if rec is not None and rec.spans is not None:
            run = spans.add(run, rec.spans)
    # The pool workload's result cache runs in the parent, outside every
    # point's run phase; its spans are reported but not in the sum.
    parent = traced.parent_spans or {}
    calls = dict(run.get("calls", {}))
    for key, n in parent.get("calls", {}).items():
        if layer_of.get(key) == "exp.cache":
            calls[key] = calls.get(key, 0) + n
    raw = run.get("self_s", {})
    root_spans = run.get("root", [0.0, 0])[1]
    run_phase = traced.run_s
    parent_cost, own_cost = span_cost

    def layer_calls(counts, layer):
        return sum(n for key, n in counts.items() if layer_of.get(key) == layer)

    def corrected(totals, layer):
        return (totals.get("self_s", {}).get(layer, 0.0)
                - parent_cost * totals.get("children", {}).get(layer, 0)
                - own_cost * layer_calls(totals.get("calls", {}), layer))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls(calls, layer)
        out[f"{layer}.self_s"] = corrected(run, layer)
    if parent:
        out["exp.cache.self_s"] = corrected(parent, "exp.cache")
    spans_run = sum(run.get("calls", {}).values())
    out["trace.wrapper_s"] = (parent_cost + own_cost) * spans_run
    out["other.self_s"] = (
        run_phase - sum(raw.values()) - parent_cost * root_spans)
    out["trace.run_phase_s"] = run_phase
    out["trace.untraced_run_s"] = untraced.run_s
    out["trace.overhead_x"] = safe_div(run_phase, untraced.run_s)
    out["trace.span_ns"] = (parent_cost + own_cost) * 1e9

    t = untraced.total
    out["sim.engine.events"] = t("sim.engine.events")
    out["sim.engine.events_per_pkt"] = safe_div(
        t("sim.engine.events"), t("tcp.receiver.delivered"))
    out["sim.engine.tombstone_frac"] = safe_div(
        calls.get("EventHandle.cancel", 0),
        calls.get("EventScheduler.schedule_at", 0)
        + calls.get("EventScheduler.schedule_in", 0))
    out["net.queue.arrivals"] = t("net.queue.arrivals")
    out["net.queue.drop_frac"] = safe_div(
        t("net.queue.drops"), t("net.queue.arrivals"))
    out["net.pipe.deliveries"] = t("net.pipe.deliveries")
    out["tcp.sender.acks"] = calls.get("TcpSender.receive", 0)
    out["tcp.sender.sent"] = t("tcp.sender.sent")
    out["tcp.sender.retx_frac"] = safe_div(
        t("tcp.sender.retx"), t("tcp.sender.sent"))
    out["tcp.sender.timeouts"] = t("tcp.sender.timeouts")
    out["tcp.receiver.delivered"] = t("tcp.receiver.delivered")
    out["tcp.receiver.dup_frac"] = safe_div(
        t("tcp.receiver.duplicates"), t("tcp.receiver.received"))
    out["mptcp.reassembly.delivered"] = t("mptcp.reassembly.delivered")
    out["mptcp.reassembly.dup_frac"] = safe_div(
        t("mptcp.reassembly.duplicates"),
        t("mptcp.reassembly.delivered") + t("mptcp.reassembly.duplicates"))
    out["hybrid.flowclass.flows"] = t("hybrid.flowclass.flows")
    out["obs.trace.records"] = t("obs.trace.records")
    out["check.invariants.records"] = t("check.invariants.records")
    out["check.invariants.checks"] = t("check.invariants.checks")
    out["check.invariants.violations"] = t("check.invariants.violations")
    for key in ("exp.runner.tasks", "exp.runner.retries",
                "exp.runner.busy_frac", "exp.runner.idle_s",
                "exp.cache.stores"):
        out[key] = untraced.runner.get(key, 0)
    out["exp.runner.pool_start_s"] = untraced.pool_start_s
    return out


def print_layer_table(values: dict) -> None:
    """Self time per layer, as a share of the traced run phase's program
    time (run phase minus the span wrappers' own cost)."""
    from perfbench.spans import LAYERS

    run_phase = values["trace.run_phase_s"]
    program = run_phase - values["trace.wrapper_s"]
    print(f"{'layer':<20}{'self_s':>10}{'share':>8}{'calls':>12}")
    rows = [(l, values[f"{l}.self_s"], values[f"{l}.calls"]) for l in LAYERS]
    rows.append(("other", values["other.self_s"], ""))
    for name, self_s, calls in rows:
        print(f"{name:<20}{self_s:>10.3f}{safe_div(self_s, program):>8.1%}"
              f"{calls:>12}")
    print(f"{'span wrappers':<20}{values['trace.wrapper_s']:>10.3f}")
    print(f"{'run phase (traced)':<20}{run_phase:>10.3f}  "
          f"overhead x{values['trace.overhead_x']:.2f} vs untraced")


def run_workload(name: str, args, spec: dict) -> dict:
    from perfbench import probe, spans
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import WORKLOADS, run_batch

    workload = WORKLOADS[name]
    seed = workload.default_seed if args.seed is None else args.seed
    scale = 0.1 if args.smoke else 1.0
    tasks = workload.tasks(seed, scale)
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"{name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    session = probe.Session(
        speed=SpeedProbe() if args.trace == 0 else None).install()
    try:
        if args.trace == 0:
            imports = time_imports(1 if args.smoke else 5)
            session.speed.start()
            batches = []
            window_start = time.perf_counter()
            while True:
                batches.append(run_batch(workload, tasks, session, scratch))
                elapsed = time.perf_counter() - window_start
                if args.smoke or elapsed + batches[-1].wall_s > args.seconds:
                    break
        else:
            untraced = run_batch(workload, tasks, session, scratch)
            span_cost = spans.calibrate()
            session.start_tracing()
            layer_of = session.recorder.layer_of
            traced = run_batch(workload, tasks, session, scratch)
            session.stop_tracing()
            batches = [untraced, traced]
    finally:
        if session.speed is not None:
            session.speed.stop()
        session.remove()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run's scratch is still there

    failed = 0
    for k, batch in enumerate(batches):
        batch_failures = {i: list(p) for i, p in batch.failures.items()}
        if k:
            compare(batches[0], batch, batch_failures)
        for i, problems in sorted(batch_failures.items()):
            print(f"# {name} batch {k} point {i} FAILED: {'; '.join(problems)}")
        failed += len(batch_failures)
    attempted = sum(len(b.rows) for b in batches)

    if args.trace == 0:
        values = end_to_end(batches, imports)
        values["points_ok_frac"] = 1.0 - failed / attempted
        wanted = spec["end_to_end"]
    else:
        values = per_layer(untraced, traced, layer_of, span_cost)
        print_layer_table(values)
        wanted = spec["per_layer"]
    for k, batch in enumerate(batches):
        if args.trace:
            label = ("untraced", "traced")[k]
            timing = f"raw wall {batch.wall_s:.3f} s (speed probe off)"
        else:
            label = f"batch {k}"
            timing = (f"wall {batch.scaled_wall_s:.3f} s at reference speed "
                      f"(raw {batch.wall_s:.3f} s, host slowdown "
                      f"x{batch.slowdown:.3f})")
        print(f"# {name} seed={seed} {label}: {len(batch.rows)} points, "
              f"{timing}, rows sha256 {batch.digest}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for m in wanted:
        print(f"{name:<14} {m['name']:<30} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"# {name}: {len(batches)} batches, median over batches; "
          f"{failed}/{attempted} points failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no repro sources under {SRC}; run from a repository checkout")
    if not os.path.isfile(SPEC_FILE):
        fail(f"missing {SPEC_FILE}")
    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        fail(f"unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}")
    results = {}
    for name in names:
        results[name] = run_workload(name, args, spec)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
