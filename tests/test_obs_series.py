"""Unit tests for the time-series recorder and the standard probe set."""

import io
import json

import pytest

from repro.core.registry import make_controller
from repro.harness.experiment import make_flow, standard_series
from repro.net.queue import DropTailQueue
from repro.obs import SeriesRecorder, cwnd_probe, queue_depth_probe, rtt_probe
from repro.pathmgr import ManagedMptcpFlow
from repro.sim.simulation import Simulation
from repro.topology import build_two_links

pytestmark = pytest.mark.obs


class TestSeriesRecorder:
    def test_gauge_and_rate_probes_sample_together(self):
        sim = Simulation()
        counter = {"n": 0}

        def bump():
            counter["n"] += 10
            sim.schedule_in(0.1, bump)

        sim.schedule_at(0.0, bump)
        rec = SeriesRecorder(sim, interval=1.0)
        rec.add_probe("gauge", lambda: counter["n"])
        rec.add_rate_probe("rate", lambda: counter["n"])
        rec.start()
        sim.run_until(5.0)
        times, gauges = rec.series("gauge")
        _, rates = rec.series("rate")
        assert len(times) == 5
        assert gauges[0] > 0
        # 10 increments of 10 per simulated second.
        assert rec.mean("rate") == pytest.approx(100.0, rel=0.05)

    def test_warmup_samples_discarded_but_rates_rebaselined(self):
        sim = Simulation()
        counter = {"n": 0}

        def bump():
            counter["n"] += 1
            sim.schedule_in(0.01, bump)

        sim.schedule_at(0.0, bump)
        rec = SeriesRecorder(sim, interval=1.0, warmup=3.0)
        rec.add_rate_probe("rate", lambda: counter["n"])
        rec.start()
        sim.run_until(6.0)
        times, rates = rec.series("rate")
        assert all(t > 3.0 for t in times)
        # Warm-up ticks still re-baselined the counter, so the first
        # retained sample covers one interval, not four.
        assert all(r == pytest.approx(100.0, rel=0.05) for r in rates)

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            SeriesRecorder(sim, interval=0.0)
        with pytest.raises(ValueError):
            SeriesRecorder(sim, warmup=-1.0)
        rec = SeriesRecorder(sim)
        rec.add_probe("x", lambda: 1.0)
        with pytest.raises(ValueError):
            rec.add_rate_probe("x", lambda: 1)
        with pytest.raises(KeyError):
            rec.series("missing")
        with pytest.raises(ValueError):
            rec.mean("x")  # no samples yet

    def test_stop_halts_sampling(self):
        sim = Simulation()
        rec = SeriesRecorder(sim, interval=1.0)
        rec.add_probe("x", lambda: 1.0)
        rec.start()
        sim.run_until(2.5)
        rec.stop()
        sim.run_until(10.0)
        assert len(rec.rows) == 2

    def test_csv_export(self, tmp_path):
        sim = Simulation()
        rec = SeriesRecorder(sim, interval=1.0)
        rec.add_probe("a", lambda: 1.5)
        rec.add_probe("b", lambda: None)
        rec.start()
        sim.run_until(2.0)
        path = tmp_path / "s.csv"
        rec.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a,b"
        assert lines[1].endswith(",1.5,")  # None -> empty cell

    def test_jsonl_export_to_file_object(self):
        sim = Simulation()
        rec = SeriesRecorder(sim, interval=0.5)
        rec.add_probe("x", lambda: 2.0)
        rec.start()
        sim.run_until(1.0)
        buf = io.StringIO()
        rec.to_jsonl(buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows and all(r["x"] == 2.0 for r in rows)
        assert rows[0]["t"] == pytest.approx(0.5)

    def test_probe_factories(self):
        sim = Simulation()
        q = DropTailQueue(sim, 100.0, 10, jitter=0.0)

        class FakeSender:
            cwnd = 4.5
            srtt = None

        assert queue_depth_probe(q)() == 0
        assert cwnd_probe(FakeSender())() == 4.5
        assert rtt_probe(FakeSender())() is None


class TestStandardSeries:
    def test_standard_probes_for_mixed_flows(self):
        sim = Simulation(seed=2)
        sc = build_two_links(sim, 300.0, 300.0)
        tcp = make_flow(sim, sc.routes("link1"), "reno", name="t")
        multi = make_flow(sim, sc.routes("multi"), "mptcp", name="m")
        tcp.start()
        multi.start()
        queues = [sc.net.link("s1", "d1").queue, sc.net.link("s2", "d2").queue]
        rec = standard_series(
            sim, {"t": tcp, "m": multi}, queues=queues,
            interval=0.5, warmup=1.0,
        )
        sim.run_until(4.0)
        assert set(rec.probe_names) == {
            "goodput.t", "cwnd.t", "rtt.t",
            "goodput.m", "cwnd.m.sf0", "rtt.m.sf0", "cwnd.m.sf1",
            "rtt.m.sf1", "qdepth.s1->d1", "qdepth.s2->d2",
        }
        assert rec.mean("goodput.m") > 0
        assert rec.mean("cwnd.m.sf0") >= 1.0
        times, _ = rec.series("goodput.t")
        assert all(t > 1.0 for t in times)

    def test_managed_flow_gets_per_subflow_probes(self):
        sim = Simulation(seed=2)
        sc = build_two_links(sim, 300.0, 300.0)
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m")
        for i, route in enumerate(sc.routes("multi")):
            flow.add_path(route, name=f"p{i}")
        flow.start()
        rec = standard_series(sim, {"m": flow}, interval=0.5)
        sim.run_until(4.0)
        assert set(rec.probe_names) == {
            "goodput.m", "cwnd.m.sf0", "rtt.m.sf0", "cwnd.m.sf1", "rtt.m.sf1",
        }
        assert rec.mean("goodput.m") > 0
        assert rec.mean("cwnd.m.sf1") >= 1.0
