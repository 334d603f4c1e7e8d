"""Tests for the metrics registry and the simulation metrics collector."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, MetricsRegistry, SimMetricsCollector, TimeSeries
from repro.obs.events import (
    CrashEvent,
    MoveEvent,
    SpawnEvent,
    TerminateEvent,
    WaitEvent,
    WakeEvent,
)
from repro.obs.report import render_report, sparkline
from repro.protocols.cloning_protocol import run_cloning_protocol
from repro.protocols.visibility_protocol import run_visibility_protocol


class TestInstruments:
    def test_counter(self):
        c = Counter("moves")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("frontier")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5

    def test_series_records_in_order(self):
        s = TimeSeries("clean", maxlen=8)
        for t in range(5):
            s.sample(float(t), t * 10)
        assert s.samples == [(0.0, 0), (1.0, 10), (2.0, 20), (3.0, 30), (4.0, 40)]

    def test_series_decimates_at_capacity(self):
        s = TimeSeries("clean", maxlen=8)
        for t in range(100):
            s.sample(float(t), t)
        assert len(s.samples) <= 8
        times = [t for t, _ in s.samples]
        assert times == sorted(times)
        # full run still covered: first sample kept, a recent one present
        assert times[0] == 0.0
        assert times[-1] >= 50.0

    def test_series_minimum_capacity(self):
        with pytest.raises(ValueError):
            TimeSeries("x", maxlen=4)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.series("c") is reg.series("c")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("moves").inc(3)
        reg.gauge("frontier").set(2)
        reg.series("clean").sample(1.0, 4)
        snap = reg.snapshot()
        assert snap["counters"] == {"moves": 3}
        assert snap["gauges"] == {"frontier": 2}
        assert snap["series"] == {"clean": [[1.0, 4]]}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("moves").inc()
        assert json.loads(reg.to_json()) == reg.snapshot()


class TestCollector:
    @pytest.fixture(scope="class")
    def collected(self):
        collector = SimMetricsCollector()
        result = run_visibility_protocol(4, subscribers=[collector])
        return collector, result

    def test_counters_match_result(self, collected):
        collector, result = collected
        counters = collector.registry.snapshot()["counters"]
        assert counters["moves_total"] == result.total_moves
        assert counters["terminations_total"] == result.terminated_agents
        # a monotone run never creates the recontamination counter
        assert "recontaminations_total" not in counters

    def test_moves_per_level_sum(self, collected):
        collector, result = collected
        counters = collector.registry.snapshot()["counters"]
        per_level = {
            k: v for k, v in counters.items() if k.startswith("moves_per_level[")
        }
        assert sum(per_level.values()) == result.total_moves

    def test_final_gauges(self, collected):
        collector, result = collected
        gauges = collector.registry.snapshot()["gauges"]
        # d=4 run ends fully decontaminated: nothing contaminated, frontier 0
        assert gauges["contaminated_nodes"] == 0
        assert gauges["frontier_size"] == 0
        assert gauges["clean_nodes"] + gauges["guarded_nodes"] == 16
        assert gauges["agents_total"] == result.team_size
        assert gauges["agents_terminated"] == result.terminated_agents
        assert gauges["sim_time"] == result.makespan

    def test_series_collected(self, collected):
        collector, _ = collected
        series = collector.registry.snapshot()["series"]
        clean = series["clean_nodes"]
        assert clean, "clean_nodes series must be sampled"
        values = [v for _, v in clean]
        # the region only grows on a monotone run
        assert values == sorted(values)

    def test_per_agent_table(self, collected):
        collector, result = collected
        snap = collector.snapshot()
        assert len(snap["per_agent"]) == result.team_size
        assert all(row["state"] == "terminated" for row in snap["per_agent"].values())
        total = sum(row["moves"] for row in snap["per_agent"].values())
        assert total == result.total_moves

    def test_clone_counter(self):
        collector = SimMetricsCollector()
        result = run_cloning_protocol(3, subscribers=[collector])
        counters = collector.registry.snapshot()["counters"]
        assert counters["clones_total"] == result.team_size - 1

    def test_sample_every_thins_series(self):
        dense = SimMetricsCollector()
        sparse = SimMetricsCollector(sample_every=8)
        run_visibility_protocol(4, subscribers=[dense, sparse])
        dense_n = len(dense.registry.series("clean_nodes").samples)
        sparse_n = len(sparse.registry.series("clean_nodes").samples)
        assert sparse_n < dense_n

    def test_sample_every_validation(self):
        with pytest.raises(ValueError):
            SimMetricsCollector(sample_every=0)


class TestCollectorStatusCounts:
    """The agent gauges are kept incrementally; they must always equal a
    recount of ``agent_states``."""

    _EVENTS = {
        "spawn": SpawnEvent,
        "wait": WaitEvent,
        "wake": WakeEvent,
        "terminate": TerminateEvent,
        "crash": CrashEvent,
        "move": lambda time, agent, node: MoveEvent(
            time, agent, node, src=0, clean_mask=1, guard_mask=2, frontier_mask=2
        ),
    }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(sorted(_EVENTS)), st.integers(-1, 5)),
            max_size=60,
        )
    )
    def test_gauges_equal_a_recount(self, stream):
        collector = SimMetricsCollector()
        gauges = collector.registry.gauge
        for step, (kind, agent) in enumerate(stream):
            collector(self._EVENTS[kind](float(step), agent, 0))
            states = list(collector.agent_states.values())
            assert gauges("agents_total").value == len(states)
            assert gauges("agents_blocked").value == states.count("blocked")
            assert gauges("agents_terminated").value == (
                states.count("terminated") + states.count("crashed")
            )
            if kind == "move":
                assert collector.registry.series("agents_blocked").last() == (
                    float(step), states.count("blocked")
                )


class TestReport:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7], width=8)
        assert len(line) == 8
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        flat = sparkline([3, 3, 3])
        assert len(set(flat)) == 1

    def test_render_report_from_live_run(self):
        collector = SimMetricsCollector()
        run_visibility_protocol(3, subscribers=[collector])
        text = render_report(collector.snapshot(), title="d=3 visibility")
        assert "d=3 visibility" in text
        assert "moves_total" in text
        assert "clean_nodes" in text
