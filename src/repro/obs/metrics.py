"""Metrics registry: counters, gauges and time series — stdlib only.

:class:`MetricsRegistry` is a named bag of three instrument kinds:

* :class:`Counter` — monotonically increasing totals (moves, clones,
  recontaminations);
* :class:`Gauge` — last-value instruments (clean nodes, blocked agents);
* :class:`TimeSeries` — ``(time, value)`` samplers with bounded memory
  (stride-doubling decimation: when full, every other sample is dropped
  and the sampling stride doubles, so a series never exceeds its cap yet
  always spans the whole run).

:class:`SimMetricsCollector` is the built-in event-bus subscriber that
fills a registry with the paper's quantities — live clean / contaminated /
guarded counts, frontier size, per-agent busy/blocked state, moves per
hypercube level, recontamination events — entirely from event payloads
(masks and scalars); it holds no reference to any simulation object, so
this module stays import-clean of ``repro.sim`` (lint rule ``RPR200``).

Snapshots are plain dicts (:meth:`MetricsRegistry.snapshot`), exportable
as JSON and renderable as a sparkline report via :mod:`repro.obs.report`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import EngineEvent, MoveEvent

__all__ = ["Counter", "Gauge", "TimeSeries", "MetricsRegistry", "SimMetricsCollector"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0; counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the current value."""
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount`` (default 1) from the current value."""
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class TimeSeries:
    """Bounded ``(time, value)`` sampler with stride-doubling decimation.

    Keeps at most ``maxlen`` samples.  When the cap is hit, every other
    retained sample is dropped and the acceptance stride doubles: the
    series always covers the full run at progressively coarser resolution
    instead of silently truncating the tail — O(maxlen) memory for runs of
    any length.
    """

    __slots__ = ("name", "maxlen", "_samples", "_stride", "_pending")

    def __init__(self, name: str, maxlen: int = 512) -> None:
        if maxlen < 8:
            raise ValueError(f"series {name}: maxlen must be >= 8, got {maxlen}")
        self.name = name
        self.maxlen = maxlen
        self._samples: List[Tuple[float, float]] = []
        self._stride = 1
        self._pending = 0

    def sample(self, time: float, value: float) -> None:
        """Record ``value`` at ``time`` (subject to the current stride)."""
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        self._samples.append((time, value))
        if len(self._samples) >= self.maxlen:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """The retained ``(time, value)`` pairs, oldest first."""
        return list(self._samples)

    @property
    def values(self) -> List[float]:
        return [v for _, v in self._samples]

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent retained sample, or ``None``."""
        return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name}, n={len(self._samples)}, stride={self._stride})"


class MetricsRegistry:
    """Named counters, gauges and series with one JSON-able snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._series: Dict[str, TimeSeries] = {}

    # -- get-or-create accessors --------------------------------------- #

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def series(self, name: str, maxlen: int = 512) -> TimeSeries:
        """The time series named ``name`` (created on first use)."""
        metric = self._series.get(name)
        if metric is None:
            metric = self._series[name] = TimeSeries(name, maxlen)
        return metric

    # -- cross-process merge -------------------------------------------- #

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        The executor's telemetry merge: each worker ships its registry
        snapshot (a *delta* — workers start from an empty registry) over
        the result pipe and the parent folds them in job order, so merged
        counters are independent of completion order.  Counters add,
        gauges take the incoming value (last-write in merge order), series
        samples are replayed through the stride-decimation logic.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, samples in (snapshot.get("series") or {}).items():
            series = self.series(name)
            for t, v in samples:
                series.sample(t, v)

    # -- export --------------------------------------------------------- #

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict export of every instrument (JSON-serializable)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "series": {
                name: [[t, v] for t, v in s.samples]
                for name, s in sorted(self._series.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, series={len(self._series)})"
        )


class SimMetricsCollector:
    """Event-bus subscriber filling a registry with the paper's quantities.

    Attach to an engine (``Engine(..., subscribers=[collector])`` or
    ``engine.subscribe(collector)``); every metric is derived from event
    payloads alone.

    Parameters
    ----------
    registry:
        Destination registry; one is created when omitted.
    sample_every:
        Sampling period for the time series, in *moves* — 1 samples after
        every traversal, k > 1 reduces collection overhead k-fold on big
        runs at the cost of resolution.

    Collected
    ---------
    counters
        ``moves_total``, ``moves_per_level[k]`` (destination Hamming
        weight — the paper's level), ``clones_total``, ``waits_total``,
        ``wakes_total``, ``whiteboard_writes_total``, ``terminations_total``,
        ``crashes_total``, ``recontaminations_total``,
        ``contiguity_breaks_total``, ``phases_total``
    gauges
        ``clean_nodes``, ``guarded_nodes``, ``contaminated_nodes``,
        ``frontier_size``, ``agents_total``, ``agents_blocked``,
        ``agents_terminated``, ``sim_time``
    series
        ``clean_nodes``, ``contaminated_nodes``, ``guarded_nodes``,
        ``frontier_size``, ``agents_blocked`` — all over simulation time
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sample_every = sample_every
        self._n = 0  # network size, learned from run-start
        self._moves_seen = 0
        #: per-agent status: "active" | "blocked" | "terminated" | "crashed"
        self.agent_states: Dict[int, str] = {}
        #: number of agents per status, kept in step with ``agent_states``
        self._status_counts: Dict[str, int] = {
            "active": 0, "blocked": 0, "terminated": 0, "crashed": 0,
        }
        #: per-agent move totals
        self.agent_moves: Dict[int, int] = {}
        self._phase: str = ""

    # -- event dispatch -------------------------------------------------- #

    def __call__(self, event: EngineEvent) -> None:
        kind = event.kind
        reg = self.registry
        if kind == "move":
            assert isinstance(event, MoveEvent)
            self._on_move(event)
        elif kind == "wait":
            reg.counter("waits_total").inc()
            self._set_state(event.agent, "blocked")
        elif kind == "wake":
            reg.counter("wakes_total").inc()
            self._set_state(event.agent, "active")
        elif kind == "write":
            reg.counter("whiteboard_writes_total").inc()
        elif kind == "spawn":
            if event.agent not in self.agent_states:
                self.agent_states[event.agent] = "active"
                self._status_counts["active"] += 1
            reg.gauge("agents_total").set(len(self.agent_states))
        elif kind == "clone":
            reg.counter("clones_total").inc()
        elif kind == "terminate":
            reg.counter("terminations_total").inc()
            self._set_state(event.agent, "terminated")
        elif kind == "crash":
            reg.counter("crashes_total").inc()
            self._set_state(event.agent, "crashed")
        elif kind == "recontaminated":
            reg.counter("recontaminations_total").inc()
        elif kind == "contiguity-lost":
            reg.counter("contiguity_breaks_total").inc()
        elif kind == "phase":
            reg.counter("phases_total").inc()
            self._phase = str(event.data.get("name", ""))
        elif kind == "run-start":
            self._n = int(event.data["n"])
            reg.gauge("contaminated_nodes").set(self._n)
        elif kind == "run-end":
            reg.gauge("sim_time").set(event.time)

    def _on_move(self, event: MoveEvent) -> None:
        reg = self.registry
        reg.counter("moves_total").inc()
        reg.counter(f"moves_per_level[{event.node.bit_count()}]").inc()
        self.agent_moves[event.agent] = self.agent_moves.get(event.agent, 0) + 1
        self._set_state(event.agent, "active")
        if self._phase:
            reg.counter(f"moves_per_phase[{self._phase}]").inc()
        self._moves_seen += 1
        if self._moves_seen % self.sample_every:
            return
        clean = event.clean_mask.bit_count()
        guarded = event.guard_mask.bit_count()
        frontier = event.frontier_mask.bit_count()
        contaminated = max(self._n - clean - guarded, 0)
        blocked = self._status_counts["blocked"]
        t = event.time
        reg.gauge("clean_nodes").set(clean)
        reg.gauge("guarded_nodes").set(guarded)
        reg.gauge("contaminated_nodes").set(contaminated)
        reg.gauge("frontier_size").set(frontier)
        reg.gauge("agents_blocked").set(blocked)
        reg.gauge("sim_time").set(t)
        reg.series("clean_nodes").sample(t, clean)
        reg.series("guarded_nodes").sample(t, guarded)
        reg.series("contaminated_nodes").sample(t, contaminated)
        reg.series("frontier_size").sample(t, frontier)
        reg.series("agents_blocked").sample(t, blocked)

    def _set_state(self, agent: int, state: str) -> None:
        if agent < 0:
            return
        counts = self._status_counts
        previous = self.agent_states.get(agent)
        if previous is not None:
            counts[previous] -= 1
        counts[state] += 1
        self.agent_states[agent] = state
        reg = self.registry
        reg.gauge("agents_total").set(len(self.agent_states))
        reg.gauge("agents_blocked").set(counts["blocked"])
        reg.gauge("agents_terminated").set(counts["terminated"] + counts["crashed"])

    # -- export ----------------------------------------------------------- #

    def snapshot(self) -> Dict[str, Any]:
        """Registry snapshot plus the per-agent busy/blocked table."""
        out = self.registry.snapshot()
        out["per_agent"] = {
            str(agent): {
                "state": self.agent_states.get(agent, "active"),
                "moves": self.agent_moves.get(agent, 0),
            }
            for agent in sorted(self.agent_states)
        }
        return out
