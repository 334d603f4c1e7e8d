"""Outside-in tracing for the end-to-end benchmark's traced run.

The benchmark does not rely on spans inside the program.  It wraps, from
here, the public calls each layer is entered through, records one span per
call on the process-wide :class:`repro.obs.trace.Tracer`, and reads every
layer's self time back with :func:`repro.obs.trace.self_times`.

Rules the wrappers keep:

* A call that returns an iterator gets a span for the call and one span
  per ``next()``.  No span stays open across a ``yield``: the chunk
  pipeline's generators interleave (verifier pulls cache pulls producer),
  so a span held open across a yield would swallow its consumer's time.
  For the same reason the cache's own stream span is switched off
  (``ScheduleCache.bind_tracer`` becomes a no-op while tracing).
* Counters are recorded where the work happens, as span attributes
  (chunk sizes, cache-counter deltas, verifier moves, batch counters), so
  executor workers ship them back inside their spans.  Workers inherit the
  wrappers through ``fork`` and their spans arrive through the executor's
  telemetry merge.
* Engine subscribers run once per event, too often for a span each: their
  time is summed and recorded, with the event count, as one
  ``obs.subscribers`` child of the ``engine.run`` span they ran under.
"""

from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import get_active_tracer, self_times

#: the layers, named after the modules they time
LAYERS = (
    "core.producer",
    "fastpath.cache",
    "fastpath.verify",
    "analysis.measure",
    "fastpath.batchsim",
    "exec",
    "sim.engine",
    "obs.subscribers",
)

#: spans the program records itself, by the layer they belong to
_PROGRAM_SPANS = {
    "strategy.run": "core.producer",
    "engine.run": "sim.engine",
    "worker.job": "exec",
}

#: ``exec.attempt`` repeats its ``exec.job`` parent's interval; counting
#: both would double the executor's time
_DROPPED_SPANS = frozenset({"exec.attempt"})

_POLICIES = ("reachable", "inert", "walker")


def layer_of(span_name: str) -> Optional[str]:
    """The layer a span name belongs to (``None``: benchmark bookkeeping)."""
    if span_name in _PROGRAM_SPANS:
        return _PROGRAM_SPANS[span_name]
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return None


def _stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


class _SpannedIterator:
    """An iterator whose every ``next()`` is its own span."""

    def __init__(
        self,
        name: str,
        inner: Iterator[Any],
        attrs: Callable[[Any], Dict[str, Any]],
        probe: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        self._name = name
        self._inner = inner
        self._attrs = attrs
        self._probe = probe

    def __iter__(self) -> "_SpannedIterator":
        return self

    def __next__(self) -> Any:
        tracer = get_active_tracer()
        if tracer is None:
            return next(self._inner)
        before = self._probe() if self._probe else {}
        exhausted = False
        with tracer.span(self._name) as span:
            try:
                item = next(self._inner)
            except StopIteration:
                exhausted = True
            else:
                span.attrs.update(self._attrs(item))
            if self._probe:
                span.attrs.update(_stats_delta(before, self._probe()))
        if exhausted:
            raise StopIteration
        return item


def _no_attrs(*_: Any) -> Dict[str, Any]:
    return {}


def _spanned_call(
    name: str,
    fn: Callable[..., Any],
    attrs: Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, Any]] = _no_attrs,
) -> Callable[..., Any]:
    """``fn`` inside a span named ``name``; ``attrs(args, kwargs, result)``
    annotates the span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = get_active_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            span.attrs.update(attrs(args, kwargs, result))
            return result

    return wrapper


def _cache_call(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """A ``ScheduleCache`` method; the span carries the counter deltas."""

    @functools.wraps(fn)
    def wrapper(cache: Any, *args: Any, **kwargs: Any) -> Any:
        tracer = get_active_tracer()
        if tracer is None:
            return fn(cache, *args, **kwargs)
        before = cache.stats.as_dict()
        with tracer.span(name) as span:
            result = fn(cache, *args, **kwargs)
            span.attrs.update(_stats_delta(before, cache.stats.as_dict()))
            return result

    return wrapper


def _cache_stream(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(cache: Any, *args: Any, **kwargs: Any) -> Any:
        inner = _cache_call("fastpath.cache.stream_chunks", fn)(cache, *args, **kwargs)
        return _SpannedIterator(
            "fastpath.cache.next", iter(inner), _no_attrs, cache.stats.as_dict
        )

    return wrapper


def _producer_chunks(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(strategy: Any, hypercube: Any, *args: Any, **kwargs: Any) -> Any:
        inner = _spanned_call("core.producer.generate_chunks", fn)(
            strategy, hypercube, *args, **kwargs
        )
        # a strategy without an exact team prediction materializes through
        # ``generate`` (whose span counts the moves) and only re-slices here
        native = strategy.expected_team_size(hypercube.d) is not None

        def attrs(chunk: Any) -> Dict[str, Any]:
            return {"chunks": 1, "moves": len(chunk) if native else 0}

        return _SpannedIterator("core.producer.next", iter(inner), attrs)

    return wrapper


def _verify_attrs(args: Any, kwargs: Any, report: Any) -> Dict[str, Any]:
    return {"moves": report.total_moves, "violations": 0 if report.ok else 1}


def _batch_attrs(args: Any, kwargs: Any, result: Any) -> Dict[str, Any]:
    return {"policy": args[0].intruder, "trials": result.count, **result.counters}


class Instrumentation:
    """Installs the wrappers for one traced run and removes them again.

    Use as a context manager around the traced repetitions; the wrappers
    are inert unless a tracer is active.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        self._subscriber_seconds = 0.0
        self._events = 0

    # -- patching ------------------------------------------------------- #

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, original: Any, replacement: Any) -> None:
        """Rebind ``original`` in every ``repro`` module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def __enter__(self) -> "Instrumentation":
        from repro.analysis import sweeps
        from repro.core.strategy import Strategy, get_strategy, available_strategies
        from repro.exec import runner
        from repro.fastpath import ScheduleCache, batchsim, batchverify, measure
        from repro.obs import SimMetricsCollector
        from repro.obs.probes import ContiguityProbe, GuardCoverageProbe, MonotonicityProbe
        from repro.protocols import clean_protocol, cloning_protocol, visibility_protocol

        functions = [
            (sweeps.measure_cell, "analysis.measure.measure_cell", _no_attrs),
            (measure.measure_schedule, "analysis.measure.measure_schedule", _no_attrs),
            (measure.measure_chunks, "analysis.measure.measure_chunks", _no_attrs),
            (batchverify.batch_verify, "fastpath.verify.batch_verify", _verify_attrs),
            (
                batchverify.batch_verify_chunks,
                "fastpath.verify.batch_verify_chunks",
                _verify_attrs,
            ),
            (batchsim.run_batch, "fastpath.batchsim.run_batch", _batch_attrs),
            (batchsim.compile_for_spec, "fastpath.batchsim.compile", _no_attrs),
            (runner.parallel_sweep, "exec.parallel_sweep", _no_attrs),
        ]
        for fn, name, attrs in functions:
            self._patch_function(fn, _spanned_call(name, fn, attrs))
        for module, attr in (
            (clean_protocol, "run_clean_protocol"),
            (visibility_protocol, "run_visibility_protocol"),
            (cloning_protocol, "run_cloning_protocol"),
        ):
            fn = getattr(module, attr)
            self._patch_function(fn, self._protocol_runner(fn))

        self._patch(Strategy, "generate_chunks", _producer_chunks(Strategy.generate_chunks))
        # each class that defines ``generate`` once, however many registered
        # strategies inherit it
        owners = {
            next(k for k in type(get_strategy(name)).__mro__ if "generate" in k.__dict__)
            for name in available_strategies()
        }
        for owner in sorted(owners, key=lambda k: k.__qualname__):
            self._patch(owner, "generate", _spanned_call(
                "core.producer.generate",
                owner.__dict__["generate"],
                lambda args, kwargs, schedule: {"moves": len(schedule)},
            ))
        self._patch(ScheduleCache, "load_compiled", _cache_call(
            "fastpath.cache.load_compiled", ScheduleCache.load_compiled
        ))
        self._patch(ScheduleCache, "store", _cache_call("fastpath.cache.store", ScheduleCache.store))
        self._patch(ScheduleCache, "stream_chunks", _cache_stream(ScheduleCache.stream_chunks))
        self._patch(ScheduleCache, "bind_tracer", lambda cache, tracer: None)
        timeline = batchsim.ScenarioTimeline
        self._patch(timeline, "__init__", _spanned_call(
            "fastpath.batchsim.timeline", timeline.__init__
        ))
        self._patch(timeline, "walker_support", self._first_call(
            "fastpath.batchsim.timeline.walker_support", timeline.walker_support
        ))
        for cls in (SimMetricsCollector, MonotonicityProbe, ContiguityProbe, GuardCoverageProbe):
            self._patch(cls, "__call__", self._subscriber(cls.__call__, cls is SimMetricsCollector))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _first_call(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A memoizing method, spanned only on its first call per object:
        the walker policy asks for the memo once per observed move."""
        traced = _spanned_call(name, fn)
        seen: "weakref.WeakSet[Any]" = weakref.WeakSet()

        @functools.wraps(fn)
        def wrapper(obj: Any) -> Any:
            if obj in seen:
                return fn(obj)
            seen.add(obj)
            return traced(obj)

        return wrapper

    # -- engine subscribers --------------------------------------------- #

    def _subscriber(self, fn: Callable[..., Any], counts_events: bool) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(subscriber: Any, event: Any) -> Any:
            started = perf_counter()
            try:
                return fn(subscriber, event)
            finally:
                self._subscriber_seconds += perf_counter() - started
                self._events += counts_events

        return wrapper

    def _protocol_runner(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = _spanned_call("sim.engine.protocol", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = get_active_tracer()
            if tracer is None:
                return fn(*args, **kwargs)
            self._subscriber_seconds = 0.0
            self._events = 0
            first = len(tracer.spans)
            result = traced(*args, **kwargs)
            for engine in (s for s in tracer.spans[first:] if s.name == "engine.run"):
                tracer.record_span(
                    "obs.subscribers",
                    start=engine.start,
                    end=engine.start + self._subscriber_seconds,
                    parent=engine,
                    events=self._events,
                )
            return result

        return wrapper


# --------------------------------------------------------------------- #
# reading the spans back
# --------------------------------------------------------------------- #


def kept_records(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The span records the layer split is computed from.

    ``exec.attempt`` spans are dropped and their children re-parented to
    the ``exec.job`` above them.
    """
    dropped = {r["span"]: r.get("parent") for r in records if r["name"] in _DROPPED_SPANS}
    kept = []
    for record in records:
        if record["name"] in _DROPPED_SPANS:
            continue
        parent = record.get("parent")
        while parent in dropped:
            parent = dropped[parent]
        kept.append({**record, "parent": parent})
    return kept


def _subtree(records: Sequence[Dict[str, Any]], root: Dict[str, Any]) -> List[Dict[str, Any]]:
    inside = {root["span"]}
    out = [root]
    for record in records:  # creation order: parents precede children
        if record.get("parent") in inside and record is not root:
            inside.add(record["span"])
            out.append(record)
    return out


def _attr_sum(records: Sequence[Dict[str, Any]], name: str, key: str) -> float:
    return float(sum((r.get("attrs") or {}).get(key, 0) for r in records if r["name"] == name))


def layer_metrics(
    kept: Sequence[Dict[str, Any]], reps: int
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics of ``reps`` traced repetitions, from the
    :func:`kept_records` of their spans.

    Times are shares (percent) of the traced busy time: the sum of every
    span's self time, which is the wall time for a serial workload and the
    time summed over processes for ``warm-sweep``.  Counts are per
    repetition.  Also returns the span names whose self time belongs to
    no layer, largest first.
    """
    per_name = self_times(kept)
    busy = sum(seconds for _, seconds, _ in per_name) or 1.0
    layer_seconds = {layer: 0.0 for layer in LAYERS}
    unaccounted: List[Tuple[str, float]] = []
    for name, seconds, _ in per_name:
        layer = layer_of(name)
        if layer is None:
            unaccounted.append((name, seconds))
        else:
            layer_seconds[layer] += seconds

    def pct(seconds: float) -> float:
        return 100.0 * seconds / busy

    def per_rep(name: str, key: str) -> float:
        return _attr_sum(kept, name, key) / reps

    named = {name: seconds for name, seconds, _ in per_name}
    metrics: Dict[str, float] = {
        f"{layer}.self_pct": pct(seconds) for layer, seconds in layer_seconds.items()
    }
    metrics["trace.unaccounted_pct"] = pct(sum(seconds for _, seconds in unaccounted))
    metrics["trace.busy_s"] = busy / reps

    metrics["core.producer.chunks"] = per_rep("core.producer.next", "chunks")
    metrics["core.producer.moves"] = per_rep("core.producer.next", "moves") + per_rep(
        "core.producer.generate", "moves"
    )
    for counter in ("hits", "misses", "stores", "chunk_hits", "chunk_stores", "corrupt"):
        metrics[f"fastpath.cache.{counter}"] = sum(
            per_rep(name, counter)
            for name in (
                "fastpath.cache.load_compiled",
                "fastpath.cache.store",
                "fastpath.cache.stream_chunks",
                "fastpath.cache.next",
            )
        )
    lookups = metrics["fastpath.cache.hits"] + metrics["fastpath.cache.misses"]
    metrics["fastpath.cache.hit_ratio"] = metrics["fastpath.cache.hits"] / lookups if lookups else 0.0
    for key in ("moves", "violations"):
        metrics[f"fastpath.verify.{key}"] = per_rep(
            "fastpath.verify.batch_verify", key
        ) + per_rep("fastpath.verify.batch_verify_chunks", key)

    batch = "fastpath.batchsim.run_batch"
    metrics["fastpath.batchsim.compile_pct"] = pct(named.get("fastpath.batchsim.compile", 0.0))
    metrics["fastpath.batchsim.timeline_pct"] = pct(
        named.get("fastpath.batchsim.timeline", 0.0)
        + named.get("fastpath.batchsim.timeline.walker_support", 0.0)
    )
    metrics["fastpath.batchsim.score_pct"] = pct(named.get(batch, 0.0))
    for policy in _POLICIES:
        seconds = 0.0
        for root in (r for r in kept if r["name"] == batch):
            if (root.get("attrs") or {}).get("policy") == policy:
                seconds += sum(
                    s
                    for n, s, _ in self_times(_subtree(kept, root))
                    if layer_of(n) == "fastpath.batchsim"
                )
        metrics[f"fastpath.batchsim.{policy}.self_pct"] = pct(seconds)
    built = per_rep(batch, "timelines_built")
    reused = per_rep(batch, "timelines_reused")
    metrics["fastpath.batchsim.timelines_built"] = built
    metrics["fastpath.batchsim.timelines_reused"] = reused
    metrics["fastpath.batchsim.timeline_reuse_ratio"] = (
        reused / (built + reused) if built + reused else 0.0
    )
    for counter in ("inert_seed_evals", "inert_seed_cached", "walker_observations"):
        metrics[f"fastpath.batchsim.{counter}"] = per_rep(batch, counter)

    jobs = [r for r in kept if r["name"] == "exec.job"]
    job_seconds = sum(float(r.get("duration") or 0.0) for r in jobs)
    cell_seconds = sum(
        float(r.get("duration") or 0.0)
        for r in kept
        if jobs and r["name"] == "analysis.measure.measure_cell"
    )
    sweeps = [r for r in kept if r["name"] == "exec.parallel_sweep"]
    sweep_seconds = sum(float(r.get("duration") or 0.0) for r in sweeps)
    workers = max(((r.get("attrs") or {}).get("workers", 1) for r in kept if r["name"] == "exec.run"), default=1)
    metrics["exec.jobs"] = len(jobs) / reps
    metrics["exec.attempts"] = per_rep("exec.job", "attempts")
    metrics["exec.failed"] = sum(1 for r in jobs if r.get("status") != "ok") / reps
    metrics["exec.utilization"] = job_seconds / (sweep_seconds * workers) if sweep_seconds else 0.0
    metrics["exec.overhead_pct"] = (
        100.0 * (job_seconds - cell_seconds) / job_seconds if job_seconds else 0.0
    )

    metrics["sim.engine.moves"] = per_rep("engine.run", "moves")
    metrics["obs.subscribers.events"] = per_rep("obs.subscribers", "events")
    return metrics, sorted(unaccounted, key=lambda item: -item[1])

