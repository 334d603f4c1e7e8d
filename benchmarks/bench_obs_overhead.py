"""Perf — instrumentation overhead of the engine's event bus.

Not a paper artifact: quantifies what observation costs.  Four
configurations of the same visibility-protocol run are timed:

* ``baseline``      — no subscribers (the bus guard is a single falsy
  check per emission site; this must stay within noise of the
  pre-instrumentation engine),
* ``noop``          — one subscriber that discards every event (pays event
  construction + dispatch),
* ``metrics``       — a full :class:`~repro.obs.SimMetricsCollector`,
* ``probes``        — the three standard invariant probes (lenient mode).

A second section times the span tracer (``repro.obs.trace``): the
engine loop and the batch Monte Carlo kernel with tracing disabled (the
active-tracer global is ``None`` — one guard read per run, which must
stay within 1% of the loop) versus enabled (spans recorded).

Run ``python benchmarks/bench_obs_overhead.py`` to sweep and write
``BENCH_obs_overhead.json`` at the repo root.  Set ``OBS_BENCH_SMOKE=1``
for the CI smoke mode (small dimension, single repeat), which writes the
git-ignored ``BENCH_obs_overhead.smoke.json`` instead.
"""

import json
import os
import time
from pathlib import Path

from repro.protocols.visibility_protocol import run_visibility_protocol


SMOKE = bool(os.environ.get("OBS_BENCH_SMOKE"))
#: a smoke run writes a git-ignored sibling, never the committed full-mode result
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_obs_overhead.smoke.json" if SMOKE else "BENCH_obs_overhead.json"
)


def _noop(event) -> None:
    pass


def _configs():
    from repro.obs import SimMetricsCollector, standard_probes

    return {
        "baseline": lambda: None,
        "noop": lambda: [_noop],
        "metrics": lambda: [SimMetricsCollector()],
        "probes": lambda: standard_probes(mode="lenient"),
    }


def timed_run(dimension: int, make_subscribers, repeats: int = 3):
    """Best-of-``repeats`` wall time of one protocol run; returns
    ``(seconds, events_processed)``."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        subscribers = make_subscribers()
        start = time.perf_counter()
        result = run_visibility_protocol(dimension, subscribers=subscribers)
        elapsed = time.perf_counter() - start
        assert result.ok
        best = min(best, elapsed)
        events = result.event_count
    return best, events


def measure(dimension: int, repeats: int = 3):
    """Time every configuration at one dimension; returns the record dict."""
    rows = {}
    base_time = None
    for name, make in _configs().items():
        seconds, events = timed_run(dimension, make, repeats=repeats)
        if name == "baseline":
            base_time = seconds
        rows[name] = {
            "seconds": round(seconds, 6),
            "events_per_sec": round(events / seconds, 1) if seconds else None,
            "overhead_vs_baseline": (
                round(seconds / base_time, 3) if base_time else None
            ),
        }
    return {"dimension": dimension, "nodes": 1 << dimension, "configs": rows}


def timed_traced_run(dimension: int, repeats: int = 3) -> float:
    """Best-of wall time with the active tracer installed (spans on)."""
    from repro.obs import Tracer, set_active_tracer

    best = float("inf")
    for _ in range(repeats):
        previous = set_active_tracer(Tracer())
        start = time.perf_counter()
        try:
            result = run_visibility_protocol(dimension)
        finally:
            set_active_tracer(previous)
        elapsed = time.perf_counter() - start
        assert result.ok
        best = min(best, elapsed)
    return best


def guard_seconds_per_call(loops: int = 200_000) -> float:
    """Per-call cost of the disabled-path guard (``get_active_tracer``)."""
    from repro.obs.trace import get_active_tracer

    start = time.perf_counter()
    for _ in range(loops):
        get_active_tracer()
    return (time.perf_counter() - start) / loops


def measure_tracing(dimension: int, trials: int, repeats: int = 3):
    """Tracing-disabled vs tracing-enabled cost of both hot loops.

    The disabled engine loop *is* the baseline configuration (no active
    tracer), so its overhead is the guard read alone — reported as a
    fraction of the loop (two guarded call sites per run: ``Engine.run``
    and ``Strategy.run``).
    """
    from repro.fastpath.batchsim import BatchScenarioSpec, run_batch
    from repro.obs import MetricsRegistry, Tracer

    engine_off, _ = timed_run(dimension, lambda: None, repeats=repeats)
    engine_on = timed_traced_run(dimension, repeats=repeats)
    guard = guard_seconds_per_call()

    spec = BatchScenarioSpec(
        strategy="visibility",
        dimension=dimension,
        trials=trials,
        intruder="inert",
        rng_seed=3,
    )

    def timed_batch(**kwargs) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_batch(spec, **kwargs)
            elapsed = time.perf_counter() - start
            assert result.count == trials
            best = min(best, elapsed)
        return best

    batch_off = timed_batch()
    batch_on = timed_batch(metrics=MetricsRegistry(), tracer=Tracer())
    return {
        "dimension": dimension,
        "engine_loop": {
            "disabled_seconds": round(engine_off, 6),
            "enabled_seconds": round(engine_on, 6),
            "enabled_overhead_vs_disabled": round(engine_on / engine_off, 3),
            "guard_ns_per_call": round(guard * 1e9, 1),
            # two guarded sites per run; this is the whole disabled cost
            "disabled_overhead_fraction": round(2 * guard / engine_off, 6),
        },
        "batchsim": {
            "trials": trials,
            "disabled_seconds": round(batch_off, 6),
            "enabled_seconds": round(batch_on, 6),
            "enabled_overhead_vs_disabled": round(batch_on / batch_off, 3),
        },
    }


def test_unobserved_overhead_is_small():
    """The bus guard must be nearly free: an unobserved run stays within a
    generous factor of itself run twice (a pure-noise sanity bound that
    still catches accidental per-event allocation on the unobserved path).
    """
    d = 5 if SMOKE else 6
    first, _ = timed_run(d, lambda: None, repeats=2)
    second, _ = timed_run(d, lambda: None, repeats=2)
    ratio = max(first, second) / min(first, second)
    assert ratio < 3.0, f"unobserved runs diverge by {ratio:.2f}x — timer noise?"


def test_full_instrumentation_overhead_is_bounded():
    """Full metrics collection may cost real time but must stay within an
    order of magnitude of the bare engine (lenient: CI timers are noisy)."""
    d = 5 if SMOKE else 6
    record = measure(d, repeats=1 if SMOKE else 2)
    overhead = record["configs"]["metrics"]["overhead_vs_baseline"]
    assert overhead is not None and overhead < 10.0, (
        f"metrics overhead {overhead}x exceeds the 10x sanity bound"
    )


def test_probe_overhead_is_bounded():
    d = 5 if SMOKE else 6
    record = measure(d, repeats=1 if SMOKE else 2)
    overhead = record["configs"]["probes"]["overhead_vs_baseline"]
    assert overhead is not None and overhead < 10.0


def test_disabled_tracing_is_within_one_percent():
    """The zero-cost claim: with no active tracer, the instrumentation is
    one global read per guarded call site — under 1% of any engine loop."""
    d = 4 if SMOKE else 5
    record = measure_tracing(d, trials=8, repeats=1 if SMOKE else 2)
    fraction = record["engine_loop"]["disabled_overhead_fraction"]
    assert fraction < 0.01, f"disabled-tracing guard costs {fraction:.2%} of the loop"


def test_enabled_tracing_overhead_is_bounded():
    """Enabled tracing records a handful of spans per run — it may cost
    real time on the batch kernel but must stay within 2x (lenient)."""
    d = 4 if SMOKE else 5
    record = measure_tracing(d, trials=8, repeats=1 if SMOKE else 2)
    assert record["engine_loop"]["enabled_overhead_vs_disabled"] < 2.0
    assert record["batchsim"]["enabled_overhead_vs_disabled"] < 2.0


def main() -> None:
    """Sweep dimensions and write the overhead table to the JSON artifact."""
    from repro.obs import build_manifest

    dimensions = [4, 5] if SMOKE else [5, 6, 7, 8]
    repeats = 1 if SMOKE else 3
    records = [measure(d, repeats=repeats) for d in dimensions]
    for record in records:
        cfg = record["configs"]
        print(
            f"d={record['dimension']} "
            + " ".join(
                f"{name}={row['seconds'] * 1000:.1f}ms"
                f"({row['overhead_vs_baseline']}x)"
                for name, row in cfg.items()
            )
        )
    trace_d, trace_trials = (4, 8) if SMOKE else (6, 64)
    tracing = measure_tracing(trace_d, trials=trace_trials, repeats=repeats)
    engine = tracing["engine_loop"]
    batch = tracing["batchsim"]
    print(
        f"tracing d={trace_d} engine "
        f"off={engine['disabled_seconds'] * 1000:.1f}ms "
        f"on={engine['enabled_seconds'] * 1000:.1f}ms "
        f"({engine['enabled_overhead_vs_disabled']}x enabled, "
        f"{engine['disabled_overhead_fraction']:.4%} disabled guard) "
        f"| batchsim off={batch['disabled_seconds'] * 1000:.1f}ms "
        f"on={batch['enabled_seconds'] * 1000:.1f}ms "
        f"({batch['enabled_overhead_vs_disabled']}x)"
    )
    payload = {
        "benchmark": "obs_overhead",
        "description": (
            "visibility-protocol wall time under four instrumentation "
            "configurations; overhead_vs_baseline is relative to the "
            "unobserved engine (bus attached, zero subscribers)"
        ),
        "smoke": SMOKE,
        "manifest": build_manifest(extra={"benchmark": "obs_overhead"}),
        "results": records,
        "tracing": tracing,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
