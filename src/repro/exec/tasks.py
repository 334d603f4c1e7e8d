"""Built-in executor tasks: sweep cells, experiment cells, test probes.

Every task is a top-level function taking ``(payload, ctx)`` and
returning a JSON-able dict, registered by name so a worker process can
resolve it without unpickling closures (see :mod:`repro.exec.jobs`).

The two production tasks mirror the serial code paths exactly:

* ``sweep_cell`` runs one (strategy, dimension) measurement the same way
  :meth:`repro.analysis.sweeps.Sweep.run` does — generate, optionally
  verify, collect the standard metric columns;
* ``experiment_cell`` regenerates one EXPERIMENTS.md artifact via
  :func:`repro.analysis.experiments.run_experiment`.

The remaining tasks exist for the fault-tolerance tests and the CI crash
drill: ``sleep`` (timeout handling), ``crash`` (a worker that SIGKILLs
itself for the first ``crash_times`` attempts, then succeeds — the
canonical "worker dies mid-job" probe), ``fail`` (a deterministic task
exception) and ``echo``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict

from repro.exec.jobs import TaskContext, register_task

__all__ = [
    "batch_cell",
    "experiment_cell",
    "sweep_cell",
]

#: Environment hook for fault drills: ``REPRO_EXEC_INJECT_CRASH=<job key>``
#: makes the worker SIGKILL itself on the *first* attempt of that job (an
#: optional ``::<k>`` suffix crashes the first ``k`` attempts).  Used by the
#: CI smoke run to prove a killed cell is requeued and retried.
CRASH_ENV = "REPRO_EXEC_INJECT_CRASH"


def maybe_inject_crash(key: str, attempt: int) -> None:
    """Honour :data:`CRASH_ENV` — called by the worker before every task."""
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return
    target, _, times = spec.partition("::")
    crash_until = int(times) if times else 1
    if key == target and attempt < crash_until:
        os.kill(os.getpid(), signal.SIGKILL)


@register_task("sweep_cell")
def sweep_cell(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """One (strategy, dimension) cell of a sweep grid.

    Payload: ``strategy`` (registry name), ``dimension`` (int), ``verify``
    (bool, default true), ``cache_dir`` (optional path to a shared
    :class:`~repro.fastpath.ScheduleCache` directory — safe across
    concurrent workers thanks to its atomic writes) and ``chunk_moves``
    (optional int block size of the cell's chunk stream).  Returns the
    flat row data the serial :class:`~repro.analysis.sweeps.Sweep` would
    produce for this cell — both paths call the same
    :func:`~repro.analysis.sweeps.measure_cell` kernel, so they cannot
    drift — plus cache provenance and counters when a cache is in play.
    A verification failure raises (→ a ``FAILED`` outcome), matching the
    serial sweep's refusal to report numbers from a broken schedule.
    """
    from pathlib import Path

    from repro.analysis.sweeps import measure_cell
    from repro.core.chunkstream import DEFAULT_CHUNK_MOVES
    from repro.fastpath import ScheduleCache

    name = str(payload["strategy"])
    dimension = int(payload["dimension"])
    cache_dir = payload.get("cache_dir")
    cache = ScheduleCache(Path(str(cache_dir))) if cache_dir else None
    if cache is not None:
        # Mirror cache hit/miss/publish into the worker's telemetry sinks
        # (both Nones when capture is off — bind() accepts that).
        cache.bind_metrics(ctx.metrics)
        cache.bind_tracer(ctx.tracer)
    values, _, provenance = measure_cell(
        name,
        dimension,
        verify=bool(payload.get("verify", True)),
        cache=cache,
        chunk_moves=int(payload.get("chunk_moves", DEFAULT_CHUNK_MOVES)),
    )
    out: Dict[str, Any] = {
        "strategy": name,
        "dimension": dimension,
        "n": 1 << dimension,
        "values": values,
    }
    if cache is not None:
        out["cache"] = {**provenance, "stats": cache.stats.as_dict()}
    return out


@register_task("experiment_cell")
def experiment_cell(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """Regenerate one paper artifact (payload: ``id``).

    An optional ``cache_dir`` installs a shared
    :class:`~repro.fastpath.ScheduleCache` as the worker's active cache
    for the duration of the cell, so every ``Strategy.run`` inside the
    experiment is served warm when possible.
    """
    from repro.analysis.experiments import run_experiment

    cache_dir = payload.get("cache_dir")
    cache = None
    if cache_dir:
        from pathlib import Path

        from repro.core.strategy import set_active_cache
        from repro.fastpath import ScheduleCache

        cache = ScheduleCache(Path(str(cache_dir)))
        cache.bind_metrics(ctx.metrics)
        cache.bind_tracer(ctx.tracer)
        previous = set_active_cache(cache)
        try:
            result = run_experiment(str(payload["id"]))
        finally:
            set_active_cache(previous)
    else:
        result = run_experiment(str(payload["id"]))
    out: Dict[str, Any] = {
        "id": result.experiment_id,
        "title": result.title,
        "passed": result.passed,
        "lines": list(result.lines),
    }
    if cache is not None:
        out["cache"] = {"stats": cache.stats.as_dict()}
    return out


@register_task("batch_cell")
def batch_cell(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """One shard of a Monte Carlo campaign (payload: ``spec``, ``start``,
    ``count``).

    Runs trials ``[start, start+count)`` of the
    :class:`~repro.fastpath.batchsim.BatchScenarioSpec` through
    :func:`~repro.fastpath.batchsim.run_batch`.  A trial's draws are a
    pure function of the spec's seed and the trial's index, so the
    merged shards equal the serial campaign trial-for-trial no matter
    how the pool schedules them.  Returns the shard's columnar
    :class:`~repro.fastpath.batchsim.BatchResult` payload (JSON-able),
    including the worker-local ``fastpath.batchsim.*`` counters.
    """
    from repro.fastpath.batchsim import BatchScenarioSpec, run_batch

    spec = BatchScenarioSpec.from_payload(dict(payload["spec"]))
    result = run_batch(
        spec,
        start=int(payload["start"]),
        count=int(payload["count"]),
        metrics=ctx.metrics,
        tracer=ctx.tracer,
    )
    return result.to_payload()


@register_task("echo")
def echo(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """Return the payload unchanged (plus the attempt that served it)."""
    return {**payload, "attempt": ctx.attempt}


@register_task("sleep")
def sleep(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """Sleep ``seconds`` then echo — the timeout-handling probe."""
    time.sleep(float(payload.get("seconds", 0.0)))
    return {"slept": payload.get("seconds", 0.0), "attempt": ctx.attempt}


@register_task("fail")
def fail(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """Raise deterministically (payload: ``message``)."""
    raise RuntimeError(str(payload.get("message", "task failed")))


@register_task("crash")
def crash(payload: Dict[str, Any], ctx: TaskContext) -> Dict[str, Any]:
    """SIGKILL the worker for the first ``crash_times`` attempts.

    The parent sees a dead worker with no result — exactly what a real
    mid-job crash looks like — and must requeue the job on a fresh
    worker.  From attempt ``crash_times`` onward the task succeeds.
    """
    crash_times = int(payload.get("crash_times", 1))
    if ctx.attempt < crash_times:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"survived_after": ctx.attempt, **{k: v for k, v in payload.items() if k != "crash_times"}}
