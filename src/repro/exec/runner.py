"""Shared high-level runners: sweeps and experiment batches on the pool.

These are the entry points the CLI (``repro-search sweep/experiment
--jobs N``) and the benchmark suite share.  Each builds the job list in
the *serial* iteration order, runs it through
:class:`~repro.exec.pool.ParallelExecutor`, and merges the outcomes back
into the exact shapes the serial code paths produce
(:class:`~repro.analysis.sweeps.SweepRow` lists,
:class:`~repro.analysis.experiments.ExperimentResult` lists) — so every
renderer downstream works unchanged and a parallel run is
row-for-row comparable with a serial one.

Failure contract: a cell whose job permanently fails (crashes/timeouts
beyond the retry cap, or a task error) becomes a ``FAILED`` row/result
carrying the error text — the batch always completes and always renders
a full table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro._publish import publish_text
from repro.analysis.experiments import ExperimentResult, experiment_ids, experiment_title
from repro.analysis.sweeps import Sweep, SweepRow
from repro.exec.jobs import Job, JobOutcome
from repro.exec.pool import ExecutorConfig, ParallelExecutor
from repro.fastpath.npkernels import check_backend
from repro.obs import MetricsRegistry, build_manifest
from repro.obs.trace import Tracer

__all__ = [
    "experiment_jobs",
    "merged_manifest",
    "montecarlo_jobs",
    "parallel_experiments",
    "parallel_montecarlo",
    "parallel_sweep",
    "sweep_jobs",
    "write_merged_manifest",
]

OutcomeHook = Callable[[Job, JobOutcome], None]


# --------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------- #


def sweep_jobs(
    strategies: Sequence[str],
    dimensions: Sequence[int],
    *,
    verify: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
    chunk_moves: Optional[int] = None,
) -> List[Job]:
    """One ``sweep_cell`` job per (strategy, dimension), serial order.

    ``cache_dir`` names a shared :class:`~repro.fastpath.ScheduleCache`
    directory; every worker opens the same directory (safe: entries are
    published via atomic renames) so one cell's miss becomes every later
    run's hit.  ``chunk_moves`` sizes the workers' chunk stream
    (``None`` = the default block size).
    """
    jobs: List[Job] = []
    for name in strategies:
        for d in dimensions:
            payload: Dict[str, Any] = {
                "strategy": name,
                "dimension": int(d),
                "verify": verify,
            }
            if cache_dir is not None:
                payload["cache_dir"] = str(cache_dir)
            if chunk_moves is not None:
                payload["chunk_moves"] = int(chunk_moves)
            jobs.append(
                Job(
                    key=f"sweep:{name}:d={d}",
                    task="sweep_cell",
                    payload=payload,
                    index=len(jobs),
                )
            )
    return jobs


def parallel_sweep(
    strategies: Sequence[str],
    dimensions: Sequence[int],
    config: Optional[ExecutorConfig] = None,
    *,
    verify: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    on_outcome: Optional[OutcomeHook] = None,
    chunk_moves: Optional[int] = None,
    backend: Optional[str] = None,
) -> Tuple[Sweep, List[SweepRow], List[JobOutcome]]:
    """The parallel twin of :func:`repro.analysis.sweeps.run_sweep`.

    Returns ``(sweep, rows, outcomes)`` with one row per cell in serial
    order; permanently failed cells appear as rows with
    ``status="failed"`` and no metric values (the renderers print
    ``FAILED``).  Only the standard metric columns are supported —
    ``extra_metrics`` callables cannot be shipped to workers.
    ``chunk_moves`` rides along to every worker's cell kernel.
    ``backend`` accepts only ``None`` or ``"numpy"`` and is forwarded
    nowhere: the workers always verify with the bit-plane kernel.
    """
    check_backend(backend)
    sweep = Sweep(strategies, dimensions, verify=verify)
    jobs = sweep_jobs(
        strategies,
        dimensions,
        verify=verify,
        cache_dir=cache_dir,
        chunk_moves=chunk_moves,
    )
    executor = ParallelExecutor(config, metrics=metrics, tracer=tracer, on_outcome=on_outcome)
    outcomes = executor.run(jobs, checkpoint=checkpoint, manifest=_batch_manifest(jobs))

    rows: List[SweepRow] = []
    for job, outcome in zip(jobs, outcomes):
        dimension = int(job.payload["dimension"])
        if outcome.ok and outcome.value is not None:
            rows.append(
                SweepRow(
                    strategy=str(outcome.value["strategy"]),
                    dimension=int(outcome.value["dimension"]),
                    n=int(outcome.value["n"]),
                    values=dict(outcome.value["values"]),
                )
            )
        else:
            rows.append(
                SweepRow(
                    strategy=str(job.payload["strategy"]),
                    dimension=dimension,
                    n=1 << dimension,
                    values={},
                    status="failed",
                )
            )
    return sweep, rows, outcomes


# --------------------------------------------------------------------- #
# experiments
# --------------------------------------------------------------------- #


def experiment_jobs(
    ids: Optional[Sequence[str]] = None,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[Job]:
    """One ``experiment_cell`` job per experiment id (registry order).

    ``cache_dir`` makes each worker install a shared
    :class:`~repro.fastpath.ScheduleCache` as the process-wide active
    cache for the duration of its cell.
    """
    wanted = list(ids) if ids is not None else experiment_ids()
    jobs = []
    for index, exp_id in enumerate(wanted):
        payload: Dict[str, Any] = {"id": exp_id}
        if cache_dir is not None:
            payload["cache_dir"] = str(cache_dir)
        jobs.append(
            Job(
                key=f"experiment:{exp_id}",
                task="experiment_cell",
                payload=payload,
                index=index,
            )
        )
    return jobs


def parallel_experiments(
    ids: Optional[Sequence[str]] = None,
    config: Optional[ExecutorConfig] = None,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    on_outcome: Optional[OutcomeHook] = None,
) -> Tuple[List[ExperimentResult], List[JobOutcome]]:
    """The parallel twin of :func:`repro.analysis.experiments.run_all`.

    A permanently failed cell becomes a failed
    :class:`~repro.analysis.experiments.ExperimentResult` whose lines
    carry the executor's error text (``EXECUTOR FAILED: ...``).
    """
    jobs = experiment_jobs(ids, cache_dir=cache_dir)
    executor = ParallelExecutor(config, metrics=metrics, tracer=tracer, on_outcome=on_outcome)
    outcomes = executor.run(jobs, checkpoint=checkpoint, manifest=_batch_manifest(jobs))

    results: List[ExperimentResult] = []
    for job, outcome in zip(jobs, outcomes):
        exp_id = str(job.payload["id"])
        if outcome.ok and outcome.value is not None:
            results.append(
                ExperimentResult(
                    experiment_id=str(outcome.value["id"]),
                    title=str(outcome.value["title"]),
                    passed=bool(outcome.value["passed"]),
                    lines=[str(line) for line in outcome.value["lines"]],
                )
            )
        else:
            results.append(
                ExperimentResult(
                    experiment_id=exp_id,
                    title=experiment_title(exp_id) or "(unknown experiment)",
                    passed=False,
                    lines=[f"EXECUTOR FAILED: {outcome.error or 'unknown error'}"],
                )
            )
    return results, outcomes


# --------------------------------------------------------------------- #
# Monte Carlo campaigns
# --------------------------------------------------------------------- #


def montecarlo_jobs(spec: Any, shards: int) -> List[Job]:
    """One ``batch_cell`` job per contiguous trial window, serial order.

    The campaign's trials are split into ``shards`` near-equal windows
    ``[start, start+count)``.  Because a trial's draws are a pure
    function of the seed and the trial's index
    (:mod:`repro.fastpath.batchsim`, determinism section), the merged
    shards equal the serial run regardless of the split or the pool's
    scheduling.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    trials = int(spec.trials)
    shards = min(shards, trials) or 1
    base, remainder = divmod(trials, shards)
    jobs: List[Job] = []
    start = 0
    for index in range(shards):
        count = base + (1 if index < remainder else 0)
        payload: Dict[str, Any] = {
            "spec": spec.to_payload(),
            "start": start,
            "count": count,
        }
        jobs.append(
            Job(
                key=f"montecarlo:{spec.strategy}:d={spec.dimension}:"
                f"trials={start}..{start + count}",
                task="batch_cell",
                payload=payload,
                index=index,
            )
        )
        start += count
    return jobs


def parallel_montecarlo(
    spec: Any,
    config: Optional[ExecutorConfig] = None,
    *,
    shards: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    on_outcome: Optional[OutcomeHook] = None,
) -> Tuple[Any, List[JobOutcome]]:
    """The parallel twin of :func:`repro.fastpath.batchsim.run_batch`.

    Returns ``(result, outcomes)`` where ``result`` is the merged
    :class:`~repro.fastpath.batchsim.BatchResult` over the shards that
    succeeded.  A permanently failed shard degrades instead of crashing
    the campaign: its trials are absent from the distributions and
    counted in ``result.counters["missing_trials"]`` (plus a FAILED
    outcome), so a partial campaign still renders.
    """
    from repro.fastpath.batchsim import BatchResult

    config = config or ExecutorConfig()
    jobs = montecarlo_jobs(spec, shards or max(config.jobs, 1))
    executor = ParallelExecutor(config, metrics=metrics, tracer=tracer, on_outcome=on_outcome)
    outcomes = executor.run(jobs, checkpoint=checkpoint, manifest=_batch_manifest(jobs))

    parts = []
    missing = 0
    for job, outcome in zip(jobs, outcomes):
        if outcome.ok and outcome.value is not None:
            parts.append(BatchResult.from_payload(outcome.value))
        else:
            missing += int(job.payload["count"])
    if parts:
        result = BatchResult.merge(parts)
    else:
        result = BatchResult(spec=spec, start=0)
    if missing:
        result.counters["missing_trials"] = result.counters.get("missing_trials", 0) + missing
    return result, outcomes


# --------------------------------------------------------------------- #
# merged manifests
# --------------------------------------------------------------------- #


def merged_manifest(
    outcomes: Sequence[JobOutcome], *, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One ``repro-manifest/v1`` record summarizing a whole batch.

    The per-cell provenance (key, status, attempts, duration, cache hit)
    is folded into ``extra["cells"]`` so a single artifact answers both
    "what produced this table?" and "which cells were retried or
    failed?".
    """
    cells = []
    for o in outcomes:
        cell = {
            "key": o.key,
            "status": o.status.value,
            "attempts": o.attempts,
            "duration": round(o.duration, 6),
            "cached": o.cached,
            "error": o.error,
        }
        if isinstance(o.value, dict) and "cache" in o.value:
            # schedule-cache provenance reported by the task itself
            # (fingerprint, hit-or-generated, worker-local counters)
            cell["schedule_cache"] = o.value["cache"]
        cells.append(cell)
    merged_extra: Dict[str, Any] = {
        "cells": cells,
        "failed": sum(1 for o in outcomes if not o.ok),
        "retried": sum(1 for o in outcomes if o.attempts > 1),
    }
    if extra:
        merged_extra.update(extra)
    return build_manifest(extra=merged_extra)


def write_merged_manifest(
    path: Union[str, Path],
    outcomes: Sequence[JobOutcome],
    *,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write :func:`merged_manifest` as pretty JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(merged_manifest(outcomes, extra=extra), indent=2, sort_keys=True) + "\n"
    # Publish atomically: a concurrent reader (or a crash mid-write) sees
    # either the previous manifest or this one, never a truncated file.
    publish_text(target, payload)
    return target


def _batch_manifest(jobs: Sequence[Job]) -> Dict[str, Any]:
    """The run-level manifest a checkpoint is keyed by."""
    return build_manifest(extra={"jobs": [job.key for job in jobs]})
