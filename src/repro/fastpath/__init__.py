"""Fast-path plane: content-addressed caching, batch verification,
measurement and Monte Carlo over columnar schedules.

The paper's strategies emit ``O(n log n)`` moves (Theorems 3/8), so at
large ``d`` a schedule is a sea of Python ``Move`` objects; this package
makes re-measuring and re-verifying them cheap.  It reads schedules as
:class:`~repro.core.chunkstream.ScheduleChunk` columns: a chunk stream,
or the whole schedule as one final chunk
(:func:`~repro.core.chunkstream.concat_chunks`).

* :class:`ScheduleCache` — a content-addressed on-disk store of
  schedules as chunked, CRC-protected entries (one layout), fingerprinted
  by (strategy, version tag, dimension, params, format versions), with
  atomic writes so parallel executor workers can share one directory and
  corrupt entries silently regenerating; every accessor is a view over
  the entry's chunk stream;
* :func:`batch_verify` / :func:`batch_verify_chunks` — a per-time-unit
  replay of a whole chunk or a stream with O(1)-per-move integer
  kernels, verdict-equivalent to
  :class:`~repro.analysis.verify.ScheduleVerifier`;
* :func:`measure_chunks` / :func:`measure_schedule` — the metric
  columns behind both the serial sweep and the executor's
  ``sweep_cell`` task, built in one place;
* :func:`run_batch` — the scenario-batch Monte Carlo engine: one
  columnar timeline replay per shard, thousands of intruder/delay/
  homebase scenarios scored against it in homebase-relative
  coordinates (see :mod:`repro.fastpath.batchsim`);
* :mod:`repro.fastpath.npkernels` — the bit-plane kernels, the one fast
  path: packed chunk verification of every schedule, cloning included,
  byte-identical in verdicts to the reference replay the tests compare
  it against.

Layering: this package sits between the core schedule plane and the
analysis/exec consumers — it imports ``core``/``topology``/``errors``
only, never the simulation, protocol or CLI layers (lint rule RPR220).
"""

from repro.fastpath.batchsim import (
    DELAY_KINDS,
    INTRUDER_POLICIES,
    BatchResult,
    BatchScenarioSpec,
    BatchStats,
    ScenarioTimeline,
    compile_for_spec,
    replay_order,
    run_batch,
)
from repro.fastpath.batchverify import (
    BatchVerificationReport,
    batch_verify,
    batch_verify_chunks,
)
from repro.fastpath.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ScheduleCache,
    default_cache_dir,
    fingerprint,
)
from repro.fastpath.compiled import (
    FORMAT_VERSION,
    SCHEMA_VERSION,
    decode_metadata,
    encode_metadata,
)
from repro.fastpath.measure import measure_chunks, measure_schedule

__all__ = [
    "BatchResult",
    "BatchScenarioSpec",
    "BatchStats",
    "BatchVerificationReport",
    "DELAY_KINDS",
    "INTRUDER_POLICIES",
    "ScenarioTimeline",
    "batch_verify",
    "batch_verify_chunks",
    "compile_for_spec",
    "replay_order",
    "run_batch",
    "CACHE_DIR_ENV",
    "CacheStats",
    "ScheduleCache",
    "default_cache_dir",
    "fingerprint",
    "FORMAT_VERSION",
    "SCHEMA_VERSION",
    "decode_metadata",
    "encode_metadata",
    "measure_chunks",
    "measure_schedule",
]
