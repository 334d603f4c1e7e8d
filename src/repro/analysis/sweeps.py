"""Declarative parameter sweeps over strategies and dimensions.

The benches and examples repeatedly build "for each strategy × dimension,
measure X" tables; this module centralizes that: a :class:`Sweep` runs the
cross product, verifies every schedule (optionally), collects the standard
metric columns, and renders to rows / CSV / aligned text.  The CLI's
``sweep`` verb and the ``examples/overhead_study.py`` script are thin
wrappers around it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.verify import verify_schedule
from repro.core.chunkstream import DEFAULT_CHUNK_MOVES, ScheduleChunk
from repro.core.schedule import Schedule
from repro.core.strategy import get_strategy
from repro.errors import ReproError
from repro.fastpath import (
    CompiledSchedule,
    ScheduleCache,
    batch_verify,
    batch_verify_chunks,
    measure_chunks,
    measure_schedule,
)
from repro.fastpath.npkernels import check_backend

__all__ = ["SweepRow", "Sweep", "run_sweep", "measure_cell"]

#: the standard measured columns, in render order
STANDARD_COLUMNS = ("agents", "moves", "agent_moves", "sync_moves", "steps")

#: dimensions at or above this stream by default: a materialized d=16
#: schedule is ~1M ``Move`` objects (hundreds of MB); the chunk pipeline
#: holds one block at a time
STREAM_DIMENSION_THRESHOLD = 16


@dataclass(frozen=True)
class SweepRow:
    """One (strategy, dimension) measurement.

    ``status`` is ``"ok"`` for a measured cell; the parallel executor
    (:mod:`repro.exec`) reports a permanently failing cell as a row with
    ``status="failed"`` and no metric values, which the renderers print
    as ``FAILED`` — a broken cell degrades to a table entry, never to a
    traceback or a hole in the grid.
    """

    strategy: str
    dimension: int
    n: int
    values: Dict[str, float] = field(default_factory=dict)
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_flat_dict(self) -> Dict[str, object]:
        """One flat mapping per row (the CSV writer's input).

        The ``status`` key is present only on non-ok rows, keeping the
        serial sweep's flat shape (and its CSV) unchanged.
        """
        out: Dict[str, object] = {
            "strategy": self.strategy,
            "d": self.dimension,
            "n": self.n,
        }
        out.update(self.values)
        if not self.ok:
            out["status"] = self.status
        return out


def measure_cell(
    name: str,
    dimension: int,
    *,
    verify: bool = True,
    cache: Optional[ScheduleCache] = None,
    stream: Optional[bool] = None,
    chunk_moves: int = DEFAULT_CHUNK_MOVES,
    backend: Optional[str] = None,
) -> tuple[Dict[str, float], object, Dict[str, object]]:
    """One (strategy, dimension) measurement — the single cell kernel.

    Shared by the serial :meth:`Sweep.run` loop and the executor's
    ``sweep_cell`` task, so the two paths cannot drift.  Returns
    ``(values, schedule_like, provenance)``:

    * ``values`` — the :data:`STANDARD_COLUMNS` metric dict,
    * ``schedule_like`` — a :class:`~repro.core.schedule.Schedule` on the
      cache-less path, a :class:`~repro.fastpath.CompiledSchedule` on the
      cached one (callers needing real moves decompile on demand), and
      the final :class:`~repro.core.chunkstream.ScheduleChunk` on the
      streaming path (the whole schedule was never resident),
    * ``provenance`` — empty without a cache; with one, the entry
      fingerprint and whether it was served from ``"cache"`` or
      ``"generated"``.

    ``stream`` selects the bounded-memory chunk pipeline: generation (or
    the cache's chunked warm path), verification and measurement all
    fold chunk by chunk, holding ``O(chunk_moves)`` moves at any moment.
    The default (``None``) streams at ``d >=``
    :data:`STREAM_DIMENSION_THRESHOLD`, where materialized schedules
    stop fitting comfortably in memory; the verdicts and metric values
    are identical either way.

    With a cache, verification uses the columnar batch verifier on both
    the cold and warm paths (same verdict either way, and re-verifying a
    warm entry guards against anything the CRC cannot see); without one,
    the classic replay verifier runs exactly as before — except when
    streaming, which always uses the chunked batch verifier.  A
    verification failure raises :class:`~repro.errors.ReproError` — a
    sweep refuses to report numbers from a broken schedule.

    The columnar verifier runs the bit-plane kernel on non-cloning
    schedules.  ``backend`` accepts only ``None`` or ``"numpy"`` (the
    name of that kernel) and changes nothing; any other value raises
    :class:`~repro.errors.ScheduleError`.
    """
    check_backend(backend)
    strategy = get_strategy(name)
    if stream is None:
        stream = dimension >= STREAM_DIMENSION_THRESHOLD
    if stream:
        return _measure_cell_streaming(
            name, strategy, dimension, verify, cache, chunk_moves
        )
    if cache is not None:
        fp, compiled = cache.load_compiled(strategy, dimension)
        provenance: Dict[str, object] = {"fingerprint": fp, "source": "cache"}
        if compiled is None:
            provenance["source"] = "generated"
            from repro.topology.hypercube import Hypercube

            compiled = CompiledSchedule.from_schedule(
                strategy.generate(Hypercube(dimension))
            )
            cache.store(fp, compiled)
        if verify:
            report = batch_verify(compiled)
            if not report.ok:
                raise ReproError(
                    f"{name} d={dimension} failed verification: {report.summary()}"
                )
        return measure_schedule(compiled), compiled, provenance
    schedule = strategy.run(dimension)
    if verify:
        report = verify_schedule(schedule)
        if not report.ok:
            raise ReproError(
                f"{name} d={dimension} failed verification: {report.summary()}"
            )
    return measure_schedule(schedule), schedule, {}


def _measure_cell_streaming(
    name: str,
    strategy,
    dimension: int,
    verify: bool,
    cache: Optional[ScheduleCache],
    chunk_moves: int,
) -> tuple[Dict[str, float], object, Dict[str, object]]:
    """The chunked cell kernel: one pass, one resident block.

    The chunk stream flows through the verifier while a one-slot tap
    captures the final chunk; measurement then folds from its cumulative
    aggregate block — generate/verify/measure without the schedule ever
    existing whole.
    """
    provenance: Dict[str, object] = {}
    if cache is not None:
        fp = cache.fingerprint_of(strategy, dimension)
        warm = cache.chunk_path_for(fp).exists() or cache.path_for(fp).exists()
        provenance = {"fingerprint": fp, "source": "cache" if warm else "generated"}
        chunks = cache.stream_chunks(strategy, dimension, chunk_moves)
    else:
        from repro.topology.hypercube import Hypercube

        chunks = strategy.generate_chunks(Hypercube(dimension), chunk_moves)
    final: List[ScheduleChunk] = []

    def _tap(stream):
        for chunk in stream:
            if chunk.is_last:
                final.append(chunk)
            yield chunk

    if verify:
        report = batch_verify_chunks(_tap(chunks))
        if not report.ok:
            raise ReproError(
                f"{name} d={dimension} failed verification: {report.summary()}"
            )
    else:
        for _ in _tap(chunks):
            pass
    values = measure_chunks(iter(final))
    return values, final[0], provenance


class Sweep:
    """A strategies × dimensions measurement grid.

    Parameters
    ----------
    strategies:
        Strategy registry names.
    dimensions:
        Hypercube degrees to measure.
    extra_metrics:
        Optional ``{name: fn(schedule) -> number}`` columns beyond the
        standard agents/moves/steps set.
    verify:
        Replay-verify every schedule (on by default; the sweep refuses to
        report numbers from a broken schedule).
    cache:
        Optional :class:`~repro.fastpath.ScheduleCache`; when given,
        cells are served from it (compiling and storing on miss) and
        verified with the columnar batch verifier.  A warm cell is pure
        deserialize-and-measure.
    stream:
        ``True`` forces every cell through the bounded-memory chunk
        pipeline, ``False`` forces materialization; the default
        (``None``) streams cells at ``d >=``
        :data:`STREAM_DIMENSION_THRESHOLD`.  Streaming cells never
        materialize a schedule, so they cannot feed ``extra_metrics``
        (``fn(schedule)`` callbacks) — combining the two raises.
    chunk_moves:
        Block size of the streaming pipeline.
    """

    def __init__(
        self,
        strategies: Sequence[str],
        dimensions: Sequence[int],
        *,
        extra_metrics: Optional[Dict[str, Callable[[Schedule], float]]] = None,
        verify: bool = True,
        cache: Optional[ScheduleCache] = None,
        stream: Optional[bool] = None,
        chunk_moves: int = DEFAULT_CHUNK_MOVES,
    ) -> None:
        if not strategies or not dimensions:
            raise ReproError("sweep needs at least one strategy and one dimension")
        if extra_metrics and stream:
            raise ReproError(
                "extra_metrics need a materialized schedule; "
                "a streaming sweep never builds one (drop stream=True "
                "or the extra metrics)"
            )
        self.strategies = list(strategies)
        self.dimensions = list(dimensions)
        self.extra_metrics = dict(extra_metrics or {})
        self.verify = verify
        self.cache = cache
        self.stream = stream
        self.chunk_moves = chunk_moves

    def _cell_streams(self, dimension: int) -> bool:
        """Whether the cell at ``dimension`` goes through the chunk path."""
        if self.stream is None:
            return dimension >= STREAM_DIMENSION_THRESHOLD
        return self.stream

    def run(self) -> List[SweepRow]:
        """Execute the grid; returns one row per (strategy, dimension)."""
        rows = []
        for name in self.strategies:
            for d in self.dimensions:
                try:
                    values, schedule_like, _ = measure_cell(
                        name,
                        d,
                        verify=self.verify,
                        cache=self.cache,
                        stream=self._cell_streams(d) and not self.extra_metrics,
                        chunk_moves=self.chunk_moves,
                    )
                except ReproError as exc:
                    if "failed verification" in str(exc):
                        raise ReproError(f"sweep aborted: {exc}") from exc
                    raise
                if self.extra_metrics:
                    schedule = (
                        schedule_like.to_schedule()
                        if isinstance(schedule_like, CompiledSchedule)
                        else schedule_like
                    )
                    for metric, fn in self.extra_metrics.items():
                        values[metric] = fn(schedule)
                rows.append(
                    SweepRow(
                        strategy=name,
                        dimension=d,
                        n=1 << d,
                        values=values,
                    )
                )
        return rows

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def columns(self) -> List[str]:
        """Metric column names, standard set first."""
        return list(STANDARD_COLUMNS) + sorted(self.extra_metrics)

    def to_csv(self, rows: Sequence[SweepRow]) -> str:
        """CSV text with a header row and a trailing newline.

        A ``status`` column is appended only when some row is non-ok, so
        fully successful sweeps keep the historical column set.
        """
        fieldnames = ["strategy", "d", "n"] + self.columns()
        if any(not row.ok for row in rows):
            fieldnames.append("status")
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=fieldnames, restval="", lineterminator="\n"
        )
        writer.writeheader()
        for row in rows:
            flat = row.as_flat_dict()
            if "status" in fieldnames:
                flat.setdefault("status", "ok")
            writer.writerow(flat)
        return buffer.getvalue()

    def to_text(self, rows: Sequence[SweepRow]) -> str:
        """Aligned text table; failed cells render as ``FAILED``."""
        cols = self.columns()
        header = f"{'strategy':<12} {'d':>3} {'n':>6} " + " ".join(
            f"{c:>12}" for c in cols
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            if row.ok:
                cells = " ".join(f"{row.values.get(c, ''):>12}" for c in cols)
            else:
                cells = " ".join(f"{'FAILED':>12}" for _ in cols)
            lines.append(f"{row.strategy:<12} {row.dimension:>3} {row.n:>6} {cells}")
        return "\n".join(lines)

    def series(self, rows: Sequence[SweepRow], strategy: str, metric: str) -> List[float]:
        """One metric's values across dimensions for one strategy."""
        return [
            row.values[metric]
            for row in rows
            if row.strategy == strategy
        ]


def run_sweep(
    strategies: Sequence[str],
    dimensions: Sequence[int],
    **kwargs,
) -> tuple[Sweep, List[SweepRow]]:
    """Convenience: build, run, and return ``(sweep, rows)``."""
    sweep = Sweep(strategies, dimensions, **kwargs)
    return sweep, sweep.run()
