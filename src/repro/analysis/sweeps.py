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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.analysis.verify import verify_schedule
from repro.core.chunkstream import DEFAULT_CHUNK_MOVES, ScheduleChunk, chunks_to_schedule
from repro.core.schedule import Schedule
from repro.core.strategy import get_strategy
from repro.errors import ReproError
from repro.fastpath import (
    ScheduleCache,
    batch_verify_chunks,
    measure_chunks,
    measure_schedule,
)
from repro.fastpath.npkernels import check_backend
from repro.topology.hypercube import Hypercube

__all__ = ["SweepRow", "Sweep", "run_sweep", "measure_cell"]

#: the standard measured columns, in render order
STANDARD_COLUMNS = ("agents", "moves", "agent_moves", "sync_moves", "steps")

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
    stream: bool = True,
    chunk_moves: int = DEFAULT_CHUNK_MOVES,
    backend: Optional[str] = None,
) -> tuple[Dict[str, float], object, Dict[str, object]]:
    """One (strategy, dimension) measurement — the single cell kernel.

    Shared by the serial :meth:`Sweep.run` loop and the executor's
    ``sweep_cell`` task, so the two paths cannot drift.  Every cell, at
    every d, takes one chunk source: the cache's
    :meth:`~repro.fastpath.ScheduleCache.stream_chunks` when a cache is
    given (a warm entry streams off disk, a miss runs the producer and
    stores while streaming), the strategy's producer
    (:meth:`~repro.core.strategy.Strategy.generate_chunks`) otherwise.
    Returns ``(values, schedule_like, provenance)``:

    * ``values`` — the :data:`STANDARD_COLUMNS` metric dict,
    * ``schedule_like`` — the final
      :class:`~repro.core.chunkstream.ScheduleChunk` when streaming (the
      whole schedule was never resident), the assembled
      :class:`~repro.core.schedule.Schedule` otherwise,
    * ``provenance`` — empty without a cache; with one, the entry
      fingerprint and whether it was served from ``"cache"`` or
      ``"generated"`` (a cell that stored an entry — cold, or
      regenerated over a corrupt one — was generated).

    ``stream=True`` (the default) verifies the chunks with the chunked
    bit-plane kernel and measures from the fold, holding
    ``O(chunk_moves)`` moves at any moment.  ``stream=False`` assembles
    the same chunks into a ``Schedule`` — for callers that need real
    moves, such as ``extra_metrics`` — and checks it with the reference
    replay verifier.  The metric values are identical either way.  A
    verification failure raises :class:`~repro.errors.ReproError` — a
    sweep refuses to report numbers from a broken schedule.

    ``backend`` accepts only ``None`` or ``"numpy"`` (the name of the
    bit-plane kernel) and changes nothing; any other value raises
    :class:`~repro.errors.ScheduleError`.
    """
    check_backend(backend)
    strategy = get_strategy(name)
    if cache is not None:
        stores = cache.stats.stores
        chunks = cache.stream_chunks(strategy, dimension, chunk_moves)
    else:
        chunks = strategy.generate_chunks(Hypercube(dimension), chunk_moves)
    measure = _measure_stream if stream else _measure_assembled
    values, schedule_like = measure(name, dimension, chunks, verify)
    provenance: Dict[str, object] = {}
    if cache is not None:
        provenance = {
            "fingerprint": cache.fingerprint_of(strategy, dimension),
            "source": "generated" if cache.stats.stores > stores else "cache",
        }
    return values, schedule_like, provenance


def _measure_stream(
    name: str, dimension: int, chunks: Iterator[ScheduleChunk], verify: bool
) -> tuple[Dict[str, float], ScheduleChunk]:
    """Verify with the chunk kernel, measure from the final chunk's fold."""
    final: List[ScheduleChunk] = []

    def _tap(source: Iterator[ScheduleChunk]) -> Iterator[ScheduleChunk]:
        for chunk in source:
            if chunk.is_last:
                final.append(chunk)
            yield chunk

    if verify:
        _check(name, dimension, batch_verify_chunks(_tap(chunks)))
    else:
        for _ in _tap(chunks):
            pass
    return measure_chunks(iter(final)), final[0]


def _measure_assembled(
    name: str, dimension: int, chunks: Iterator[ScheduleChunk], verify: bool
) -> tuple[Dict[str, float], Schedule]:
    """Assemble a ``Schedule``, verify it with the reference replay."""
    schedule = chunks_to_schedule(chunks)
    if verify:
        _check(name, dimension, verify_schedule(schedule))
    return measure_schedule(schedule), schedule


def _check(name: str, dimension: int, report: Any) -> None:
    """Raise :class:`~repro.errors.ReproError` on a failed verdict."""
    if not report.ok:
        raise ReproError(
            f"{name} d={dimension} failed verification: {report.summary()}"
        )


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
        Verify every schedule (on by default; the sweep refuses to
        report numbers from a broken schedule).
    cache:
        Optional :class:`~repro.fastpath.ScheduleCache`; when given,
        cells stream from it (storing while streaming on a miss).  A
        warm cell is pure read-verify-measure, chunk by chunk.
    chunk_moves:
        Block size of the chunk stream.

    Every cell goes through :func:`measure_cell`'s chunk pipeline.  A
    sweep with ``extra_metrics`` assembles each cell's chunks into a
    ``Schedule`` for the ``fn(schedule)`` callbacks (and verifies it
    with the reference replay verifier); one without never builds one.
    """

    def __init__(
        self,
        strategies: Sequence[str],
        dimensions: Sequence[int],
        *,
        extra_metrics: Optional[Dict[str, Callable[[Schedule], float]]] = None,
        verify: bool = True,
        cache: Optional[ScheduleCache] = None,
        chunk_moves: int = DEFAULT_CHUNK_MOVES,
    ) -> None:
        if not strategies or not dimensions:
            raise ReproError("sweep needs at least one strategy and one dimension")
        self.strategies = list(strategies)
        self.dimensions = list(dimensions)
        self.extra_metrics = dict(extra_metrics or {})
        self.verify = verify
        self.cache = cache
        self.chunk_moves = chunk_moves

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
                        stream=not self.extra_metrics,
                        chunk_moves=self.chunk_moves,
                    )
                except ReproError as exc:
                    if "failed verification" in str(exc):
                        raise ReproError(f"sweep aborted: {exc}") from exc
                    raise
                for metric, fn in self.extra_metrics.items():
                    values[metric] = fn(schedule_like)
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
