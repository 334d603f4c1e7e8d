"""The shared metric-collection kernel for sweep cells.

``Sweep.run`` and the executor's ``sweep_cell`` task used to build the
standard metric columns with two hand-mirrored copies of the same five
lines; they now call one of two entry points, which build the columns
in one place (:func:`_columns`), so the paths cannot drift.
:func:`measure_chunks` answers from a chunk stream's final aggregate
block — the streaming cell's and the cache's warm path, which never
materializes a ``Move`` — and :func:`measure_schedule` from a
materialized :class:`~repro.core.schedule.Schedule`'s memoized one.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.chunkstream import ScheduleChunk
from repro.core.schedule import Schedule, ScheduleAggregates
from repro.core.states import AgentRole
from repro.errors import ScheduleError

__all__ = ["measure_schedule", "measure_chunks"]


def _columns(team_size: int, agg: ScheduleAggregates) -> Dict[str, float]:
    """The standard metric columns from a team size and an aggregate block."""
    return {
        "agents": team_size,
        "moves": agg.total_moves,
        "agent_moves": agg.role_counts[AgentRole.AGENT],
        "sync_moves": agg.role_counts[AgentRole.SYNCHRONIZER],
        "steps": agg.makespan,
    }


def measure_schedule(schedule: Schedule) -> Dict[str, float]:
    """The standard sweep metric columns for one schedule.

    Keys match :data:`repro.analysis.sweeps.STANDARD_COLUMNS`: the
    paper's team size, total/agent/synchronizer move counts (Theorem 3's
    decomposition) and the ideal-time makespan.
    """
    return _columns(schedule.team_size, schedule.aggregates())


def measure_chunks(chunks: Iterable[ScheduleChunk]) -> Dict[str, float]:
    """Fold a chunk stream into the standard metric columns.

    Every chunk already carries the running aggregate block, so this is
    a pure fold: drain the stream, answer from the final chunk's
    ``stats_so_far`` and the header team size.  Values are identical to
    ``measure_schedule`` on the materialized schedule.  Raises
    :class:`~repro.errors.ScheduleError` on a torn stream.
    """
    last: ScheduleChunk | None = None
    seen = False
    for chunk in chunks:
        seen = True
        if chunk.is_last:
            last = chunk
    if not seen:
        raise ScheduleError("empty chunk stream (no chunks at all)")
    if last is None:
        raise ScheduleError("torn chunk stream: no final chunk seen")
    return _columns(last.header.team_size, last.stats_so_far)
