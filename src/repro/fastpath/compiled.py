"""Columnar compiled schedules: struct-of-arrays ``Schedule`` twins.

A :class:`CompiledSchedule` stores the move list of a
:class:`~repro.core.schedule.Schedule` as six parallel stdlib
``array('q')`` columns (time, agent, src, dst, kind, role) plus the
one-pass :class:`~repro.core.schedule.ScheduleAggregates` stats block.
The paper's strategies emit ``O(n log n)`` moves (Theorems 3/8), so at
d=16 a schedule is ~1M Python ``Move`` objects; the columnar twin packs
the same information into six contiguous int64 buffers that hash, slice
into chunks and replay without materializing a single ``Move``.

Two invariants define the format:

* **losslessness** — ``CompiledSchedule.from_schedule(s).to_schedule()``
  is ``==`` to ``s``, including metadata that plain JSON cannot round-trip
  (the generators record int-keyed dicts and tuples; see
  :func:`encode_metadata`);
* **one byte form** — a compiled schedule reaches disk only as the
  schedule cache's chunked entry (:mod:`repro.fastpath.cache`): its
  chunk records are these columns in :data:`COLUMN_NAMES` order, and
  the version tags below name that layout.  :meth:`iter_chunks` and
  :meth:`from_chunks` are the bridge in each direction.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.core.chunkstream import (
    DEFAULT_CHUNK_MOVES,
    KIND_CODE,
    KINDS,
    ROLE_CODE,
    ROLES,
    AggregateScanner,
    ChunkStreamHeader,
    ScheduleChunk,
)
from repro.core.schedule import Move, MoveKind, Schedule, ScheduleAggregates, scan_moves
from repro.core.states import AgentRole
from repro.errors import CompiledScheduleError, ScheduleError

__all__ = [
    "CompiledSchedule",
    "FORMAT_VERSION",
    "SCHEMA_VERSION",
    "encode_metadata",
    "decode_metadata",
]

#: version of the chunked on-disk layout (the cache entry's preamble
#: carries it); bump on any incompatible change to that byte layout
FORMAT_VERSION = 3
#: logical schema tag of the on-disk layout; part of every cache
#: fingerprint, so a bump orphans every existing entry
SCHEMA_VERSION = "compiled-schedule-chunked/v3"

#: column order of every chunk record's payload (each an int64 array)
COLUMN_NAMES: Tuple[str, ...] = ("time", "agent", "src", "dst", "kind", "role")

# enum <-> small-int codes, shared with the chunk plane so a chunk's
# columns and a compiled column slice are interchangeable.  The *byte*
# form never stores these indices bare: the entry header records the
# enum value strings in index order, so an entry decodes correctly even
# if the enum declaration order changes.
_KINDS: Tuple[MoveKind, ...] = KINDS
_ROLES: Tuple[AgentRole, ...] = ROLES
_KIND_CODE = KIND_CODE
_ROLE_CODE = ROLE_CODE

_TAG = "__repro__"


def encode_metadata(obj: object) -> object:
    """JSON-encodable form of a metadata value, losslessly.

    Plain JSON stringifies dict keys and turns tuples into lists, so the
    generators' metadata (int-keyed ``extras_per_level`` / ``wave_sizes``
    dicts, tuple-valued extras) would not round-trip.  Non-string-keyed
    dicts and tuples are wrapped in ``{"__repro__": ...}`` marker objects
    instead; everything else passes through.
    """
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _TAG not in obj:
            return {k: encode_metadata(v) for k, v in obj.items()}
        return {
            _TAG: "dict",
            "items": [[encode_metadata(k), encode_metadata(v)] for k, v in obj.items()],
        }
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "items": [encode_metadata(v) for v in obj]}
    if isinstance(obj, list):
        return [encode_metadata(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise CompiledScheduleError(
        f"metadata value of type {type(obj).__name__} is not serializable"
    )


def decode_metadata(obj: object) -> object:
    """Inverse of :func:`encode_metadata`."""
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag == "dict":
            return {decode_metadata(k): decode_metadata(v) for k, v in obj["items"]}
        if tag == "tuple":
            return tuple(decode_metadata(v) for v in obj["items"])
        return {k: decode_metadata(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_metadata(v) for v in obj]
    return obj


def _native(arr: "array[int]") -> "array[int]":
    """The array with little-endian byte order (no-op on LE hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - LE-only CI
        arr = array("q", arr)
        arr.byteswap()
    return arr


@dataclass
class CompiledSchedule:
    """Struct-of-arrays twin of a :class:`~repro.core.schedule.Schedule`.

    The six columns are parallel ``array('q')`` buffers, one entry per
    move, in replay order.  ``stats`` is the full aggregate block, so a
    compiled schedule answers every standard measurement without
    touching the columns at all.  Two equal compiled schedules agree on
    every header field, column, stat and metadata value — the equality
    the chunked cache entry round-trips.
    """

    dimension: int
    strategy: str
    team_size: int
    homebase: int
    uses_cloning: bool
    metadata: Dict[str, object]
    times: "array[int]"
    agents: "array[int]"
    srcs: "array[int]"
    dsts: "array[int]"
    kinds: "array[int]"
    roles: "array[int]"
    stats: ScheduleAggregates

    # ------------------------------------------------------------------ #
    # measurements (mirror the Schedule surface Sweep.run reads)
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of hypercube nodes, ``2**dimension``."""
        return 1 << self.dimension

    @property
    def total_moves(self) -> int:
        """Total number of edge traversals."""
        return self.stats.total_moves

    @property
    def makespan(self) -> int:
        """Largest completion time (ideal time)."""
        return self.stats.makespan

    def aggregates(self) -> ScheduleAggregates:
        """The aggregate block (same object the ``Schedule`` memoizes)."""
        return self.stats

    def __len__(self) -> int:
        return self.stats.total_moves

    @property
    def nbytes(self) -> int:
        """Bytes held by the six columns (the compile-ratio numerator)."""
        return sum(
            col.itemsize * len(col) for col in self.columns().values()
        )

    def columns(self) -> Dict[str, "array[int]"]:
        """The column buffers keyed by :data:`COLUMN_NAMES` name."""
        return {
            "time": self.times,
            "agent": self.agents,
            "src": self.srcs,
            "dst": self.dsts,
            "kind": self.kinds,
            "role": self.roles,
        }

    # ------------------------------------------------------------------ #
    # chunk streaming
    # ------------------------------------------------------------------ #

    def stream_header(self) -> ChunkStreamHeader:
        """This schedule's chunk-stream header."""
        return ChunkStreamHeader(
            dimension=self.dimension,
            strategy=self.strategy,
            homebase=self.homebase,
            uses_cloning=self.uses_cloning,
            team_size=self.team_size,
        )

    def iter_chunks(
        self, chunk_moves: int = DEFAULT_CHUNK_MOVES
    ) -> Iterator[ScheduleChunk]:
        """Slice the columns into a chunk stream (no ``Move`` objects).

        The output is exactly what :meth:`generate_chunks
        <repro.core.strategy.Strategy.generate_chunks>` would have
        produced for the same schedule and block size — the in-memory
        warm path of the chunk protocol.  Per-chunk ``stats_so_far``
        blocks are re-derived by folding each chunk's column block.
        """
        if chunk_moves < 1:
            raise CompiledScheduleError(
                f"chunk_moves must be >= 1, got {chunk_moves}"
            )
        header = self.stream_header()
        total = len(self.times)
        times, agents, kinds, roles = (
            np.asarray(col, dtype=np.int64)
            for col in (self.times, self.agents, self.kinds, self.roles)
        )
        scanner = AggregateScanner()
        index = 0
        offset = 0
        while True:
            end = min(offset + chunk_moves, total)
            scanner.fold(
                times[offset:end], agents[offset:end], kinds[offset:end], roles[offset:end]
            )
            is_last = end == total
            yield ScheduleChunk(
                header=header,
                index=index,
                start_move=offset,
                times=self.times[offset:end],
                agents=self.agents[offset:end],
                srcs=self.srcs[offset:end],
                dsts=self.dsts[offset:end],
                kinds=self.kinds[offset:end],
                roles=self.roles[offset:end],
                stats_so_far=scanner.snapshot(),
                is_last=is_last,
                metadata=dict(self.metadata) if is_last else {},
            )
            if is_last:
                break
            index += 1
            offset = end

    @classmethod
    def from_chunks(cls, chunks: Iterable[ScheduleChunk]) -> "CompiledSchedule":
        """Assemble a chunk stream into one compiled schedule.

        Column concatenation only — the inverse of :meth:`iter_chunks`,
        and how the pipeline holds a producer's or a cache entry's
        stream whole.
        Raises :class:`~repro.errors.ScheduleError` on a torn stream
        (no chunks, or no final chunk).
        """
        times = array("q", bytes(0))
        agents = array("q", bytes(0))
        srcs = array("q", bytes(0))
        dsts = array("q", bytes(0))
        kinds = array("q", bytes(0))
        roles = array("q", bytes(0))
        last: ScheduleChunk | None = None
        header: ChunkStreamHeader | None = None
        for chunk in chunks:
            header = chunk.header
            times.extend(chunk.times)
            agents.extend(chunk.agents)
            srcs.extend(chunk.srcs)
            dsts.extend(chunk.dsts)
            kinds.extend(chunk.kinds)
            roles.extend(chunk.roles)
            if chunk.is_last:
                last = chunk
        if header is None:
            raise ScheduleError("empty chunk stream (no chunks at all)")
        if last is None:
            raise ScheduleError("torn chunk stream: no final chunk seen")
        return cls(
            dimension=header.dimension,
            strategy=header.strategy,
            team_size=header.team_size,
            homebase=header.homebase,
            uses_cloning=header.uses_cloning,
            metadata=dict(last.metadata),
            times=times,
            agents=agents,
            srcs=srcs,
            dsts=dsts,
            kinds=kinds,
            roles=roles,
            stats=last.stats_so_far,
        )

    # ------------------------------------------------------------------ #
    # compile / decompile
    # ------------------------------------------------------------------ #

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "CompiledSchedule":
        """Compile ``schedule`` into columnar form (one pass over moves)."""
        moves = schedule.moves
        times = array("q", bytes(0))
        agents = array("q", bytes(0))
        srcs = array("q", bytes(0))
        dsts = array("q", bytes(0))
        kinds = array("q", bytes(0))
        roles = array("q", bytes(0))
        for m in moves:
            times.append(m.time)
            agents.append(m.agent)
            srcs.append(m.src)
            dsts.append(m.dst)
            kinds.append(_KIND_CODE[m.kind])
            roles.append(_ROLE_CODE[m.role])
        return cls(
            dimension=schedule.dimension,
            strategy=schedule.strategy,
            team_size=schedule.team_size,
            homebase=schedule.homebase,
            uses_cloning=schedule.uses_cloning,
            metadata=schedule.metadata,
            times=times,
            agents=agents,
            srcs=srcs,
            dsts=dsts,
            kinds=kinds,
            roles=roles,
            stats=schedule.aggregates(),
        )

    def to_schedule(self) -> Schedule:
        """Materialize the full ``Schedule`` (exact inverse of compile)."""
        moves: List[Move] = [
            Move(
                agent=self.agents[i],
                src=self.srcs[i],
                dst=self.dsts[i],
                time=self.times[i],
                role=_ROLES[self.roles[i]],
                kind=_KINDS[self.kinds[i]],
            )
            for i in range(len(self.times))
        ]
        schedule = Schedule(
            dimension=self.dimension,
            strategy=self.strategy,
            moves=moves,
            team_size=self.team_size,
            homebase=self.homebase,
            uses_cloning=self.uses_cloning,
            metadata=self.metadata,
        )
        # hand the precomputed aggregates over so the warm path never
        # rescans what the compiler already measured
        schedule._agg = self.stats
        schedule._agg_key = (len(moves), moves[-1] if moves else None)
        return schedule

    def verify_stats(self) -> bool:
        """Cross-check the stats block against a fresh column scan."""
        return scan_moves(self.to_schedule().moves) == self.stats
