"""Columnar compiled schedules: struct-of-arrays ``Schedule`` twins.

A :class:`CompiledSchedule` stores the move list of a
:class:`~repro.core.schedule.Schedule` as six parallel stdlib
``array('q')`` columns (time, agent, src, dst, kind, role) plus the
one-pass :class:`~repro.core.schedule.ScheduleAggregates` stats block.
The paper's strategies emit ``O(n log n)`` moves (Theorems 3/8), so at
d=16 a schedule is ~1M Python ``Move`` objects; the columnar twin packs
the same information into six contiguous int64 buffers that serialize,
hash and replay without materializing a single ``Move``.

Two invariants define the format:

* **losslessness** — ``CompiledSchedule.from_schedule(s).to_schedule()``
  is ``==`` to ``s``, including metadata that plain JSON cannot round-trip
  (the generators record int-keyed dicts and tuples; see
  :func:`encode_metadata`);
* **self-verification** — the byte form carries a magic, a format
  version, explicit lengths and a CRC-32 footer, so a torn or bit-flipped
  cache entry raises :class:`~repro.errors.CompiledScheduleError` on load
  instead of decoding into garbage.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
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

#: magic prefix of every compiled-schedule blob
MAGIC = b"RPRC"
#: bump on any incompatible change to the byte layout below
FORMAT_VERSION = 1
#: logical schema tag; part of every cache fingerprint
SCHEMA_VERSION = "compiled-schedule/v1"

#: column order in the binary payload (each an int64 array)
COLUMN_NAMES: Tuple[str, ...] = ("time", "agent", "src", "dst", "kind", "role")

# enum <-> small-int codes, shared with the chunk plane so a chunk's
# columns and a compiled column slice are interchangeable.  The *byte*
# form never stores these indices bare: the header records the enum
# value strings in index order, so a blob decodes correctly even if the
# enum declaration order changes.
_KINDS: Tuple[MoveKind, ...] = KINDS
_ROLES: Tuple[AgentRole, ...] = ROLES
_KIND_CODE = KIND_CODE
_ROLE_CODE = ROLE_CODE

# MAGIC | format version (u16) | header length (u32), little-endian
_PREAMBLE = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")

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
    compiled schedule answers every ``Sweep.run`` measurement without
    touching the columns at all — the cache's warm path is exactly
    "deserialize header, read stats".
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
        and the bridge the cache's store-while-streaming path uses.
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

    # ------------------------------------------------------------------ #
    # binary serialization
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Versioned binary form::

            MAGIC | version u16 | header_len u32 | header JSON |
            6 * total_moves int64 column payload | crc32 u32

        The CRC covers everything before the footer.
        """
        header = {
            "schema": SCHEMA_VERSION,
            "dimension": self.dimension,
            "strategy": self.strategy,
            "team_size": self.team_size,
            "homebase": self.homebase,
            "uses_cloning": self.uses_cloning,
            "metadata": encode_metadata(self.metadata),
            "stats": self.stats.as_dict(),
            "total_moves": len(self.times),
            "columns": list(COLUMN_NAMES),
            "kind_values": [k.value for k in _KINDS],
            "role_values": [r.value for r in _ROLES],
        }
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        parts = [_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)), header_bytes]
        for col in self.columns().values():
            parts.append(_native(col).tobytes())
        body = b"".join(parts)
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompiledSchedule":
        """Decode :meth:`to_bytes` output; raises
        :class:`~repro.errors.CompiledScheduleError` on any malformation
        (short blob, bad magic, unknown version, length mismatch, CRC
        failure, undecodable header)."""
        if len(blob) < _PREAMBLE.size + _CRC.size:
            raise CompiledScheduleError(f"blob too short ({len(blob)} bytes)")
        magic, version, header_len = _PREAMBLE.unpack_from(blob)
        if magic != MAGIC:
            raise CompiledScheduleError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CompiledScheduleError(f"unsupported format version {version}")
        body, (crc,) = blob[: -_CRC.size], _CRC.unpack(blob[-_CRC.size :])
        if zlib.crc32(body) != crc:
            raise CompiledScheduleError("CRC mismatch (torn or corrupt blob)")
        header_end = _PREAMBLE.size + header_len
        if header_end > len(body):
            raise CompiledScheduleError("header length exceeds blob")
        try:
            header = json.loads(body[_PREAMBLE.size : header_end].decode("utf-8"))
            total = int(header["total_moves"])
            columns = list(header["columns"])
            kind_values = [MoveKind(v) for v in header["kind_values"]]
            role_values = [AgentRole(v) for v in header["role_values"]]
            stats = ScheduleAggregates.from_dict(header["stats"])
            metadata = decode_metadata(header["metadata"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CompiledScheduleError(f"undecodable header: {exc}") from exc
        if columns != list(COLUMN_NAMES):
            raise CompiledScheduleError(f"unexpected column set {columns}")
        expected = header_end + len(COLUMN_NAMES) * total * 8
        if expected != len(body):
            raise CompiledScheduleError(
                f"payload length mismatch ({len(body)} != {expected})"
            )
        cols: List["array[int]"] = []
        offset = header_end
        for _ in COLUMN_NAMES:
            col = array("q", bytes(0))
            col.frombytes(body[offset : offset + total * 8])
            cols.append(_native(col))
            offset += total * 8
        times, agents, srcs, dsts, kinds, roles = cols
        # re-map stored enum codes if the declaration order ever changed
        if kind_values != list(_KINDS):
            remap = array("q", (_KIND_CODE[kind_values[c]] for c in kinds))
            kinds = remap  # pragma: no cover - only on enum reorder
        if role_values != list(_ROLES):
            roles = array("q", (_ROLE_CODE[role_values[c]] for c in roles))  # pragma: no cover
        for code_col, bound, label in ((kinds, len(_KINDS), "kind"), (roles, len(_ROLES), "role")):
            if code_col and not (min(code_col) >= 0 and max(code_col) < bound):
                raise CompiledScheduleError(f"{label} code out of range")
        return cls(
            dimension=int(header["dimension"]),
            strategy=str(header["strategy"]),
            team_size=int(header["team_size"]),
            homebase=int(header["homebase"]),
            uses_cloning=bool(header["uses_cloning"]),
            metadata=metadata,  # type: ignore[arg-type]
            times=times,
            agents=agents,
            srcs=srcs,
            dsts=dsts,
            kinds=kinds,
            roles=roles,
            stats=stats,
        )

    def verify_stats(self) -> bool:
        """Cross-check the stats block against a fresh column scan."""
        return scan_moves(self.to_schedule().moves) == self.stats
