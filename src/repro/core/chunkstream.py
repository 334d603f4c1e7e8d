"""The chunk plane: schedules as bounded-memory columnar block streams.

The paper's strategies emit ``O(n log n)`` moves (Theorems 3/8), so a
materialized :class:`~repro.core.schedule.Schedule` at d=18 is millions
of Python ``Move`` objects — hundreds of megabytes before any consumer
touches the first move.  This module defines the streaming alternative:
a schedule as an ordered sequence of :class:`ScheduleChunk` blocks, each
a fixed-size slice of six struct-of-arrays int64 columns (time, agent,
src, dst, kind, role), with the running
:class:`~repro.core.schedule.ScheduleAggregates` folded per chunk.  A
strategy that can emit its moves incrementally
(:meth:`~repro.core.strategy.Strategy.stream_moves`) produces the whole
stream in ``O(chunk + frontier)`` memory; every downstream consumer —
the batch verifier, the metric collector, the schedule cache's chunked
blob format — folds chunk by chunk without ever holding the schedule.

A caller that does need the whole schedule in columns holds it as one
chunk: :func:`concat_chunks` assembles any stream into the single final
chunk (index 0, ``is_last``), :func:`rechunk` slices it back into a
stream and :func:`chunks_to_schedule` turns it into ``Move`` objects.

Stream contract
---------------
* chunks arrive in replay order: concatenating the columns of every
  chunk yields exactly the columns of the monolithic schedule
  (byte-identical — the collector tests pin this);
* every chunk carries the stream *header* (dimension, strategy,
  homebase, cloning flag and the exact ``team_size``, which the paper's
  formulas predict up front — the streaming verifier needs the initial
  homebase guard count before the first move);
* ``stats_so_far`` on each chunk is the aggregate block over all moves
  up to and including that chunk, so any prefix of the stream is
  measurable and the final chunk's block equals the monolithic
  ``Schedule.aggregates()``;
* exactly one chunk has ``is_last=True`` — the final chunk, which also
  carries the generator ``metadata`` (finalized only at the end of
  generation) — and it is the stream terminator: a consumer that runs
  out of chunks without seeing it is reading a torn stream;
* every chunk except the last holds exactly ``chunk_moves`` moves; the
  last holds the remainder (possibly zero moves for empty schedules).

Within one time unit, moves never straddle *logical* boundaries — a
chunk boundary may split a time unit, and consumers carry their
incremental state (contiguity trichotomy, open time-unit bookkeeping)
across it; nothing in the format aligns chunks to time units.
"""

from __future__ import annotations

import dataclasses
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.schedule import Move, MoveKind, Schedule, ScheduleAggregates
from repro.core.states import AgentRole
from repro.errors import ReproError, ScheduleError

__all__ = [
    "DEFAULT_CHUNK_MOVES",
    "KINDS",
    "ROLES",
    "KIND_CODE",
    "ROLE_CODE",
    "ChunkStreamHeader",
    "ScheduleChunk",
    "AggregateScanner",
    "TimeOrderedEmitter",
    "TimeOrderedColumns",
    "Block",
    "BlockStream",
    "block_rows_for",
    "assemble_chunks",
    "chunk_move_stream",
    "collect_stream",
    "header_from_schedule",
    "stream_from_schedule",
    "chunks_from_schedule",
    "rechunk",
    "concat_chunks",
    "chunks_to_schedule",
]

#: default moves per chunk — 64k int64 rows x 6 columns = 3 MiB of
#: column payload per chunk, small enough to stream d >= 16 in bounded
#: memory and large enough that per-chunk overhead disappears.
DEFAULT_CHUNK_MOVES = 65536

#: smallest row block a columnar producer is asked for: below this the
#: per-block numpy overhead outweighs the rows, so tiny chunk sizes get
#: blocks of this many rows, sliced into chunks by the assembler
MIN_BLOCK_ROWS = 1024
#: largest row block: a block's numpy temporaries (and the aggregate
#: fold's, which runs per block slice) are several times its six columns,
#: so blocks stay a quarter of a default chunk; larger blocks buy no
#: measurable speed and cost peak RSS
MAX_BLOCK_ROWS = 16384

#: agent ids the aggregate fold tracks in its seen-agent bitmap (ids
#: outside ``[0, limit)`` go to a set); every strategy numbers its agents
#: densely from 0, so at d=20 the bitmap is half a MiB
_AGENT_BITMAP_LIMIT = 1 << 26

#: one block of encoded rows: six equally long int64 columns in
#: ``(time, agent, src, dst, kind, role)`` order
Block = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: a columnar producer: yields row blocks in replay order and returns the
#: stream footer (``team_size`` and ``metadata``), like ``stream_moves``
BlockStream = Generator[Block, None, Dict[str, object]]

# Canonical enum <-> small-int code tables of the kind and role columns
# (the schedule cache imports these — fastpath sits above the core
# plane, so the dependency points downward).  The *byte* format never
# stores these indices bare: its header records the enum value strings
# in index order, so entries survive enum reordering.
KINDS: Tuple[MoveKind, ...] = tuple(MoveKind)
ROLES: Tuple[AgentRole, ...] = tuple(AgentRole)
KIND_CODE: Dict[MoveKind, int] = {kind: i for i, kind in enumerate(KINDS)}
ROLE_CODE: Dict[AgentRole, int] = {role: i for i, role in enumerate(ROLES)}


@dataclass(frozen=True)
class ChunkStreamHeader:
    """Everything about a schedule that is known before its first move.

    ``team_size`` must be *exact*: the streaming verifier deploys the
    initial homebase guards from it, and the chunker cross-checks it
    against the generator's final count (a mismatch is a generator bug
    and raises, never silently degrades a verdict).
    """

    dimension: int
    strategy: str
    homebase: int
    uses_cloning: bool
    team_size: int

    @property
    def n(self) -> int:
        """Number of hypercube nodes, ``2**dimension``."""
        return 1 << self.dimension


@dataclass
class ScheduleChunk:
    """One fixed-size columnar block of a schedule stream.

    The six parallel ``array('q')`` columns hold the slice
    ``[start_move, start_move + len(self))`` of the move list;
    ``stats_so_far`` aggregates every move up to the end of this chunk.
    Only the final chunk (``is_last``) carries the generator metadata.
    A whole schedule in columns is the one-chunk stream
    :func:`concat_chunks` returns.
    """

    header: ChunkStreamHeader
    index: int
    start_move: int
    times: "array[int]"
    agents: "array[int]"
    srcs: "array[int]"
    dsts: "array[int]"
    kinds: "array[int]"
    roles: "array[int]"
    stats_so_far: ScheduleAggregates
    is_last: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Bytes held by the six columns of this chunk."""
        return sum(col.itemsize * len(col) for col in self.columns().values())

    def columns(self) -> Dict[str, "array[int]"]:
        """The column buffers, keyed by on-disk column name."""
        return {
            "time": self.times,
            "agent": self.agents,
            "src": self.srcs,
            "dst": self.dsts,
            "kind": self.kinds,
            "role": self.roles,
        }

    def moves(self) -> Iterator[Move]:
        """Materialize this chunk's slice as ``Move`` objects (tests and
        collectors only — the streaming consumers read the columns)."""
        for i in range(len(self.times)):
            yield Move(
                agent=self.agents[i],
                src=self.srcs[i],
                dst=self.dsts[i],
                time=self.times[i],
                role=ROLES[self.roles[i]],
                kind=KINDS[self.kinds[i]],
            )


class AggregateScanner:
    """Incremental :func:`~repro.core.schedule.scan_moves` over a sorted
    move stream, folded one column block at a time.

    Chunk streams are emitted in replay order (non-decreasing times), so
    ``peak_traveling_agents`` folds over runs of equal completion time:
    each block's runs are counted whole, and the run still open at the
    end of a block carries its distinct agents into the next one.  Kind
    and role counts are ``bincount``\\ s, distinct agents a seen-agent
    bitmap.  The snapshot after the final block equals
    ``scan_moves(schedule.moves)`` exactly, however the stream is cut
    into blocks.
    """

    def __init__(self) -> None:
        self.total = 0
        self.makespan = 0
        self.role_counts = np.zeros(len(ROLES), dtype=np.int64)
        self.kind_counts = np.zeros(len(KINDS), dtype=np.int64)
        self._seen = np.zeros(0, dtype=bool)
        self._agents = 0
        # agent ids outside the bitmap's range (never produced by the
        # strategies; kept exact for arbitrary input)
        self._odd_agents: set = set()
        self._run_time: Optional[int] = None
        self._run_agents = np.zeros(0, dtype=np.int64)  # sorted, distinct
        self._peak = 0

    def fold(self, times: object, agents: object, kinds: object, roles: object) -> None:
        """Fold one block of encoded rows into the running aggregates.

        Raises :class:`~repro.errors.ScheduleError` at the block's first
        row that goes back in time or carries a kind or role code outside
        the enum tables; the aggregates are then left unchanged.
        """
        t = np.asarray(times, dtype=np.int64)
        if not len(t):
            return
        a = np.asarray(agents, dtype=np.int64)
        k = np.asarray(kinds, dtype=np.int64)
        r = np.asarray(roles, dtype=np.int64)
        self._check(t, k, r)
        self.total += len(t)
        self.kind_counts += np.bincount(k, minlength=len(KINDS))
        self.role_counts += np.bincount(r, minlength=len(ROLES))
        self.makespan = max(self.makespan, int(t[-1]))
        self._fold_agents(a)
        self._fold_runs(t, a)

    def _check(self, t: np.ndarray, k: np.ndarray, r: np.ndarray) -> None:
        prev = np.empty_like(t)
        prev[0] = t[0] if self._run_time is None else self._run_time
        prev[1:] = t[:-1]
        back = t < prev
        bad = (k < 0) | (k >= len(KINDS)) | (r < 0) | (r >= len(ROLES))
        if not (back.any() or bad.any()):
            return
        i = int(np.argmax(back | bad))
        if back[i]:
            raise ScheduleError(f"chunk stream goes back in time ({t[i]} < {prev[i]})")
        raise ScheduleError(
            f"move with kind code {k[i]} and role code {r[i]}: code out of range"
        )

    def _fold_agents(self, a: np.ndarray) -> None:
        inside = (a >= 0) & (a < _AGENT_BITMAP_LIMIT)
        if not inside.all():
            self._odd_agents.update(a[~inside].tolist())
            a = a[inside]
            if not len(a):
                return
        top = int(a.max())
        if top >= len(self._seen):
            grown = np.zeros(max(top + 1, 2 * len(self._seen)), dtype=bool)
            grown[: len(self._seen)] = self._seen
            self._seen = grown
        fresh = _distinct(a[~self._seen[a]])
        self._agents += len(fresh)
        self._seen[fresh] = True

    def _fold_runs(self, t: np.ndarray, a: np.ndarray) -> None:
        new_run = t[1:] != t[:-1]
        by_agent = _agents_by_run(t, a)
        fresh = np.ones(len(t), dtype=bool)  # first row of its (time, agent)
        fresh[1:] = new_run | (by_agent[1:] != by_agent[:-1])
        starts = np.concatenate(([0], np.flatnonzero(new_run) + 1))
        counts = np.add.reduceat(fresh.astype(np.int64), starts)
        first_end = int(starts[1]) if len(starts) > 1 else len(t)
        first = by_agent[:first_end][fresh[:first_end]]
        if int(t[0]) == self._run_time:  # the open run goes on
            first = _distinct(np.concatenate((self._run_agents, first)))
            counts[0] = len(first)
        else:
            self._peak = max(self._peak, len(self._run_agents))
        if len(starts) > 1:
            self._peak = max(self._peak, int(counts[:-1].max()))
            last = int(starts[-1])
            self._run_agents = by_agent[last:][fresh[last:]]
        else:
            self._run_agents = first
        self._run_time = int(t[-1])

    def snapshot(self) -> ScheduleAggregates:
        """The aggregate block over every move folded so far."""
        peak = max(self._peak, len(self._run_agents))
        return ScheduleAggregates(
            total_moves=self.total,
            makespan=self.makespan,
            role_counts={role: int(self.role_counts[i]) for i, role in enumerate(ROLES)},
            kind_counts={kind: int(self.kind_counts[i]) for i, kind in enumerate(KINDS)},
            agents_used=self._agents + len(self._odd_agents),
            peak_traveling_agents=peak,
        )


class TimeOrderedEmitter:
    """Streaming replacement for the generators' final ``moves.sort()``.

    The CLEAN and level-sweep generators emit moves in *program* order —
    an agent's whole walk at its dispatch point — and stable-sort by
    completion time at the end.  Sorting needs the full list; this
    emitter reproduces the exact same order incrementally.  Moves are
    bucketed by completion time; :meth:`release` flushes every bucket up
    to a *watermark* the generator guarantees no future move can
    undercut (both generators only ever start walks at or after the
    coordinator clock, which never decreases).  Buckets keep append
    order, so the flushed sequence equals the stable sort exactly.

    Peak buffered moves = one dispatch burst (the walks racing ahead of
    the coordinator clock), which is ``O(level width * d)`` — the
    streaming generators' memory high-water mark, far below the full
    ``O(n log n)`` move list.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Move]] = {}
        self._released = 0
        self.peak_buffered = 0
        self._buffered = 0

    def emit(self, move: Move) -> None:
        """Buffer one move awaiting its watermark."""
        self._buckets.setdefault(move.time, []).append(move)
        self._buffered += 1
        if self._buffered > self.peak_buffered:
            self.peak_buffered = self._buffered

    def release(self, watermark: int) -> Iterator[Move]:
        """Yield every buffered move with ``time <= watermark`` in time
        order (stable within a time unit).

        The caller promises every *future* :meth:`emit` has
        ``time > watermark``; releasing is then safe because no later
        move can belong before the flushed prefix.
        """
        if self._released > watermark:
            raise ReproError(
                f"watermark went backwards ({watermark} < {self._released})"
            )
        due = sorted(t for t in self._buckets if t <= watermark)
        for t in due:
            bucket = self._buckets.pop(t)
            self._buffered -= len(bucket)
            yield from bucket
        self._released = watermark

    def drain(self) -> Iterator[Move]:
        """Yield everything left, in time order (end of generation)."""
        for t in sorted(self._buckets):
            bucket = self._buckets.pop(t)
            self._buffered -= len(bucket)
            yield from bucket


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _agents_by_run(times: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """``agents`` reordered so that every run of equal ``times`` (which
    are non-decreasing) lists its agents in increasing order."""
    key = _sort_key(times, agents)
    if key is None:  # pragma: no cover - ids or times too far apart for one key
        return agents[np.lexsort((agents, times))]
    lo = int(agents.min())
    span = int(agents.max()) - lo + 1
    return np.sort(key) % span + lo


def _sort_key(major: np.ndarray, minor: np.ndarray) -> Optional[np.ndarray]:
    """``(major, minor)`` packed into one int64 key whose ascending order
    is the lexicographic order of the pairs, or ``None`` if the packed
    range would not fit in 62 bits."""
    lo = int(minor.min())
    span = int(minor.max()) - lo + 1
    base = int(major.min())
    if (int(major.max()) - base + 1) * span >= 1 << 62:
        return None
    return (major - base) * span + (minor - lo)


def _order(times: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """Indices sorting rows by ``(time, seq)`` (``seqs`` are distinct)."""
    key = _sort_key(times, seqs)
    if key is None:  # pragma: no cover - needs astronomically long streams
        return np.lexsort((seqs, times))
    return np.argsort(key)


def _merged(runs: List[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    """The rows of several ``(time, seq)``-sorted runs in one such order."""
    cols = [np.concatenate(col) for col in zip(*runs)]
    order = _order(cols[0], cols[1])
    return tuple(col[order] for col in cols)


class TimeOrderedColumns:
    """Columnar twin of :class:`TimeOrderedEmitter`.

    A columnar producer computes its rows out of program order, whole
    walks or whole node batches at a time, and tags each row with its
    *emission index*: its position in the order the per-``Move``
    generator would have emitted it.  Sorting by ``(time, emission
    index)`` is then exactly the emitter's stable sort by time.  Rows are
    buffered as sorted column runs; :meth:`release` merges every run's
    prefix up to the watermark (same promise as the emitter's: no future
    row completes at or before it) and yields it in blocks of at most
    ``block_rows`` rows.
    """

    def __init__(self, block_rows: int) -> None:
        self.block_rows = block_rows
        # each run: (time, seq, agent, src, dst, kind, role), sorted by
        # (time, seq)
        self._runs: List[Tuple[np.ndarray, ...]] = []
        self._released = 0

    def emit(self, times: np.ndarray, seqs: np.ndarray, *columns: np.ndarray) -> None:
        """Buffer rows: their ``times``, emission indices ``seqs`` and
        the five columns ``agent, src, dst, kind, role``."""
        if len(times):
            order = _order(times, seqs)
            self._runs.append(tuple(col[order] for col in (times, seqs, *columns)))

    def release(self, watermark: int) -> Iterator[Block]:
        """Yield every buffered row with ``time <= watermark`` in
        ``(time, emission index)`` order, as row blocks."""
        if self._released > watermark:
            raise ReproError(
                f"watermark went backwards ({watermark} < {self._released})"
            )
        self._released = watermark
        due: List[Tuple[np.ndarray, ...]] = []
        kept: List[Tuple[np.ndarray, ...]] = []
        for run in self._runs:
            cut = int(np.searchsorted(run[0], watermark, side="right"))
            if cut:
                due.append(tuple(col[:cut] for col in run))
            if cut < len(run[0]):
                kept.append(tuple(col[cut:].copy() for col in run) if cut else run)
        self._runs = kept
        if not due:
            return
        rows = due[0] if len(due) == 1 else _merged(due)
        del due  # only the rows to yield stay alive
        times, _, agents, srcs, dsts, kinds, roles = rows
        for lo in range(0, len(times), self.block_rows):
            hi = lo + self.block_rows
            yield (times[lo:hi], agents[lo:hi], srcs[lo:hi], dsts[lo:hi], kinds[lo:hi], roles[lo:hi])

    def drain(self) -> Iterator[Block]:
        """Yield everything left, in order (end of generation)."""
        if self._runs:
            yield from self.release(max(int(run[0][-1]) for run in self._runs))


#: rows of a walk batch before :class:`TimeOrderedColumns` sorts them:
#: ``(time, emission index, agent, src, dst, kind, role)``
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _walk_rows(
    d: int, agent: object, src: object, dst: object, start: object, seq: object, kind: int, role: int
) -> _Rows:
    """Rows of walks along :meth:`Hypercube.path_via_meet`, one walk per
    entry: ``agent`` goes ``src -> dst`` clearing the bits it must lose
    (highest first), then setting the bits it must gain (lowest first),
    one edge per time unit after ``start``, with emission indices counting
    up from ``seq``.  From the root (``src`` 0) that is the broadcast-tree
    path down (``tree_path_down``), to the root (``dst`` 0) the tree path
    home (``path_to_root``).  Columns: ``(time, seq, agent, src, dst,
    kind, role)``, walk after walk; the columnar producers share it."""
    agent, src, dst, start, seq = (
        np.asarray(col, dtype=np.int64) for col in (agent, src, dst, start, seq)
    )
    bits = np.arange(d, dtype=np.int64)
    order = np.concatenate((bits[::-1], bits))
    flips = np.concatenate(
        ((src & ~dst)[:, None] >> bits[::-1], (dst & ~src)[:, None] >> bits), axis=1
    ) & 1
    walk, column = np.nonzero(flips)
    step = np.left_shift(1, order[column])
    lengths = flips.sum(axis=1)
    first = np.cumsum(lengths) - lengths
    offset = np.arange(len(walk)) - first[walk]
    moved = np.cumsum(step)
    moved -= (moved - step)[first[walk]]
    to = src[walk] ^ moved
    count = len(walk)
    return (
        start[walk] + 1 + offset,
        seq[walk] + offset,
        agent[walk],
        to ^ step,
        to,
        np.full(count, kind, dtype=np.int64),
        np.full(count, role, dtype=np.int64),
    )


def block_rows_for(chunk_moves: int) -> int:
    """Rows per producer block for a stream cut into ``chunk_moves``
    chunks: the chunk size, kept within ``[MIN_BLOCK_ROWS,
    MAX_BLOCK_ROWS]`` so resident rows scale with the chunk size but
    never fall to per-row overhead or grow with a huge one."""
    return min(max(chunk_moves, MIN_BLOCK_ROWS), MAX_BLOCK_ROWS)


def _new_columns() -> List["array[int]"]:
    return [array("q") for _ in range(6)]


def _chunk(
    header: ChunkStreamHeader,
    index: int,
    start: int,
    cols: List["array[int]"],
    stats: ScheduleAggregates,
    is_last: bool = False,
    metadata: Optional[Dict[str, object]] = None,
) -> ScheduleChunk:
    times, agents, srcs, dsts, kinds, roles = cols
    return ScheduleChunk(
        header=header,
        index=index,
        start_move=start,
        times=times,
        agents=agents,
        srcs=srcs,
        dsts=dsts,
        kinds=kinds,
        roles=roles,
        stats_so_far=stats,
        is_last=is_last,
        metadata=dict(metadata or {}),
    )


def assemble_chunks(
    header: ChunkStreamHeader,
    blocks: BlockStream,
    chunk_moves: int = DEFAULT_CHUNK_MOVES,
) -> Iterator[ScheduleChunk]:
    """Cut a replay-ordered row-block stream into :class:`ScheduleChunk`\\ s.

    The one chunk assembler: columnar producers feed it directly, and
    :func:`chunk_move_stream` feeds it packed ``Move`` rows.  Each block
    is sliced at chunk boundaries; a slice is folded into the running
    aggregates (which raises on rows that go back in time, before the
    chunk holding them is yielded) and appended straight into the
    chunk's column buffers.  A full chunk is yielded as soon as it fills.

    The producer's ``return`` value is the stream footer — a dict with
    the final ``team_size`` and ``metadata``.  The footer's team size is
    cross-checked against the header's: the header value seeds the
    streaming verifier's homebase guards, so the two disagreeing means
    the strategy's up-front team prediction is wrong — a generator bug
    that must fail loudly, not degrade a verdict.

    Always emits at least one chunk (the empty-schedule stream is a
    single zero-move final chunk), and a schedule whose length is a
    multiple of ``chunk_moves`` ends in an empty final chunk.
    """
    if chunk_moves < 1:
        raise ReproError(f"chunk_moves must be >= 1, got {chunk_moves}")
    scanner = AggregateScanner()
    index = 0
    start = 0
    cols = _new_columns()
    footer: Dict[str, object] = {}
    while True:
        try:
            block = next(blocks)
        except StopIteration as stop:
            if stop.value is not None:
                footer = dict(stop.value)
            break
        total = len(block[0])
        offset = 0
        while offset < total:
            take = min(chunk_moves - len(cols[0]), total - offset)
            part = [col[offset : offset + take] for col in block]
            scanner.fold(part[0], part[1], part[4], part[5])
            for buf, col in zip(cols, part):
                buf.frombytes(np.ascontiguousarray(col, dtype=np.int64).view(np.uint8))
            offset += take
            if len(cols[0]) == chunk_moves:
                yield _chunk(header, index, start, cols, scanner.snapshot())
                index += 1
                start += chunk_moves
                cols = _new_columns()
    final_team = footer.get("team_size")
    if final_team is not None and int(final_team) != header.team_size:  # type: ignore[call-overload]
        raise ReproError(
            f"{header.strategy}(d={header.dimension}): streamed team size "
            f"{final_team} != predicted {header.team_size} — the strategy's "
            "up-front team prediction (expected_team_size) is wrong"
        )
    yield _chunk(
        header,
        index,
        start,
        cols,
        scanner.snapshot(),
        is_last=True,
        metadata=footer.get("metadata"),  # type: ignore[arg-type]
    )


def _pack_moves(moves: Iterator[Move], chunk_moves: int) -> BlockStream:
    """Encode a footered ``Move`` stream as row blocks, passing its footer on.

    A block never crosses a chunk boundary, so the assembler yields each
    chunk before this pulls the first move of the next one — a producer
    that raises mid-stream does so at the same point as it always did.
    """
    pack = block_rows_for(chunk_moves)
    packed = 0
    footer: Dict[str, object] = {}
    exhausted = False
    while not exhausted:
        cols = _new_columns()
        times, agents, srcs, dsts, kinds, roles = cols
        for _ in range(min(chunk_moves - packed % chunk_moves, pack)):
            try:
                move = next(moves)
            except StopIteration as stop:
                footer = dict(stop.value or {})
                exhausted = True
                break
            times.append(move.time)
            agents.append(move.agent)
            srcs.append(move.src)
            dsts.append(move.dst)
            kinds.append(KIND_CODE[move.kind])
            roles.append(ROLE_CODE[move.role])
        if len(times):
            packed += len(times)
            yield tuple(np.frombuffer(col, dtype=np.int64) for col in cols)  # type: ignore[misc]
    return footer


def chunk_move_stream(
    header: ChunkStreamHeader,
    moves: Iterator[Move],
    chunk_moves: int = DEFAULT_CHUNK_MOVES,
) -> Iterator[ScheduleChunk]:
    """Pack a replay-ordered move stream into :class:`ScheduleChunk`\\ s.

    ``moves`` is a footered ``Move`` stream: an already-materialized
    schedule's (:func:`chunks_from_schedule`), or a strategy's
    :meth:`~repro.core.strategy.Strategy.stream_moves` generator — for a
    strategy without a columnar producer (no registered one), and as the
    reference the columnar producers are tested against; its ``return``
    value is the stream footer.  The rows
    go through :func:`assemble_chunks`, so the chunks, the team-size
    cross-check and the errors are the ones a columnar producer gets.
    """
    return assemble_chunks(header, _pack_moves(moves, chunk_moves), chunk_moves)


def collect_stream(header: ChunkStreamHeader, moves: Iterator[Move]) -> Schedule:
    """Materialize a move stream into a full :class:`Schedule`.

    The thin collector behind the streaming strategies' ``generate``:
    drives the generator to exhaustion, captures the footer, and builds
    the exact ``Schedule`` the monolithic generator used to return.
    """
    collected: List[Move] = []
    footer: Dict[str, object] = {}
    while True:
        try:
            collected.append(next(moves))
        except StopIteration as stop:
            if stop.value is not None:
                footer = dict(stop.value)
            break
    team = int(footer.get("team_size", header.team_size))  # type: ignore[call-overload]
    schedule = Schedule(
        dimension=header.dimension,
        strategy=header.strategy,
        moves=collected,
        team_size=team,
        homebase=header.homebase,
        uses_cloning=header.uses_cloning,
    )
    schedule.metadata.update(dict(footer.get("metadata") or {}))  # type: ignore[call-overload]
    return schedule


def header_from_schedule(schedule: Schedule) -> ChunkStreamHeader:
    """The stream header of an already-materialized schedule."""
    return ChunkStreamHeader(
        dimension=schedule.dimension,
        strategy=schedule.strategy,
        homebase=schedule.homebase,
        uses_cloning=schedule.uses_cloning,
        team_size=schedule.team_size,
    )


def stream_from_schedule(schedule: Schedule) -> Iterator[Move]:
    """A footered move stream over an already-materialized schedule.

    The fallback behind the default
    :meth:`~repro.core.strategy.Strategy.stream_moves` — not bounded
    (the schedule already exists), but it lets every strategy speak the
    chunk protocol even before it grows a native streaming generator.
    """
    yield from schedule.moves
    return {  # type: ignore[return-value]
        "team_size": schedule.team_size,
        "metadata": dict(schedule.metadata),
    }


def chunks_from_schedule(
    schedule: Schedule, chunk_moves: int = DEFAULT_CHUNK_MOVES
) -> Iterator[ScheduleChunk]:
    """Chunk an already-materialized schedule (fallback / test helper)."""
    return chunk_move_stream(
        header_from_schedule(schedule), stream_from_schedule(schedule), chunk_moves
    )


def _chunk_rows(chunk: ScheduleChunk) -> Block:
    """The chunk's six columns as int64 views (no copy)."""
    return tuple(np.asarray(col, dtype=np.int64) for col in chunk.columns().values())  # type: ignore[return-value]


def rechunk(
    chunks: Iterable[ScheduleChunk], chunk_moves: int
) -> Iterator[ScheduleChunk]:
    """Re-slice a chunk stream to a different block size.

    Pure column surgery — no ``Move`` objects.  A stream already cut at
    ``chunk_moves`` is passed through: its chunks come out unchanged
    (index and position restamped if need be) with their own
    ``stats_so_far``, and nothing is folded.  Any other stream goes
    through :func:`assemble_chunks`, which folds the re-sliced blocks.
    Used by the cache's warm path to serve any requested ``chunk_moves``
    from the stored block size, and to slice a whole schedule
    (``rechunk((whole,), chunk_moves)``, see :func:`concat_chunks`) into
    the stream its producer would have given.

    The input must keep the stream contract: every chunk but the last
    holds the same number of moves.  Whether it is already cut at
    ``chunk_moves`` is decided on its first chunk, and a later chunk that
    breaks the cut raises :class:`~repro.errors.ScheduleError`.
    """
    if chunk_moves < 1:
        raise ReproError(f"chunk_moves must be >= 1, got {chunk_moves}")
    it = iter(chunks)
    try:
        first = next(it)
    except StopIteration:
        raise ScheduleError("cannot rechunk an empty stream (no chunks at all)") from None
    stream = itertools.chain([first], it)
    if len(first) == chunk_moves or (first.is_last and len(first) < chunk_moves):
        yield from _pass_through(stream, chunk_moves)
    else:
        yield from assemble_chunks(first.header, _reslice_blocks(stream), chunk_moves)


def _pass_through(
    chunks: Iterator[ScheduleChunk], chunk_moves: int
) -> Iterator[ScheduleChunk]:
    index = 0
    start = 0
    for chunk in chunks:
        full = len(chunk) == chunk_moves
        if len(chunk) > chunk_moves or not (full or chunk.is_last):
            raise ScheduleError(
                f"cannot rechunk: chunk {index} holds {len(chunk)} moves, "
                f"the stream is not cut at {chunk_moves}"
            )
        last = chunk.is_last and not full
        if (chunk.index, chunk.start_move, chunk.is_last) == (index, start, last):
            yield chunk
        else:
            yield dataclasses.replace(
                chunk,
                index=index,
                start_move=start,
                is_last=last,
                metadata=dict(chunk.metadata) if last else {},
            )
        index += 1
        start += len(chunk)
        if chunk.is_last:
            if full:  # a full final chunk is followed by an empty one
                yield _chunk(
                    chunk.header,
                    index,
                    start,
                    _new_columns(),
                    chunk.stats_so_far,
                    is_last=True,
                    metadata=chunk.metadata,
                )
            return
    raise ScheduleError("torn chunk stream: no final chunk seen")


def _reslice_blocks(chunks: Iterator[ScheduleChunk]) -> BlockStream:
    for chunk in chunks:
        yield _chunk_rows(chunk)
        if chunk.is_last:
            return {"metadata": chunk.metadata}
    raise ScheduleError("torn chunk stream: no final chunk seen")


def concat_chunks(chunks: Iterable[ScheduleChunk]) -> ScheduleChunk:
    """Assemble a chunk stream into the whole schedule as one chunk.

    Column concatenation only: the result is the stream's single final
    chunk (index 0, ``is_last``) with every row, the final aggregate
    block and the metadata — how the pipeline holds a producer's or a
    cache entry's stream whole.  Raises
    :class:`~repro.errors.ScheduleError` on a torn stream (no chunks, or
    no final chunk).
    """
    cols = _new_columns()
    header: Optional[ChunkStreamHeader] = None
    last: Optional[ScheduleChunk] = None
    for chunk in chunks:
        header = chunk.header
        for buf, col in zip(cols, chunk.columns().values()):
            buf.extend(col)
        if chunk.is_last:
            last = chunk
    if header is None:
        raise ScheduleError("empty chunk stream (no chunks at all)")
    if last is None:
        raise ScheduleError("torn chunk stream: no final chunk seen")
    return _chunk(header, 0, 0, cols, last.stats_so_far, is_last=True, metadata=last.metadata)


def chunks_to_schedule(chunks: Iterable[ScheduleChunk]) -> Schedule:
    """Materialize a chunk stream back into a full :class:`Schedule`.

    The inverse collector (tests, and callers that genuinely need
    ``Move`` objects from a streamed source or a whole chunk).  The
    final chunk's aggregate block is handed to the schedule, so it is
    never rescanned.  Raises on a torn stream.
    """
    it = iter(chunks)
    try:
        first = next(it)
    except StopIteration:
        raise ScheduleError("empty chunk stream (no chunks at all)") from None
    header = first.header
    moves: List[Move] = []
    last: Optional[ScheduleChunk] = None
    for chunk in itertools.chain([first], it):
        moves.extend(chunk.moves())
        if chunk.is_last:
            last = chunk
    if last is None:
        raise ScheduleError("torn chunk stream: no final chunk seen")
    schedule = Schedule(
        dimension=header.dimension,
        strategy=header.strategy,
        moves=moves,
        team_size=header.team_size,
        homebase=header.homebase,
        uses_cloning=header.uses_cloning,
        metadata=dict(last.metadata),
    )
    schedule._agg = last.stats_so_far
    schedule._agg_key = (len(moves), moves[-1] if moves else None)
    return schedule
