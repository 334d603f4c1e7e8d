"""Batch verification of whole schedules and chunk streams.

:func:`batch_verify` (the whole schedule as one chunk, see
:func:`~repro.core.chunkstream.concat_chunks`) and
:func:`batch_verify_chunks` (a chunk stream) check a schedule directly on
its int64 columns, one *time unit* at a time, against the same
predicates as :class:`~repro.analysis.verify.ScheduleVerifier`:
structure, monotonicity, contiguity (at time-unit boundaries),
completeness and intruder capture.  No ``Move`` objects are built.  Both
run the bit-plane kernel :class:`~repro.fastpath.npkernels.NPChunkVerifier`
for every strategy.  :class:`_ReplayState`, a per-move replay over flat
integer tables, is the reference: it continues a block the kernel
declines, and the parity tests compare the kernel against it.

Verdict equivalence
-------------------
For every schedule the generators emit, the verdict (``monotone``,
``contiguous``, ``complete``, ``intruder_captured``, ``ok``) equals the
classic verifier's.  The one semantic difference is *intra-unit* timing:
the classic verifier evaluates the departure rule after each move, while
the batch kernel evaluates each unit with all of the unit's arrivals in
effect.  The schedule plane's documented replay-order convention (moves
whose safety depends on another move of the same unit are ordered after
it, and each unit is internally consistent) makes the two equivalent on
generator output; a hand-built schedule that is only transiently unsafe
*within* one unit can pass here and fail there.  The equivalence tests
therefore exercise injected violations with one move per unit, where the
two replays are exactly the same computation.

Capture note: the omniscient reachable-set intruder is captured exactly
when no contaminated node remains (see
:class:`~repro.sim.intruder.ReachableSetIntruder`), so
``intruder_captured == complete`` by construction in both verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.chunkstream import ScheduleChunk
from repro.errors import (
    ContiguityError,
    IncompleteCleaningError,
    RecontaminationError,
    ScheduleError,
    SimulationError,
    VerificationError,
)
from repro.fastpath.npkernels import KernelFallback, NPChunkVerifier, plane_connected
from repro.topology.hypercube import Hypercube

__all__ = ["BatchVerificationReport", "batch_verify", "batch_verify_chunks"]


@dataclass
class BatchVerificationReport:
    """Verdict of one batch replay (mirrors ``VerificationReport``).

    Carries the same predicate fields and the same ``ok`` /
    ``raise_if_failed`` / ``summary`` surface as
    :class:`~repro.analysis.verify.VerificationReport`, so callers can
    treat the two interchangeably; the per-node timing maps the classic
    report collects for the figure benches are deliberately absent — the
    batch path exists to *not* do per-node Python bookkeeping.
    """

    dimension: int
    strategy: str
    monotone: bool
    contiguous: bool
    complete: bool
    intruder_captured: bool
    total_moves: int
    makespan: int
    team_size: int
    violations: List[str] = field(default_factory=list)
    #: blocks the bit-plane kernel declined and handed to the reference
    #: replay (0 on every valid schedule; a stream stays on the
    #: reference after its first decline).  How the verdict was reached,
    #: not part of it: left out of ``==``.
    declined: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        """All four correctness predicates hold and nothing was violated."""
        return (
            self.monotone
            and self.contiguous
            and self.complete
            and self.intruder_captured
            and not self.violations
        )

    def raise_if_failed(self) -> None:
        """Raise the most specific error if verification failed."""
        if not self.monotone:
            raise RecontaminationError(
                f"{self.strategy}(d={self.dimension}): recontamination occurred"
            )
        if not self.contiguous:
            raise ContiguityError(
                f"{self.strategy}(d={self.dimension}): decontaminated region disconnected"
            )
        if not self.complete:
            raise IncompleteCleaningError(
                f"{self.strategy}(d={self.dimension}): contaminated nodes remain"
            )
        if not self.intruder_captured:
            raise VerificationError(
                f"{self.strategy}(d={self.dimension}): intruder not captured"
            )
        if self.violations:
            raise VerificationError(
                f"{self.strategy}(d={self.dimension}): {self.violations[0]}"
            )

    def summary(self) -> str:
        """One-line verdict in the classic report's format."""
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"[{verdict}] {self.strategy}(d={self.dimension}): "
            f"monotone={self.monotone} contiguous={self.contiguous} "
            f"complete={self.complete} captured={self.intruder_captured} "
            f"moves={self.total_moves} makespan={self.makespan} team={self.team_size}"
        )


def _region_connected(region: int, homebase: int, topo: Hypercube) -> bool:
    """Bitset BFS: is ``region`` connected?  Start at the homebase when it
    is in the region, else at the lowest set bit (deterministic)."""
    if not region:
        return True
    home_bit = 1 << homebase
    frontier = home_bit if region & home_bit else region & -region
    reached = frontier
    while frontier:
        frontier = topo.spread_mask(frontier) & region & ~reached
        reached |= frontier
    return reached == region


def _region_mask_from(in_region: bytearray) -> int:
    """Pack the 0/1 per-node region table into a node bitmask."""
    out = 0
    for x, flag in enumerate(in_region):
        if flag:
            out |= 1 << x
    return out


class _ReplayState:
    """The reference replay: a per-move incremental state machine.

    It runs as the continuation of a block the kernel declines
    (:meth:`_NPReplayAdapter._demote`) and as the parity tests' oracle.
    One instance verifies one schedule, fed as any number of column
    blocks (:meth:`feed`) followed by :meth:`finish`.  All state a time
    unit can leave behind (guard counts, region tables, agent
    position/clock maps, the vacated list of a *still-open* unit, the
    contiguity trichotomy) lives on the instance, so a chunk boundary —
    even one splitting a time unit — is invisible to the verdict, and
    error messages cite the same global move index ``#k`` either way.
    """

    def __init__(
        self,
        dimension: int,
        strategy: str,
        homebase: int,
        uses_cloning: bool,
        team: int,
        topo: Hypercube,
    ) -> None:
        if topo.n != (1 << dimension):
            raise ScheduleError(
                f"topology has {topo.n} nodes but schedule is d={dimension}"
            )
        self.dimension = dimension
        self.strategy = strategy
        self.homebase = homebase
        self.uses_cloning = uses_cloning
        self.team = team
        self.topo = topo
        d, n = dimension, topo.n
        self.n = n
        # neighbour ids come from on-the-fly XOR with these single-bit
        # masks (an eager per-node adjacency table would cost O(n·d) to
        # build — more than the whole replay for sparse schedules)
        self.bits = [1 << p for p in range(d)]

        # --- initial deployment ---------------------------------------- #
        self.guard_count = [0] * n
        self.guard_count[homebase] = 1 if uses_cloning else team
        self.in_region = bytearray(n)
        self.in_region[homebase] = 1
        self.region_size = 1
        # contam_count[x] = number of contaminated neighbours of x; the
        # departure rule and the "arrival adjacent to region?" test both
        # become O(1) reads of this table
        self.contam_count = [d] * n
        for b in self.bits:
            self.contam_count[homebase ^ b] -= 1
        self.position: Dict[int, int] = {}
        self.clock: Dict[int, int] = {}
        if uses_cloning:
            self.position[0] = homebase

        self.violations: List[str] = []
        self.recontaminated = False
        self.contiguous = True
        # incremental contiguity cache, same trichotomy as
        # ContaminationMap: True = known connected, False = known verdict
        # already recorded, None = stale (non-extending growth or
        # recontamination) -> BFS
        self.contig_cache: Optional[bool] = True

        self.vacated: List[int] = []
        self.unit_time = 0  # the currently open time unit (0 = none yet)
        self.moves_seen = 0  # global index of the next move

    def _flood_from(self, v: int, first_cause: int) -> None:
        """Violation path: recontaminate ``v`` and spread through every
        unguarded clean node reachable from it (never fires on valid
        schedules, so clarity over speed)."""
        self.recontaminated = True
        self.contig_cache = None
        in_region, guard_count, contam_count = (
            self.in_region,
            self.guard_count,
            self.contam_count,
        )
        stack = [(v, first_cause)]
        while stack:
            x, cause = stack.pop()
            if not in_region[x]:
                continue
            in_region[x] = 0
            self.region_size -= 1
            self.violations.append(f"node {x} recontaminated from {cause}")
            for b in self.bits:
                u = x ^ b
                contam_count[u] += 1
                if in_region[u] and guard_count[u] == 0:
                    stack.append((u, x))

    def _settle_unit(self) -> None:
        """Close the open time unit: departure rule on every vacated
        node, then the boundary contiguity check."""
        in_region, guard_count, contam_count = (
            self.in_region,
            self.guard_count,
            self.contam_count,
        )
        if self.region_size < self.n:
            for v in self.vacated:
                # still unguarded (not re-arrived within the unit), now
                # clean: it stays clean iff no neighbour is contaminated
                if guard_count[v] == 0 and in_region[v] and contam_count[v]:
                    for b in self.bits:
                        if not in_region[v ^ b]:
                            self._flood_from(v, v ^ b)
                            break
        del self.vacated[:]

        # --- boundary contiguity check --------------------------------- #
        if self.contig_cache is None:
            self.contig_cache = self.region_size == 0 or _region_connected(
                _region_mask_from(in_region), self.homebase, self.topo
            )
        if self.contig_cache is False:
            self.contiguous = False
            self.violations.append(f"region disconnected at time {self.unit_time}")
            self.contig_cache = None  # re-derive at the next boundary

    def feed(
        self,
        times: Sequence[int],
        agents: Sequence[int],
        srcs: Sequence[int],
        dsts: Sequence[int],
    ) -> None:
        """Replay one block of columns (any length, any alignment).

        The hot loop touches no Python objects beyond flat integer
        tables.  A time unit is settled the moment a later time arrives
        — which may be in a later block: unit boundaries and block
        boundaries are independent.
        """
        d, n = self.dimension, self.n
        homebase, uses_cloning = self.homebase, self.uses_cloning
        bits = self.bits
        guard_count, in_region, contam_count = (
            self.guard_count,
            self.in_region,
            self.contam_count,
        )
        position, clock, vacated = self.position, self.clock, self.vacated
        for local in range(len(times)):
            k = self.moves_seen
            t = times[local]
            if t < self.unit_time:
                raise ScheduleError(
                    f"move #{k} goes back in time ({t} < {self.unit_time})"
                )
            if t < 1:
                raise ScheduleError(f"move time must be >= 1, got {t}")
            if t != self.unit_time:
                if self.unit_time:
                    self._settle_unit()
                self.unit_time = t
            agent, src, dst = agents[local], srcs[local], dsts[local]
            # structure: chained positions, homebase starts, one move per
            # unit per agent, edges only (fused into the replay scan so
            # the columns are walked exactly once)
            prev = position.get(agent)
            if prev is None:
                if uses_cloning:
                    # clone materializes at src; placement must not touch
                    # contaminated ground away from the homebase
                    if not 0 <= src < n:
                        raise ScheduleError(f"move #{k}: node {src} out of range")
                    if not in_region[src]:
                        if src != homebase:
                            raise SimulationError(
                                f"cannot place an agent on contaminated node {src} "
                                f"(contiguous model)"
                            )
                        if self.region_size == 0:
                            self.contig_cache = True
                        elif not (
                            self.contig_cache is True and contam_count[src] < d
                        ):
                            self.contig_cache = None
                        in_region[src] = 1
                        self.region_size += 1
                        for b in bits:
                            contam_count[src ^ b] -= 1
                    guard_count[src] += 1
                elif src != homebase:
                    raise ScheduleError(
                        f"move #{k}: agent {agent} first appears at {src}, "
                        f"not the homebase {homebase}"
                    )
            else:
                if prev != src:
                    raise ScheduleError(
                        f"move #{k}: agent {agent} moves from {src} but is at {prev}"
                    )
                if clock.get(agent, 0) >= t:
                    raise ScheduleError(
                        f"move #{k}: agent {agent} moves twice within one time unit"
                    )
            edge = src ^ dst
            if src == dst or edge & (edge - 1) or edge >= n or not 0 <= dst < n:
                raise ScheduleError(f"move #{k} ({src}->{dst}) is not an edge")
            if guard_count[src] <= 0:
                raise SimulationError(f"no agent on {src} to move")
            position[agent] = dst
            clock[agent] = t
            # apply departure+arrival on the guard counts; the departure
            # rule itself is settled once per unit at the unit boundary
            guard_count[src] -= 1
            if guard_count[src] == 0:
                vacated.append(src)
            guard_count[dst] += 1
            if not in_region[dst]:
                # incremental contiguity bookkeeping, in arrival order:
                # extending a connected region by an adjacent node keeps
                # it connected; anything else goes stale for the BFS
                if self.region_size == 0:
                    self.contig_cache = True
                elif not (self.contig_cache is True and contam_count[dst] < d):
                    self.contig_cache = None
                in_region[dst] = 1
                self.region_size += 1
                for b in bits:
                    contam_count[dst ^ b] -= 1
            self.moves_seen += 1

    def finish(
        self,
        declared_team_size: int,
        agents_used: int,
        total_moves: int,
        makespan: int,
    ) -> BatchVerificationReport:
        """Settle the last open unit and produce the verdict."""
        if self.unit_time:
            self._settle_unit()

        if declared_team_size and agents_used > declared_team_size:
            raise ScheduleError(
                f"{agents_used} agents appear in moves but "
                f"team_size={declared_team_size}"
            )

        complete = self.region_size == self.n
        if not complete:
            in_region = self.in_region
            remaining = [x for x in range(self.n) if not in_region[x]]
            self.violations.append(
                f"{len(remaining)} contaminated nodes remain: {remaining[:8]}"
            )
        return BatchVerificationReport(
            dimension=self.dimension,
            strategy=self.strategy,
            monotone=not self.recontaminated,
            contiguous=self.contiguous,
            complete=complete,
            intruder_captured=complete,
            total_moves=total_moves,
            makespan=makespan,
            team_size=max(self.team, agents_used, 1),
            violations=self.violations,
        )


class _NPReplayAdapter:
    """The verifier of both batch entry points: :class:`NPChunkVerifier`
    with the reference replay as its continuation.

    The kernel only ever *settles* state the reference would accept
    silently; the moment it declines a block (:class:`KernelFallback` —
    which covers every malformed or invariant-violating schedule), this
    adapter rebuilds a :class:`_ReplayState` from the last settled
    boundary and replays the rows since then through it, so verdicts,
    violation strings and error messages (global move indices included)
    are byte-identical to the reference replay.  ``declined`` counts
    those hand-overs.
    """

    def __init__(
        self,
        dimension: int,
        strategy: str,
        homebase: int,
        uses_cloning: bool,
        team: int,
        topo: Hypercube,
    ) -> None:
        if topo.n != (1 << dimension):
            raise ScheduleError(
                f"topology has {topo.n} nodes but schedule is d={dimension}"
            )
        self.dimension = dimension
        self.strategy = strategy
        self.homebase = homebase
        self.uses_cloning = uses_cloning
        self.team = team
        self.topo = topo
        self._kernel: Optional[NPChunkVerifier] = NPChunkVerifier(
            dimension, homebase, team, uses_cloning
        )
        self._replay: Optional[_ReplayState] = None
        self.declined = 0

    def _demote(self) -> _ReplayState:
        """Build the reference continuation state and replay the declined rows."""
        kernel = self._kernel
        assert kernel is not None
        state = _ReplayState(
            dimension=self.dimension,
            strategy=self.strategy,
            homebase=self.homebase,
            uses_cloning=self.uses_cloning,
            team=self.team,
            topo=self.topo,
        )
        export = kernel.export_replay_state()
        state.guard_count = export["guard_count"]
        state.in_region = export["in_region"]
        state.contam_count = export["contam_count"]
        state.region_size = export["region_size"]
        state.position = export["position"]
        state.clock = export["clock"]
        state.moves_seen = export["moves_seen"]
        # the settled prefix ends on a unit boundary: vacated is
        # empty and the adjacent-extension invariant held throughout, so
        # the incremental contiguity cache is a known True
        state.unit_time = export["unit_time"]
        pending = kernel.pending_rows()
        self._replay = state
        self._kernel = None
        self.declined += 1
        state.feed(*pending)
        return state

    def feed(
        self,
        times: Sequence[int],
        agents: Sequence[int],
        srcs: Sequence[int],
        dsts: Sequence[int],
    ) -> None:
        if self._replay is not None:
            self._replay.feed(times, agents, srcs, dsts)
            return
        assert self._kernel is not None
        try:
            self._kernel.feed(times, agents, srcs, dsts)
        except KernelFallback:
            self._demote()

    def finish(
        self,
        declared_team_size: int,
        agents_used: int,
        total_moves: int,
        makespan: int,
    ) -> BatchVerificationReport:
        if self._replay is None:
            assert self._kernel is not None
            try:
                self._kernel.finish_tail()
            except KernelFallback:
                self._demote()
        if self._replay is not None:
            report = self._replay.finish(
                declared_team_size, agents_used, total_moves, makespan
            )
            report.declined = self.declined
            return report
        kernel = self._kernel
        assert kernel is not None
        if declared_team_size and agents_used > declared_team_size:
            raise ScheduleError(
                f"{agents_used} agents appear in moves but "
                f"team_size={declared_team_size}"
            )
        violations: List[str] = []
        complete = kernel.region_size == kernel.n
        if not complete:
            remaining_count = kernel.n - kernel.region_size
            violations.append(
                f"{remaining_count} contaminated nodes remain: "
                f"{kernel.contaminated_sample(8)}"
            )
        # defensive cross-check of the committed invariant: the region
        # grew only by adjacent extension, so it must be connected — a
        # frontier BFS on the packed plane (cheap, runs once per verdict)
        contiguous = kernel.region_size == 0 or plane_connected(
            kernel.clean_plane, kernel.d, kernel.home
        )
        return BatchVerificationReport(
            dimension=self.dimension,
            strategy=self.strategy,
            monotone=True,
            contiguous=contiguous,
            complete=complete,
            intruder_captured=complete,
            total_moves=total_moves,
            makespan=makespan,
            team_size=max(self.team, agents_used, 1),
            violations=violations,
        )


def batch_verify(
    whole: ScheduleChunk,
    topology: Optional[Hypercube] = None,
    *,
    tracer: Optional[object] = None,
) -> BatchVerificationReport:
    """Verify the whole schedule ``whole`` on the bit-plane kernel.

    ``whole`` is one final chunk holding every row
    (:func:`~repro.core.chunkstream.concat_chunks`).  Its aggregate
    block is known before the first move, so the homebase is seeded
    with ``max(team_size, agents_used, 1)`` agents, as
    :func:`~repro.analysis.verify.verify_schedule` does: a schedule that
    declares too small a team fails at the verdict with the classic
    verifier's error, not at the move where the homebase runs out.

    ``tracer`` is duck-typed (anything with a ``span(name, **attrs)``
    context manager — this module must not import ``repro.obs``, lint
    rule ``RPR220``); when given, the check runs under a
    ``fastpath.batch_verify`` span, whose attrs carry the verdict and
    the ``declined`` count.

    Every strategy, cloning included, runs on
    :class:`~repro.fastpath.npkernels.NPChunkVerifier`, which reads the
    int64 columns without copying them and hands every block it cannot
    prove safe to the reference replay :class:`_ReplayState`, so
    verdicts, violation strings and error messages are the reference's.

    Structure malformation raises :class:`~repro.errors.ScheduleError`
    (and illegal clone placement :class:`~repro.errors.SimulationError`),
    matching the classic verifier; invariant failures never raise — they
    are recorded on the returned report.
    """
    agents_used = whole.stats_so_far.agents_used
    if tracer is None:
        return _verify((whole,), topology, agents_used)
    with tracer.span(  # type: ignore[attr-defined]
        "fastpath.batch_verify",
        dimension=whole.header.dimension,
        moves=whole.stats_so_far.total_moves,
    ) as span:
        report = _verify((whole,), topology, agents_used)
        span.attrs["ok"] = report.ok
        span.attrs["declined"] = report.declined
        return report


def batch_verify_chunks(
    chunks: Iterable[ScheduleChunk],
    topology: Optional[Hypercube] = None,
    *,
    tracer: Optional[object] = None,
) -> BatchVerificationReport:
    """Streaming :func:`batch_verify`: one chunk resident at a time.

    Consumes a :class:`~repro.core.chunkstream.ScheduleChunk` stream
    (from :meth:`Strategy.generate_chunks
    <repro.core.strategy.Strategy.generate_chunks>`, a cache's
    ``stream_chunks`` or :func:`~repro.core.chunkstream.rechunk`),
    carrying the replay state across chunk boundaries — a boundary may
    split a time unit; the unit is settled once a later time arrives,
    whichever chunk that lands in.  On a stream whose header declares
    its team correctly, the verdict and every error message (global
    move indices included) are identical to :func:`batch_verify` on the
    concatenated chunk.

    Peak memory: the chunk stream itself is *not* what dominates — the
    PR 9 measurements showed the O(n) per-node tables (guard counts,
    region/contamination tables) overtake the one-chunk window from
    d≈16 up, which is why the bit-plane kernel packs the region into
    ``uint64`` bit-planes and flat int64 tables (about 25 MiB of state
    at d=20 versus hundreds of MiB of boxed-int lists in the reference
    replay).  Either way a single resident chunk bounds the *stream's*
    contribution; the node tables set the floor.

    The stream header must carry the exact team size: the stream's
    totals arrive only with its final chunk, so the homebase is seeded
    with the header's ``max(team_size, 1)`` guards before the first
    move, and the final chunk's aggregate block supplies the report's
    totals.  Raises :class:`~repro.errors.ScheduleError` on a torn
    stream (no final chunk).
    """
    if tracer is None:
        return _verify(chunks, topology, 0)
    with tracer.span(  # type: ignore[attr-defined]
        "fastpath.batch_verify_chunks"
    ) as span:
        report = _verify(chunks, topology, 0)
        span.attrs["dimension"] = report.dimension
        span.attrs["moves"] = report.total_moves
        span.attrs["ok"] = report.ok
        span.attrs["declined"] = report.declined
        return report


def _verify(
    chunks: Iterable[ScheduleChunk],
    topology: Optional[Hypercube],
    agents_used: int,
) -> BatchVerificationReport:
    """The body of both entry points: feed every chunk to one
    :class:`_NPReplayAdapter`, then judge from the final chunk's block.

    The homebase starts with ``max(team_size, agents_used, 1)`` agents:
    ``agents_used`` is the whole schedule's count for
    :func:`batch_verify` and 0 for a stream.
    """
    state: Optional[_NPReplayAdapter] = None
    last: Optional[ScheduleChunk] = None
    for chunk in chunks:
        if state is None:
            header = chunk.header
            state = _NPReplayAdapter(
                dimension=header.dimension,
                strategy=header.strategy,
                homebase=header.homebase,
                uses_cloning=header.uses_cloning,
                team=max(header.team_size, agents_used, 1),
                topo=topology or Hypercube(header.dimension),
            )
        state.feed(chunk.times, chunk.agents, chunk.srcs, chunk.dsts)
        if chunk.is_last:
            last = chunk
    if state is None:
        raise ScheduleError("empty chunk stream (no chunks at all)")
    if last is None:
        raise ScheduleError("torn chunk stream: no final chunk seen")
    stats = last.stats_so_far
    return state.finish(
        declared_team_size=last.header.team_size,
        agents_used=stats.agents_used,
        total_moves=stats.total_moves,
        makespan=stats.makespan,
    )
