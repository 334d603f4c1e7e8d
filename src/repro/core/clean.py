"""Algorithm 1 — ``CLEAN`` (Section 3.2): synchronizer-coordinated search.

One agent, the *synchronizer*, coordinates the whole process by walking the
hypercube; the other agents only move when instructed (via whiteboards in
the distributed implementation, see
:mod:`repro.protocols.clean_protocol`).  The strategy proceeds level by
level on the broadcast tree:

1. **Root to level 1** — the synchronizer escorts one agent to each of the
   root's ``d`` children, returning to the root in between.
2. **Level ``l`` to ``l+1``** (for ``l = 1 .. d-1``):

   2.1 the synchronizer goes back to the root; the root dispatches ``k-1``
   extra agents to every level-``l`` node of type ``T(k)``, ``k >= 2``
   (travelling down the broadcast-tree path);

   2.2 the synchronizer visits the level-``l`` nodes in increasing integer
   order (= the paper's lexicographic order read from the most significant
   position — Lemma 1 requires exactly this order), waits until the ``k``
   agents are present, and escorts one agent down each tree edge;

   2.3 when the synchronizer reaches a *leaf* of level ``l``, the agent on
   it is released and walks back to the root to become available again.

Timing model: ideal time, one unit per edge; the synchronizer's actions are
sequential, extra agents travel concurrently with it, and the synchronizer
waits at a node until the agents it needs have arrived.  Agents are hired
from the homebase pool on demand, so the resulting ``team_size`` *is* the
measured Theorem 2 quantity (tests check it equals
:func:`repro.analysis.formulas.clean_peak_agents`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._bitops import popcount_array
from repro.analysis import formulas
from repro.core.chunkstream import (
    KIND_CODE,
    ROLE_CODE,
    BlockStream,
    ChunkStreamHeader,
    TimeOrderedColumns,
    TimeOrderedEmitter,
    _Rows,
    _walk_rows,
    collect_stream,
)
from repro.core.schedule import Move, MoveKind, Schedule
from repro.core.states import AgentRole
from repro.core.strategy import Strategy, register
from repro.errors import ReproError
from repro.topology.broadcast_tree import BroadcastTree
from repro.topology.hypercube import Hypercube

__all__ = ["CleanStrategy"]

SYNCHRONIZER_ID = 0

# row codes of the columnar producer
NAVIGATE = KIND_CODE[MoveKind.NAVIGATE]
DISPATCH = KIND_CODE[MoveKind.DISPATCH]
RETURN = KIND_CODE[MoveKind.RETURN]
DEPLOY = KIND_CODE[MoveKind.DEPLOY]
ESCORT = KIND_CODE[MoveKind.ESCORT]
AGENT = ROLE_CODE[AgentRole.AGENT]
SYNC = ROLE_CODE[AgentRole.SYNCHRONIZER]


@dataclass
class _AgentState:
    """Book-keeping for one plain agent in the generator."""

    ident: int
    position: int
    ready: int  # time at which the agent is settled at `position`


class _Pool:
    """The set of available agents at the root, ordered by readiness.

    ``acquire`` pops the earliest-ready agent or hires a fresh one when the
    pool is empty — hiring is what measures the team size.
    """

    def __init__(self) -> None:
        self._heap: List[tuple[int, int]] = []  # (ready, ident)
        self._agents: Dict[int, _AgentState] = {}
        self._next_id = 1  # 0 is the synchronizer

    def acquire(self) -> _AgentState:
        if self._heap:
            _, ident = heapq.heappop(self._heap)
            return self._agents[ident]
        agent = _AgentState(ident=self._next_id, position=0, ready=0)
        self._next_id += 1
        self._agents[agent.ident] = agent
        return agent

    def release(self, agent: _AgentState) -> None:
        if agent.position != 0:
            raise ReproError(f"agent {agent.ident} released away from the root")
        heapq.heappush(self._heap, (agent.ready, agent.ident))

    @property
    def hired(self) -> int:
        return self._next_id - 1


@register
class CleanStrategy(Strategy):
    """Algorithm 1 of the paper (coordinated, whiteboard model)."""

    name = "clean"
    model = "whiteboard"

    def expected_team_size(self, d: int) -> Optional[int]:
        return formulas.clean_peak_agents(d)

    def expected_total_moves(self, d: int) -> Optional[int]:
        return None  # Theorem 3 gives the agent component exactly, rest is a bound

    def expected_makespan(self, d: int) -> Optional[int]:
        return None  # Theorem 4 is O(n log n)

    # ------------------------------------------------------------------ #

    def generate(self, hypercube: Hypercube) -> Schedule:
        header = ChunkStreamHeader(
            dimension=hypercube.d,
            strategy=self.name,
            homebase=0,
            uses_cloning=False,
            team_size=formulas.clean_peak_agents(hypercube.d),
        )
        return collect_stream(header, self.stream_moves(hypercube))

    def stream_moves(self, hypercube: Hypercube) -> Iterator[Move]:
        """Native streaming generator: ``O(level width)`` buffered moves.

        The monolithic generator emitted moves in *program* order (each
        agent's whole walk at its dispatch point) and stable-sorted by
        completion time at the end.  Here the same emission order feeds a
        :class:`~repro.core.chunkstream.TimeOrderedEmitter` released at
        the synchronizer clock: every walk starts at
        ``max(agent.ready, sync_time)`` and ``sync_time`` never
        decreases, so no future move can complete at or before the
        current clock — flushing up to it reproduces the stable sort
        byte-for-byte while only the walks racing ahead of the
        synchronizer stay buffered.
        """
        d = hypercube.d
        tree = BroadcastTree(hypercube)
        emitter = TimeOrderedEmitter()
        pool = _Pool()

        # one guard agent per currently guarded node of the active level
        guards: Dict[int, List[_AgentState]] = {}

        sync_pos = 0
        sync_time = 0
        extras_per_level: Dict[int, int] = {}
        active_per_level: Dict[int, int] = {}

        def sync_step(dst: int, kind: MoveKind) -> None:
            nonlocal sync_pos, sync_time
            sync_time += 1
            emitter.emit(
                Move(
                    agent=SYNCHRONIZER_ID,
                    src=sync_pos,
                    dst=dst,
                    time=sync_time,
                    role=AgentRole.SYNCHRONIZER,
                    kind=kind,
                )
            )
            sync_pos = dst

        def sync_navigate(dst: int) -> None:
            # Route through the meet: descend into the already-clean levels
            # before climbing back up, never touching contaminated nodes.
            path = hypercube.path_via_meet(sync_pos, dst)
            for node in path[1:]:
                sync_step(node, MoveKind.NAVIGATE)

        def agent_walk(agent: _AgentState, path: List[int], kind: MoveKind) -> None:
            """Move an agent along ``path`` starting when it is ready."""
            t = agent.ready
            for src, dst in zip(path, path[1:]):
                t += 1
                emitter.emit(Move(agent=agent.ident, src=src, dst=dst, time=t, kind=kind))
            agent.position = path[-1]
            agent.ready = t

        if d == 0:
            return {  # type: ignore[return-value]
                "team_size": 1,
                "metadata": {"extras_per_level": {}, "active_per_level": {}},
            }

        # ---------------- Step 1: root to level 1 ---------------------- #
        # Escort one agent to each of the d children T(d-1) .. T(0); the
        # synchronizer accompanies each and returns to the root.
        for child in tree.children(0):
            agent = pool.acquire()
            start = max(sync_time, agent.ready)
            sync_time = start  # synchronizer waits for the agent if needed
            agent.ready = start
            agent_walk(agent, [0, child], MoveKind.DEPLOY)
            sync_step(child, MoveKind.ESCORT)
            sync_step(0, MoveKind.ESCORT)
            sync_time = max(sync_time, agent.ready)
            guards[child] = [agent]
            yield from emitter.release(sync_time)
        active_per_level[0] = d + 1

        # ---------------- Step 2: level l to level l + 1 ---------------- #
        for level in range(1, d):
            level_nodes = hypercube.level_nodes(level)

            # 2.1 -- collect and dispatch the extra agents from the root.
            needs_extras = any(tree.node_type(x) >= 2 for x in level_nodes)
            if sync_pos != 0:
                sync_navigate(0)
            dispatched = 0
            if needs_extras:
                for x in level_nodes:
                    k = tree.node_type(x)
                    for _ in range(max(0, k - 1)):
                        agent = pool.acquire()
                        agent.ready = max(agent.ready, sync_time)
                        agent_walk(agent, tree.path_from_root(x), MoveKind.DISPATCH)
                        guards.setdefault(x, []).append(agent)
                        dispatched += 1
            extras_per_level[level] = dispatched
            active_per_level[level] = (
                sum(len(v) for v in guards.values()) + 1
            )  # + synchronizer

            # 2.2 / 2.3 -- walk level l in increasing (lexicographic) order.
            for x in level_nodes:
                sync_navigate(x)
                k = tree.node_type(x)
                squad = guards.pop(x)
                if len(squad) != max(1, k):
                    raise ReproError(
                        f"node {x} (type T({k})) holds {len(squad)} agents, "
                        f"expected {max(1, k)}"
                    )
                # wait until everyone assigned to x has actually arrived
                sync_time = max(sync_time, max(a.ready for a in squad))

                if k == 0:
                    # 2.3: leaf reached -- release the agent back to the root
                    (agent,) = squad
                    agent.ready = max(agent.ready, sync_time)
                    agent_walk(agent, tree.path_to_root(x), MoveKind.RETURN)
                    pool.release(agent)
                    yield from emitter.release(sync_time)
                    continue

                # escort one agent down each broadcast-tree edge
                for child in tree.children(x):
                    agent = squad.pop()
                    agent.ready = max(agent.ready, sync_time)
                    sync_time = agent.ready
                    agent_walk(agent, [x, child], MoveKind.DEPLOY)
                    sync_step(child, MoveKind.ESCORT)
                    sync_step(x, MoveKind.ESCORT)
                    sync_time = max(sync_time, agent.ready)
                    guards[child] = [agent]
                if squad:
                    raise ReproError(f"agents left behind on {x}")
                yield from emitter.release(sync_time)

        # Final tidy-up: the agent guarding the last node (11...1, the only
        # level-d node) walks home — all its neighbours (the whole of level
        # d-1) are clean, so the node stays clean.  This matches Theorem
        # 3's accounting, where every agent's journey ends back at the
        # root (2l moves per leaf at level l, including l = d).
        final_node = (1 << d) - 1
        if final_node in guards:
            (agent,) = guards.pop(final_node)
            agent.ready = max(agent.ready, sync_time)
            agent_walk(agent, tree.path_to_root(final_node), MoveKind.RETURN)
            pool.release(agent)

        # Flush the last buffered walks in completion-time order — the
        # streaming equivalent of the old stable sort by time.
        yield from emitter.drain()

        return {  # type: ignore[return-value]
            "team_size": pool.hired + 1,  # + the synchronizer
            "metadata": {
                "extras_per_level": extras_per_level,
                "active_per_level": active_per_level,
                "synchronizer_id": SYNCHRONIZER_ID,
            },
        }

    def stream_blocks(self, hypercube: Hypercube, block_rows: int) -> BlockStream:
        """Columnar producer: Algorithm 1 one level at a time, in numpy.

        Same rows and footer as :meth:`stream_moves`, which stays the
        reference.  The per-``Move`` generator makes its decisions node by
        node; here each level's decisions are closed forms over arrays
        aligned with the level's nodes (increasing order):

        * the extras for level ``l`` leave the root when the synchronizer
          gets back there, taken from the pool in ``(ready, id)`` order and
          hired after it runs dry, and each walks ``l`` edges;
        * the synchronizer reaches node ``i`` after navigating from node
          ``i-1``, waits for its squad (ready at ``R_i``) and leaves after
          ``2k_i`` escort steps, so ``leave_i = max(leave_{i-1} + nav_i,
          R_i) + 2k_i``, a running maximum after subtracting the prefix
          sums of ``nav + 2k``;
        * a leaf's guard walks home when the synchronizer arrives, and the
          ``j``-th child of a node of type ``T(k)`` is escorted at
          ``start + 2j`` by the squad's agent ``k-1-j`` (the guard last).

        Every row carries its emission index — its position in
        :meth:`stream_moves`' program order — and the rows pass through
        :class:`~repro.core.chunkstream.TimeOrderedColumns`, released at
        the synchronizer clock exactly like the per-``Move`` emitter.
        Rows are built for node batches of about ``block_rows`` rows, so
        the producer holds a batch plus one level's dispatch burst.
        """
        d = hypercube.d
        if d == 0:
            return {"team_size": 1, "metadata": {"extras_per_level": {}, "active_per_level": {}}}
        out = TimeOrderedColumns(block_rows)

        # Step 1: the synchronizer escorts hired agents 1..d to the root's
        # children, back at the root after each.
        nodes = np.left_shift(1, np.arange(d, dtype=np.int64))
        guard = np.arange(1, d + 1, dtype=np.int64)
        begin = 2 * np.arange(d, dtype=np.int64)
        out.emit(*_escort_rows(
            np.zeros(d, dtype=np.int64), nodes, guard, begin, 3 * np.arange(d, dtype=np.int64)
        ))
        ready = begin + 1
        msb = np.arange(1, d + 1, dtype=np.int64)
        clock = 2 * d
        seq = 3 * d
        position = 0
        next_id = d + 1
        pool_ready = np.zeros(0, dtype=np.int64)
        pool_id = np.zeros(0, dtype=np.int64)
        yield from out.release(clock)
        extras_per_level: Dict[int, int] = {}
        active_per_level: Dict[int, int] = {0: d + 1}

        for level in range(1, d):
            m = len(nodes)
            k = d - msb
            # 2.1 -- back to the root, then dispatch the extras
            if position:
                out.emit(*_walk_rows(d, [0], [position], [0], [clock], [seq], NAVIGATE, SYNC))
                steps = int(position).bit_count()
                clock += steps
                seq += steps
                position = 0
            extras = np.maximum(k - 1, 0)
            total = int(extras.sum())
            first_extra = np.cumsum(extras) - extras
            extra_id = np.zeros(0, dtype=np.int64)
            if total:
                order = np.lexsort((pool_id, pool_ready))
                taken = order[:total]
                hired = total - len(taken)
                extra_id = np.concatenate(
                    (pool_id[taken], np.arange(next_id, next_id + hired, dtype=np.int64))
                )
                extra_start = np.maximum(
                    np.concatenate((pool_ready[taken], np.zeros(hired, dtype=np.int64))), clock
                )
                pool_ready = pool_ready[order[total:]]
                pool_id = pool_id[order[total:]]
                next_id += hired
                owner = nodes[np.repeat(np.arange(m), extras)]
                walks = max(1, block_rows // level)
                for lo in range(0, total, walks):
                    part = slice(lo, lo + walks)
                    count = len(extra_id[part])
                    out.emit(*_walk_rows(
                        d,
                        extra_id[part],
                        np.zeros(count, dtype=np.int64),
                        owner[part],
                        extra_start[part],
                        seq + level * np.arange(lo, lo + count, dtype=np.int64),
                        DISPATCH,
                        AGENT,
                    ))
                seq += total * level
                # a squad is complete once its last extra arrives
                has = extras > 0
                ready[has] = np.maximum(
                    ready[has], np.maximum.reduceat(extra_start + level, first_extra[has])
                )
            extras_per_level[level] = total
            active_per_level[level] = m + total + 1

            # 2.2 / 2.3 -- the synchronizer walks the level in order
            prev = np.concatenate(([0], nodes[:-1]))
            nav = popcount_array(prev ^ nodes)
            cost = nav + 2 * k
            spent = np.cumsum(cost)
            leave = np.maximum(np.maximum.accumulate(ready - (spent - cost) - nav), clock) + spent
            arrive = np.concatenate(([clock], leave[:-1]))  # leaves the previous node
            start = leave - 2 * k
            rows = nav + np.where(k == 0, level, 3 * k)
            done = np.cumsum(rows)
            first_seq = seq + done - rows
            children: List[Tuple[np.ndarray, ...]] = []
            lo = 0
            while lo < m:
                before = int(done[lo - 1]) if lo else 0
                hi = max(lo + 1, int(np.searchsorted(done, before + block_rows, side="right")))
                batch = slice(lo, hi)
                parts = [_walk_rows(
                    d,
                    np.zeros(hi - lo, dtype=np.int64),
                    prev[batch],
                    nodes[batch],
                    arrive[batch],
                    first_seq[batch],
                    NAVIGATE,
                    SYNC,
                )]
                leaf = np.flatnonzero(k[batch] == 0) + lo
                parts.append(_walk_rows(
                    d,
                    guard[leaf],
                    nodes[leaf],
                    np.zeros(len(leaf), dtype=np.int64),
                    start[leaf],
                    first_seq[leaf] + nav[leaf],
                    RETURN,
                    AGENT,
                ))
                pool_ready = np.concatenate((pool_ready, start[leaf] + level))
                pool_id = np.concatenate((pool_id, guard[leaf]))
                # one escort per child edge, children in increasing order
                node = np.repeat(np.arange(lo, hi), k[batch])
                j = np.arange(len(node)) - np.repeat(np.cumsum(k[batch]) - k[batch], k[batch])
                mover = guard[node]
                extra = j < k[node] - 1
                mover[extra] = extra_id[first_extra[node[extra]] + k[node[extra]] - 2 - j[extra]]
                child = nodes[node] | np.left_shift(1, msb[node] + j)
                begin = start[node] + 2 * j
                parts.append(_escort_rows(
                    nodes[node], child, mover, begin, first_seq[node] + nav[node] + 3 * j
                ))
                out.emit(*(np.concatenate(cols) for cols in zip(*parts)))
                children.append((child, mover, begin + 1, msb[node] + j + 1))
                yield from out.release(int(leave[hi - 1]))
                lo = hi
            clock = int(leave[-1])
            position = int(nodes[-1])
            seq += int(done[-1])
            nodes, guard, ready, msb = (np.concatenate(cols) for cols in zip(*children))
            order = np.argsort(nodes)
            nodes, guard, ready, msb = nodes[order], guard[order], ready[order], msb[order]

        # the guard of the last node, 11...1, walks home
        home = np.zeros(1, dtype=np.int64)
        out.emit(*_walk_rows(d, guard, nodes, home, np.maximum(ready, clock), [seq], RETURN, AGENT))
        yield from out.drain()
        return {
            "team_size": next_id,
            "metadata": {
                "extras_per_level": extras_per_level,
                "active_per_level": active_per_level,
                "synchronizer_id": SYNCHRONIZER_ID,
            },
        }


def _escort_rows(
    node: np.ndarray, child: np.ndarray, agent: np.ndarray, begin: np.ndarray, seq: np.ndarray
) -> _Rows:
    """Rows of escorts down tree edges ``node -> child`` starting at
    ``begin``: the agent steps down while the synchronizer (agent 0)
    steps down with it and back up, emission indices ``seq .. seq + 2``."""
    count = len(node)
    sync = np.zeros(count, dtype=np.int64)
    return (
        np.concatenate((begin + 1, begin + 1, begin + 2)),
        np.concatenate((seq, seq + 1, seq + 2)),
        np.concatenate((agent, sync, sync)),
        np.concatenate((node, node, child)),
        np.concatenate((child, child, node)),
        np.repeat(np.array([DEPLOY, ESCORT, ESCORT], dtype=np.int64), count),
        np.repeat(np.array([AGENT, SYNC, SYNC], dtype=np.int64), count),
    )
