"""Naive hypercube baseline: guard two whole adjacent levels at once.

The obvious level-by-level sweep without the paper's reuse trick: to
advance the frontier from level ``l`` to ``l+1``, first guard *every*
level-``l+1`` node with a fresh agent dispatched from the root (walking
down the broadcast tree through the clean region), and only then release
the level-``l`` guards back to the root.

This is trivially monotone and contiguous, but it needs
``max_l [C(d, l) + C(d, l+1)]`` agents — roughly *twice* Algorithm
``CLEAN``'s ``C(d, l+1) + C(d-1, l-1) + 1`` peak (the paper's strategy
lets the level-``l`` guards themselves march down tree edges, so only the
leaf surplus needs replacing).  The A1 ablation bench quantifies exactly
this gap, which is what the broadcast-tree choreography buys.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro._bitops import popcount_array
from repro.analysis.counting import binomial
from repro.core.chunkstream import (
    KIND_CODE,
    ROLE_CODE,
    BlockStream,
    ChunkStreamHeader,
    TimeOrderedColumns,
    TimeOrderedEmitter,
    _walk_rows,
    collect_stream,
)
from repro.core.schedule import Move, MoveKind, Schedule
from repro.core.states import AgentRole
from repro.core.strategy import Strategy, register
from repro.topology.broadcast_tree import BroadcastTree
from repro.topology.hypercube import Hypercube

__all__ = ["LevelSweepStrategy", "level_sweep_peak_agents"]

# row codes of the columnar producer
DISPATCH = KIND_CODE[MoveKind.DISPATCH]
RETURN = KIND_CODE[MoveKind.RETURN]
AGENT = ROLE_CODE[AgentRole.AGENT]


def level_sweep_peak_agents(d: int) -> int:
    """Team size of the naive sweep.

    Pass ``l >= 1`` holds both full levels deployed — ``C(d,l) + C(d,l+1)``
    agents; pass 0 needs only the ``d`` level-1 guards (the root is covered
    by the undeployed pool sitting on it).
    """
    if d == 0:
        return 1
    candidates = [d]
    candidates += [binomial(d, l) + binomial(d, l + 1) for l in range(1, d)]
    return max(candidates)


@register
class LevelSweepStrategy(Strategy):
    """The naive two-full-levels baseline (whiteboard model)."""

    name = "level-sweep"
    model = "whiteboard"

    def expected_team_size(self, d: int) -> Optional[int]:
        return level_sweep_peak_agents(d)

    def expected_total_moves(self, d: int) -> Optional[int]:
        # a level-k node is entered by one k-move dispatch walk and left by
        # one k-move return walk: sum_k 2k C(d,k) = d 2^d
        return d << d

    def generate(self, hypercube: Hypercube) -> Schedule:
        header = ChunkStreamHeader(
            dimension=hypercube.d,
            strategy=self.name,
            homebase=0,
            uses_cloning=False,
            team_size=level_sweep_peak_agents(hypercube.d),
        )
        return collect_stream(header, self.stream_moves(hypercube))

    def stream_moves(self, hypercube: Hypercube) -> Iterator[Move]:
        """Native streaming generator: two levels of walks buffered.

        Same watermark argument as CLEAN's: every walk starts at
        ``max(ready, clock)`` and ``clock`` never decreases, so flushing
        the time-ordered buffer up to the clock reproduces the old
        post-hoc stable sort exactly.
        """
        d = hypercube.d
        tree = BroadcastTree(hypercube)
        emitter = TimeOrderedEmitter()
        # pool of (ready_time, agent_id) at the root; hire on demand
        pool: List[tuple[int, int]] = []
        next_id = 0
        guard_of: Dict[int, int] = {}
        guard_ready: Dict[int, int] = {}
        clock = 0

        def acquire() -> tuple[int, int]:
            nonlocal next_id
            if pool:
                return heapq.heappop(pool)
            agent = next_id
            next_id += 1
            return (0, agent)

        def walk(agent: int, path: List[int], start: int, kind: MoveKind) -> int:
            t = start
            for src, dst in zip(path, path[1:]):
                t += 1
                emitter.emit(
                    Move(agent=agent, src=src, dst=dst, time=t, role=AgentRole.AGENT, kind=kind)
                )
            return t

        if d == 0:
            return {  # type: ignore[return-value]
                "team_size": 1,
                "metadata": {},
            }

        for level in range(0, d):
            # guard every level-(l+1) node with a dispatched agent
            for x in hypercube.level_nodes(level + 1):
                ready, agent = acquire()
                start = max(ready, clock)
                arrival = walk(agent, tree.path_from_root(x), start, MoveKind.DISPATCH)
                guard_of[x] = agent
                guard_ready[x] = arrival
            clock = max(clock, max(guard_ready[x] for x in hypercube.level_nodes(level + 1)))
            yield from emitter.release(clock)
            # release every level-l guard back to the root
            for x in hypercube.level_nodes(level):
                if x == 0:
                    continue  # the root has no single guard to release
                agent = guard_of.pop(x)
                start = max(guard_ready.pop(x), clock)
                back = walk(agent, tree.path_to_root(x), start, MoveKind.RETURN)
                heapq.heappush(pool, (back, agent))

        # finally release the level-d guard
        top = (1 << d) - 1
        agent = guard_of.pop(top)
        walk(agent, tree.path_to_root(top), max(guard_ready.pop(top), clock), MoveKind.RETURN)

        yield from emitter.drain()
        return {  # type: ignore[return-value]
            "team_size": next_id,
            "metadata": {"peak_agents_formula": level_sweep_peak_agents(d)},
        }

    def stream_blocks(self, hypercube: Hypercube, block_rows: int) -> BlockStream:
        """Columnar producer: each level's walks computed in numpy.

        Same rows and footer as :meth:`stream_moves`, which stays the
        reference; its node-by-node decisions are closed forms over a
        level's nodes (increasing order).  For level ``l``: level
        ``l+1``'s nodes take the pool's agents in ``(ready, id)`` order,
        then fresh ids once it runs dry; each dispatch walk starts at
        ``max(ready, clock)``; the clock becomes the level's last arrival;
        then level ``l``'s guards (the root has none) walk home from
        ``max(arrival, clock)`` and are back in the pool ``l`` units
        later.  Every row carries its emission index, its position in
        :meth:`stream_moves`' program order, and the rows pass through
        :class:`~repro.core.chunkstream.TimeOrderedColumns`, released at
        the clock exactly like the per-``Move`` emitter.  Walks are built
        in batches of about ``block_rows`` rows; the producer holds a
        level's dispatch and return walks.
        """
        d = hypercube.d
        if d == 0:
            return {"team_size": 1, "metadata": {}}
        out = TimeOrderedColumns(block_rows)
        level_of = popcount_array(np.arange(1 << d, dtype=np.int64))
        seq = 0

        def walks(
            agent: np.ndarray, src: np.ndarray, dst: np.ndarray, start: np.ndarray,
            length: int, kind: int,
        ) -> None:
            """Emit ``length``-move walks, walk ``i`` at emission index
            ``seq + length * i``, in batches of about ``block_rows`` rows."""
            nonlocal seq
            batch = max(1, block_rows // length)
            for lo in range(0, len(agent), batch):
                part = slice(lo, lo + batch)
                index = seq + length * np.arange(lo, lo + len(agent[part]), dtype=np.int64)
                out.emit(*_walk_rows(
                    d, agent[part], src[part], dst[part], start[part], index, kind, AGENT
                ))
            seq += length * len(agent)

        pool_ready = np.zeros(0, dtype=np.int64)
        pool_id = np.zeros(0, dtype=np.int64)
        next_id = 0
        clock = 0
        for level in range(d):
            targets = np.flatnonzero(level_of == level + 1)
            count = len(targets)
            order = np.lexsort((pool_id, pool_ready))
            taken = order[:count]
            hired = count - len(taken)
            agent = np.concatenate(
                (pool_id[taken], np.arange(next_id, next_id + hired, dtype=np.int64))
            )
            ready = np.concatenate((pool_ready[taken], np.zeros(hired, dtype=np.int64)))
            pool_ready, pool_id = pool_ready[order[count:]], pool_id[order[count:]]
            next_id += hired
            start = np.maximum(ready, clock)
            walks(agent, np.zeros(count, dtype=np.int64), targets, start, level + 1, DISPATCH)
            clock = int(start.max()) + level + 1
            yield from out.release(clock)
            if level:  # level l's guards walk home; the root has none
                home = np.maximum(arrival, clock)
                walks(guard, nodes, np.zeros(len(nodes), dtype=np.int64), home, level, RETURN)
                pool_ready = np.concatenate((pool_ready, home + level))
                pool_id = np.concatenate((pool_id, guard))
            nodes, guard, arrival = targets, agent, start + level + 1

        # finally the guard of the level-d node 11...1 walks home
        walks(guard, nodes, np.zeros(1, dtype=np.int64), np.maximum(arrival, clock), d, RETURN)
        yield from out.drain()
        return {
            "team_size": next_id,
            "metadata": {"peak_agents_formula": level_sweep_peak_agents(d)},
        }
