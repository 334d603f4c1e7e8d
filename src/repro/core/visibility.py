"""Algorithm 2 — ``CLEAN WITH VISIBILITY`` (Section 4.2): local strategy.

Every agent follows the same local rule; no coordinator exists.  The rule
for the agents on a node ``x`` of type ``T(k)``:

* if fewer than ``2^{k-1}`` agents are on ``x``, wait;
* once ``2^{k-1}`` agents are present **and** every smaller neighbour of
  ``x`` is clean or guarded: one agent moves to the bigger neighbour of
  type ``T(0)`` and ``2^{i-1}`` agents move to each bigger neighbour of
  type ``T(i)`` (``0 < i < k``); with no bigger neighbours, terminate.

Theorem 7 shows the execution self-organizes into *waves*: the agents
sitting on the class :math:`C_i` nodes all move exactly at ideal time
``i``, so the network is clean after ``d = log n`` steps.  The schedule
generator below produces exactly this wave schedule (the unique ideal-time
execution); the asynchronous, genuinely local run of the same rule lives in
:mod:`repro.protocols.visibility_protocol` and is tested to produce the
same move multiset.

Agent bookkeeping: the ``2^{d-1}`` agents are numbered ``0 .. n/2 - 1``;
each node forwards contiguous chunks of its arrival list to its children,
largest subtree first, mirroring how the whiteboard would assign them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro._bitops import msb_position_array
from repro.analysis import formulas
from repro.core.chunkstream import (
    KIND_CODE,
    ROLE_CODE,
    BlockStream,
    ChunkStreamHeader,
    collect_stream,
)
from repro.core.schedule import Move, MoveKind, Schedule
from repro.core.states import AgentRole
from repro.core.strategy import Strategy, register
from repro.errors import ReproError
from repro.topology.broadcast_tree import BroadcastTree
from repro.topology.hypercube import Hypercube

__all__ = ["VisibilityStrategy"]


@register
class VisibilityStrategy(Strategy):
    """Algorithm 2 of the paper (visibility model, fully local)."""

    name = "visibility"
    model = "visibility"

    def expected_team_size(self, d: int) -> Optional[int]:
        return formulas.visibility_agents(d)

    def expected_total_moves(self, d: int) -> Optional[int]:
        return formulas.visibility_moves_exact(d)

    def expected_makespan(self, d: int) -> Optional[int]:
        return formulas.visibility_time_steps(d)

    # ------------------------------------------------------------------ #

    def _initial_agents(self, team: int) -> List[int]:
        """Agent ids stationed at the root before the first wave."""
        return list(range(team))

    def _emit_moves(
        self,
        node: int,
        child: int,
        squad: List[int],
        wave: int,
        moves: List[Move],
    ) -> List[int]:
        """Move ``squad`` from ``node`` to ``child`` during ``wave``.

        Returns the agent ids now stationed at ``child``.  Subclasses
        (cloning) override to create agents instead of forwarding them.
        """
        for agent in squad:
            moves.append(
                Move(
                    agent=agent,
                    src=node,
                    dst=child,
                    time=wave + 1,
                    role=AgentRole.AGENT,
                    kind=MoveKind.DEPLOY,
                )
            )
        return squad

    def generate(self, hypercube: Hypercube) -> Schedule:
        header = ChunkStreamHeader(
            dimension=hypercube.d,
            strategy=self.name,
            homebase=0,
            uses_cloning=self._uses_cloning(),
            team_size=formulas.visibility_agents(hypercube.d),
        )
        return collect_stream(header, self.stream_moves(hypercube))

    def stream_moves(self, hypercube: Hypercube) -> Iterator[Move]:
        """Native streaming generator: one wave buffered at a time.

        The wave schedule emits every move of wave ``i`` at completion
        time ``i + 1`` before any move of wave ``i + 1`` — already
        replay-ordered, so moves stream straight out as each node of the
        current class forwards its squads.
        """
        d = hypercube.d
        tree = BroadcastTree(hypercube)
        team = formulas.visibility_agents(d)
        stationed: Dict[int, List[int]] = {0: self._initial_agents(team)}
        wave_sizes: Dict[int, int] = {}

        # Wave i moves every agent on class C_i; classes are processed in
        # increasing order, which respects causality (a node's agents all
        # arrive from its tree parent, whose class index is smaller).
        for wave in range(d):
            movers = 0
            for node in hypercube.class_members(wave):
                squad = stationed.pop(node, None)
                if squad is None:
                    raise ReproError(f"no agents on {node} at wave {wave}")
                k = tree.node_type(node)
                if len(squad) != formulas.agents_for_type(k):
                    raise ReproError(
                        f"node {node} (type T({k})) holds {len(squad)} agents, "
                        f"expected {formulas.agents_for_type(k)}"
                    )
                offset = 0
                for child in tree.children(node):
                    child_k = tree.node_type(child)
                    take = formulas.agents_for_type(child_k)
                    chunk = squad[offset : offset + take]
                    offset += take
                    burst: List[Move] = []
                    stationed[child] = self._emit_moves(node, child, chunk, wave, burst)
                    yield from burst
                if offset != len(squad):
                    raise ReproError(f"agents stranded on {node}")
                movers += len(squad)
            wave_sizes[wave] = movers

        # After the last wave every agent sits on a distinct leaf.
        return {  # type: ignore[return-value]
            "team_size": self._final_team_size(team),
            "metadata": {"wave_sizes": wave_sizes, "final_leaves": sorted(stationed)},
        }

    def stream_blocks(self, hypercube: Hypercube, block_rows: int) -> BlockStream:
        """Columnar producer: each wave's rows computed from its class.

        Squads stay contiguous ranges of agent ids (each node forwards
        contiguous slices of its squad), so a node is described by the
        first id ``lo`` of its squad.  Wave ``i`` moves every squad on
        :math:`C_i`; all its nodes have type ``T(d-i)``, so one pattern —
        which child each squad position goes to — serves the whole wave,
        and the wave's rows are ``(node, position)`` pairs in row-major
        order.  A child across tree dimension ``p`` of a node whose
        children start at dimension ``c`` receives the squad slice at
        offset ``G[p] - G[c]``, with ``G`` the prefix sums of the
        per-dimension squad sizes; that gives ``lo`` for the next class.
        Same rows and footer as :meth:`stream_moves` (a subclass that
        overrides its per-``Move`` hooks must override this too).
        """
        d = hypercube.d
        team = formulas.visibility_agents(d)
        # agents a child across dimension p receives, and their prefix sums
        take = np.array(
            [formulas.agents_for_type(d - p - 1) for p in range(d)], dtype=np.int64
        )
        offsets = np.concatenate(([0], np.cumsum(take)))
        lo = np.zeros(1, dtype=np.int64)  # squad start of nodes [0, 2**wave)
        deploy = KIND_CODE[MoveKind.DEPLOY]
        agent = ROLE_CODE[AgentRole.AGENT]
        wave_sizes: Dict[int, int] = {}
        for wave in range(d):
            first = 0 if wave == 0 else 1 << (wave - 1)
            width = len(lo) - first  # |C_wave|
            size = formulas.agents_for_type(d - wave)
            child_bit = np.repeat(np.arange(wave, d, dtype=np.int64), take[wave:])
            rows = width * size
            for start in range(0, rows, block_rows):
                flat = np.arange(start, min(rows, start + block_rows), dtype=np.int64)
                node, pos = np.divmod(flat, size)
                srcs = first + node
                yield (
                    np.full(len(flat), wave + 1, dtype=np.int64),
                    lo[first:][node] + pos,
                    srcs,
                    srcs | (1 << child_bit[pos]),
                    np.full(len(flat), deploy, dtype=np.int64),
                    np.full(len(flat), agent, dtype=np.int64),
                )
            wave_sizes[wave] = rows
            if wave + 1 < d:  # squads of class C_{wave+1}, children of [0, 2**wave)
                msb = msb_position_array(np.arange(len(lo)))
                lo = np.concatenate((lo, lo + offsets[wave] - offsets[msb]))
        leaves = list(range(1 << (d - 1), 1 << d)) if d else [0]
        return {
            "team_size": self._final_team_size(team),
            "metadata": {"wave_sizes": wave_sizes, "final_leaves": leaves},
        }

    # hooks overridden by the cloning subclass ------------------------- #

    def _final_team_size(self, initial_team: int) -> int:
        return initial_team

    def _uses_cloning(self) -> bool:
        return self.uses_cloning
