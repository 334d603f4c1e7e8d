"""Section 5 cloning variant of the visibility strategy.

"Our second strategy would be particularly suitable if the agents have
cloning capabilities [...] only one agent would be initially placed at the
homebase and agents would be cloned when needed.  With this cloning power,
the second strategy still requires ``n/2`` agents and ``log n`` steps, but
the number of moves performed by the agents is reduced to ``n - 1``."

Implementation: the wave structure of
:class:`~repro.core.visibility.VisibilityStrategy` is kept, but each
broadcast-tree edge is crossed by exactly *one* agent — the resident agent
moves to the first (largest-subtree) child and freshly cloned agents take
the remaining children.  Every move extends the guarded frontier, so total
moves = number of tree edges = ``n - 1``, and total agents created = number
of leaves = ``n/2``.

The paper also observes cloning would *not* help Algorithm ``CLEAN``
(agents would grow to ``n/2 + 1``); that claim is checked numerically by
:func:`repro.analysis.formulas.clean_with_cloning_agents` and the E7 bench.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

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

__all__ = ["CloningStrategy"]


@register
class CloningStrategy(Strategy):
    """Visibility strategy with cloning: one initial agent, ``n - 1`` moves."""

    name = "cloning"
    model = "cloning"
    uses_cloning = True

    def expected_team_size(self, d: int) -> Optional[int]:
        return formulas.cloning_agents(d)

    def expected_total_moves(self, d: int) -> Optional[int]:
        return formulas.cloning_moves(d)

    def expected_makespan(self, d: int) -> Optional[int]:
        return formulas.cloning_time_steps(d)

    def generate(self, hypercube: Hypercube) -> Schedule:
        header = ChunkStreamHeader(
            dimension=hypercube.d,
            strategy=self.name,
            homebase=0,
            uses_cloning=True,
            team_size=formulas.cloning_agents(hypercube.d),
        )
        return collect_stream(header, self.stream_moves(hypercube))

    def stream_moves(self, hypercube: Hypercube) -> Iterator[Move]:
        """Native streaming generator (wave order is replay order)."""
        d = hypercube.d
        tree = BroadcastTree(hypercube)
        next_clone = 1  # agent 0 is the original, placed on the homebase
        resident: Dict[int, int] = {0: 0}  # node -> agent living there
        wave_sizes: Dict[int, int] = {}

        # Same wave structure as the visibility strategy (Theorem 7): the
        # agents on class C_i act at ideal time i.  Each tree edge carries
        # exactly one agent: the resident walks to the first child, clones
        # spring to life for the remaining children.
        for wave in range(d):
            movers = 0
            for node in hypercube.class_members(wave):
                if node not in resident:
                    raise ReproError(f"no resident agent on {node} at wave {wave}")
                own = resident.pop(node)
                for idx, child in enumerate(tree.children(node)):
                    if idx == 0:
                        mover = own
                    else:
                        mover = next_clone
                        next_clone += 1
                    yield Move(
                        agent=mover,
                        src=node,
                        dst=child,
                        time=wave + 1,
                        role=AgentRole.AGENT,
                        kind=MoveKind.DEPLOY,
                    )
                    resident[child] = mover
                    movers += 1
            wave_sizes[wave] = movers

        return {  # type: ignore[return-value]
            # the original plus every clone created
            "team_size": next_clone,
            "metadata": {"wave_sizes": wave_sizes, "final_leaves": sorted(resident)},
        }

    def stream_blocks(self, hypercube: Hypercube, block_rows: int) -> BlockStream:
        """Columnar producer: each wave's rows computed from its class.

        Wave ``i`` crosses the ``d - i`` child edges of every node of
        :math:`C_i` in ``(node, child)`` order.  The first child edge
        carries the node's resident, every other one a clone numbered in
        that same order from the wave's first clone id, so the movers and
        hence the residents of the next class follow in closed form from
        the residents of the classes before it.  Same rows and footer as
        :meth:`stream_moves`.
        """
        d = hypercube.d
        # first clone id created in each wave: wave c clones |C_c| * (k - 1)
        # agents, k = d - c children per node
        first_clone = [1]
        for wave in range(d):
            width = 1 if wave == 0 else 1 << (wave - 1)
            first_clone.append(first_clone[-1] + width * (d - wave - 1))
        clones = np.array(first_clone, dtype=np.int64)
        resident = np.zeros(1, dtype=np.int64)  # of nodes [0, 2**wave)
        deploy = KIND_CODE[MoveKind.DEPLOY]
        agent = ROLE_CODE[AgentRole.AGENT]
        wave_sizes: Dict[int, int] = {}
        for wave in range(d):
            first = 0 if wave == 0 else 1 << (wave - 1)
            k = d - wave
            rows = (len(resident) - first) * k
            for start in range(0, rows, block_rows):
                flat = np.arange(start, min(rows, start + block_rows), dtype=np.int64)
                node, child = np.divmod(flat, k)
                srcs = first + node
                movers = np.where(
                    child == 0,
                    resident[first:][node],
                    first_clone[wave] + node * (k - 1) + child - 1,
                )
                yield (
                    np.full(len(flat), wave + 1, dtype=np.int64),
                    movers,
                    srcs,
                    srcs | (1 << (wave + child)),
                    np.full(len(flat), deploy, dtype=np.int64),
                    np.full(len(flat), agent, dtype=np.int64),
                )
            wave_sizes[wave] = rows
            if wave + 1 < d:  # residents of class C_{wave+1}: children of [0, 2**wave)
                parents = np.arange(len(resident), dtype=np.int64)
                msb = msb_position_array(parents)
                child = wave - msb
                index = parents - (np.left_shift(1, msb) >> 1)  # position in its class
                clone = clones[msb] + index * (d - msb - 1) + child - 1
                resident = np.concatenate((resident, np.where(child == 0, resident, clone)))
        return {
            "team_size": first_clone[-1],
            "metadata": {
                "wave_sizes": wave_sizes,
                "final_leaves": list(range(1 << (d - 1), 1 << d)) if d else [0],
            },
        }
