"""The schedule plane: a strategy's output as a timed move sequence.

A :class:`Schedule` is the deterministic artifact produced by each strategy
generator: the complete list of agent moves with ideal-time stamps (one
time unit per edge traversal, footnote 1 of the paper).  It is the object
the verifier replays, the metrics module measures, and the figure benches
render.

Timing convention
-----------------
Each :class:`Move` carries the *completion* time of the traversal, a
positive integer: a move with ``time == t`` occupies the interval
``(t-1, t]``.  Moves of different agents may share a ``time`` (they happen
in parallel); a single agent's moves must have strictly increasing times.
The *makespan* of a schedule is the largest completion time, i.e. the ideal
time complexity the paper's Theorems 4 and 7 bound.

Within one time unit, moves are replayed in list order; generators order
simultaneous moves so that arrivals that must logically precede departures
(e.g. the synchronizer observing a freshly guarded node) appear first.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.states import AgentRole
from repro.errors import ScheduleError

__all__ = ["MoveKind", "Move", "Schedule", "ScheduleAggregates", "scan_moves"]


class MoveKind(enum.Enum):
    """Why a move happens; used for the Theorem 3 move decomposition."""

    #: an agent is placed on a fresh node, extending the clean region
    DEPLOY = "deploy"
    #: an extra agent travels from the root toward a level-``l`` node
    DISPATCH = "dispatch"
    #: a released agent travels back to the root to become available
    RETURN = "return"
    #: the synchronizer escorts an agent down a tree edge, or retraces it
    ESCORT = "escort"
    #: the synchronizer navigates (to the root, to a level, within a level)
    NAVIGATE = "navigate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Move:
    """One edge traversal by one agent.

    Attributes
    ----------
    agent:
        Agent identifier (0-based; the synchronizer of Algorithm 1 is agent
        0 by convention).
    src, dst:
        Endpoints of the traversed edge; must be adjacent in the topology.
    time:
        Ideal completion time (positive integer; see module docstring).
    role:
        Whether the mover is a plain agent or the synchronizer.
    kind:
        Purpose tag for the move-accounting decomposition.
    """

    agent: int
    src: int
    dst: int
    time: int
    role: AgentRole = AgentRole.AGENT
    kind: MoveKind = MoveKind.DEPLOY

    def __post_init__(self) -> None:
        if self.time < 1:
            raise ScheduleError(f"move time must be >= 1, got {self.time}")
        if self.src == self.dst:
            raise ScheduleError(f"degenerate move at node {self.src}")
        if self.agent < 0:
            raise ScheduleError(f"agent id must be >= 0, got {self.agent}")

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "agent": self.agent,
            "src": self.src,
            "dst": self.dst,
            "time": self.time,
            "role": self.role.value,
            "kind": self.kind.value,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Move":
        """Inverse of :meth:`as_dict`."""
        return Move(
            agent=int(data["agent"]),
            src=int(data["src"]),
            dst=int(data["dst"]),
            time=int(data["time"]),
            role=AgentRole(data["role"]),
            kind=MoveKind(data["kind"]),
        )


@dataclass(frozen=True)
class ScheduleAggregates:
    """Every aggregate measurement of a move list, from one pass.

    ``Sweep.run`` reads four different aggregates per cell; computing them
    independently re-walked the full move list four times.  This block is
    produced by a single :func:`scan_moves` pass and memoized on the
    :class:`Schedule`; it is also the running ``stats_so_far`` block of
    every :class:`~repro.core.chunkstream.ScheduleChunk`, so a cached or
    streamed schedule is measured from its final chunk without touching
    its move columns at all.
    """

    total_moves: int
    makespan: int
    role_counts: Dict[AgentRole, int]
    kind_counts: Dict[MoveKind, int]
    agents_used: int
    peak_traveling_agents: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (enum keys become their string values)."""
        return {
            "total_moves": self.total_moves,
            "makespan": self.makespan,
            "role_counts": {role.value: c for role, c in self.role_counts.items()},
            "kind_counts": {kind.value: c for kind, c in self.kind_counts.items()},
            "agents_used": self.agents_used,
            "peak_traveling_agents": self.peak_traveling_agents,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ScheduleAggregates":
        """Inverse of :meth:`as_dict`."""
        roles: Dict[str, int] = dict(data["role_counts"])  # type: ignore[arg-type]
        kinds: Dict[str, int] = dict(data["kind_counts"])  # type: ignore[arg-type]
        return ScheduleAggregates(
            total_moves=int(data["total_moves"]),  # type: ignore[call-overload]
            makespan=int(data["makespan"]),  # type: ignore[call-overload]
            role_counts={AgentRole(k): int(v) for k, v in roles.items()},
            kind_counts={MoveKind(k): int(v) for k, v in kinds.items()},
            agents_used=int(data["agents_used"]),  # type: ignore[call-overload]
            peak_traveling_agents=int(data["peak_traveling_agents"]),  # type: ignore[call-overload]
        )


def scan_moves(moves: Sequence[Move]) -> ScheduleAggregates:
    """Compute every :class:`ScheduleAggregates` field in one pass.

    ``peak_traveling_agents`` (max distinct agents moving within one time
    unit) is computed *streaming* over runs of equal completion time — one
    reusable set instead of a per-time dict of sets — relying on the
    documented replay-order invariant (non-decreasing times).  Should the
    move list turn out unsorted, a dict-based second pass restores the
    order-independent answer, so the value matches the historical
    semantics for any input.
    """
    role_counts = {role: 0 for role in AgentRole}
    kind_counts = {kind: 0 for kind in MoveKind}
    agents: set = set()
    makespan = 0
    peak = 0
    sorted_times = True
    prev_time = 0
    run_time: Optional[int] = None
    run_agents: set = set()
    for m in moves:
        t = m.time
        role_counts[m.role] += 1
        kind_counts[m.kind] += 1
        agents.add(m.agent)
        if t > makespan:
            makespan = t
        if t < prev_time:
            sorted_times = False
        prev_time = t
        if t != run_time:
            if len(run_agents) > peak:
                peak = len(run_agents)
            run_agents.clear()
            run_time = t
        run_agents.add(m.agent)
    if len(run_agents) > peak:
        peak = len(run_agents)
    if not sorted_times:
        per_time: Dict[int, set] = {}
        for m in moves:
            per_time.setdefault(m.time, set()).add(m.agent)
        peak = max((len(v) for v in per_time.values()), default=0)
    return ScheduleAggregates(
        total_moves=len(moves),
        makespan=makespan,
        role_counts=role_counts,
        kind_counts=kind_counts,
        agents_used=len(agents),
        peak_traveling_agents=peak,
    )


@dataclass
class Schedule:
    """A complete cleaning schedule for one hypercube.

    Attributes
    ----------
    dimension:
        Hypercube degree ``d`` the schedule is for.
    strategy:
        Name of the generating strategy (registry key).
    moves:
        All moves; kept in replay order (non-decreasing time, and within a
        time unit the generator's logical order).
    team_size:
        Number of distinct agents the strategy employs (the paper's "number
        of agents" metric).  For the cloning variant this counts every agent
        ever created.
    homebase:
        Start node of all agents (the paper fixes ``00...0``).
    uses_cloning:
        Whether agents are created away from the homebase (Section 5).
    metadata:
        Free-form extras recorded by generators (per-level agent requests,
        wave sizes, ...), consumed by benches and tests.
    """

    dimension: int
    strategy: str
    moves: List[Move] = field(default_factory=list)
    team_size: int = 0
    homebase: int = 0
    uses_cloning: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)
    # memoized aggregate block (see aggregates()); the key tracks
    # (len(moves), last move) so the append-only generator pattern
    # invalidates naturally.  Excluded from equality and repr.
    _agg: Optional[ScheduleAggregates] = field(
        default=None, init=False, repr=False, compare=False
    )
    _agg_key: Optional[Tuple[int, Optional[Move]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # measurements
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of hypercube nodes, ``2**dimension``."""
        return 1 << self.dimension

    def aggregates(self) -> ScheduleAggregates:
        """The memoized one-pass aggregate block (see :func:`scan_moves`).

        Every aggregate measurement below answers from this cache, so a
        sweep cell that reads four different aggregates walks the move
        list once, not four times.  The cache keys on ``(len(moves),
        moves[-1])`` — appending moves (the generator pattern) or
        replacing the list invalidates it; after in-place surgery that
        preserves both, call :meth:`invalidate_caches` explicitly.
        """
        key = (len(self.moves), self.moves[-1] if self.moves else None)
        if self._agg is None or self._agg_key != key:
            self._agg = scan_moves(self.moves)
            self._agg_key = key
        return self._agg

    def invalidate_caches(self) -> None:
        """Drop the memoized aggregates (after in-place move edits)."""
        self._agg = None
        self._agg_key = None

    @property
    def total_moves(self) -> int:
        """Total number of edge traversals (the paper's "moves" metric)."""
        return len(self.moves)

    @property
    def makespan(self) -> int:
        """Ideal time: the largest completion time (0 for empty schedules)."""
        return self.aggregates().makespan

    def moves_by_role(self) -> Dict[AgentRole, int]:
        """Move counts split by mover role (Theorem 3's two components)."""
        return dict(self.aggregates().role_counts)

    def moves_by_kind(self) -> Dict[MoveKind, int]:
        """Move counts split by :class:`MoveKind`."""
        return dict(self.aggregates().kind_counts)

    def agent_moves(self) -> int:
        """Moves performed by plain agents."""
        return self.aggregates().role_counts[AgentRole.AGENT]

    def synchronizer_moves(self) -> int:
        """Moves performed by the synchronizer (0 for local strategies)."""
        return self.aggregates().role_counts[AgentRole.SYNCHRONIZER]

    def agents_used(self) -> int:
        """Number of distinct agent ids appearing in the schedule."""
        return self.aggregates().agents_used

    def moves_of_agent(self, agent: int) -> List[Move]:
        """All moves of one agent, in replay order."""
        return [m for m in self.moves if m.agent == agent]

    def peak_traveling_agents(self) -> int:
        """Maximum number of agents moving within the same time unit."""
        return self.aggregates().peak_traveling_agents

    def first_visit_order(self) -> List[int]:
        """Nodes in order of first agent arrival (the figures' numbering).

        The homebase is first; ties within a time unit keep replay order.
        """
        seen = {self.homebase}
        order = [self.homebase]
        for m in self.moves:
            if m.dst not in seen:
                seen.add(m.dst)
                order.append(m.dst)
        return order

    def visit_time(self) -> Dict[int, int]:
        """First-arrival completion time per node (homebase at time 0)."""
        times = {self.homebase: 0}
        for m in self.moves:
            if m.dst not in times:
                times[m.dst] = m.time
        return times

    # ------------------------------------------------------------------ #
    # structure checks
    # ------------------------------------------------------------------ #

    def validate_structure(self, topology=None) -> None:
        """Validate well-formedness (not the search invariants).

        * replay order has non-decreasing times,
        * each agent's moves chain (``dst`` of one is ``src`` of the next)
          with strictly increasing times,
        * every agent's first move starts at the homebase — unless the
          schedule uses cloning, in which case an agent may first appear
          anywhere an existing agent is,
        * if ``topology`` is given, every move is along one of its edges.

        Raises :class:`~repro.errors.ScheduleError` on violation.
        """
        last_time = 0
        position: Dict[int, int] = {}
        clock: Dict[int, int] = {}
        for idx, m in enumerate(self.moves):
            if m.time < last_time:
                raise ScheduleError(f"move #{idx} goes back in time ({m.time} < {last_time})")
            last_time = m.time
            if topology is not None and not topology.has_edge(m.src, m.dst):
                raise ScheduleError(f"move #{idx} ({m.src}->{m.dst}) is not an edge")
            if m.agent in position:
                if position[m.agent] != m.src:
                    raise ScheduleError(
                        f"move #{idx}: agent {m.agent} moves from {m.src} but is at "
                        f"{position[m.agent]}"
                    )
                if m.time <= clock[m.agent]:
                    raise ScheduleError(
                        f"move #{idx}: agent {m.agent} moves twice within one time unit"
                    )
            else:
                if m.src != self.homebase and not self.uses_cloning:
                    raise ScheduleError(
                        f"move #{idx}: agent {m.agent} first appears at {m.src}, "
                        f"not the homebase {self.homebase}"
                    )
            position[m.agent] = m.dst
            clock[m.agent] = m.time
        if self.team_size and self.agents_used() > self.team_size:
            raise ScheduleError(
                f"{self.agents_used()} agents appear in moves but team_size={self.team_size}"
            )

    # ------------------------------------------------------------------ #
    # iteration / io
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    def by_time(self) -> Iterator[tuple[int, List[Move]]]:
        """Group moves by time unit, in order."""
        bucket: List[Move] = []
        current: Optional[int] = None
        for m in self.moves:
            if current is None or m.time == current:
                bucket.append(m)
                current = m.time
            else:
                yield current, bucket
                bucket = [m]
                current = m.time
        if bucket:
            yield current, bucket  # type: ignore[misc]

    def final_positions(self) -> Dict[int, int]:
        """Where each moving agent ends up."""
        pos: Dict[int, int] = {}
        for m in self.moves:
            pos[m.agent] = m.dst
        return pos

    def translated(self, new_homebase: int) -> "Schedule":
        """The same schedule started from another homebase.

        XOR by ``new_homebase`` is an automorphism of the hypercube, so
        relabelling every move endpoint transports any cleaning schedule
        rooted at ``00...0`` to one rooted at the given node with identical
        agent/move/step counts — how the paper's fixed-homebase strategies
        serve an arbitrary homebase in practice.
        """
        if not 0 <= new_homebase < self.n:
            raise ScheduleError(f"homebase {new_homebase} not a node of H_{self.dimension}")
        mask = new_homebase ^ self.homebase
        moved = [
            Move(
                agent=m.agent,
                src=m.src ^ mask,
                dst=m.dst ^ mask,
                time=m.time,
                role=m.role,
                kind=m.kind,
            )
            for m in self.moves
        ]
        clone = Schedule(
            dimension=self.dimension,
            strategy=self.strategy,
            moves=moved,
            team_size=self.team_size,
            homebase=self.homebase ^ mask,
            uses_cloning=self.uses_cloning,
            metadata=dict(self.metadata),
        )
        clone.metadata["translated_by"] = mask
        return clone

    def permuted(self, dimension_order: Sequence[int]) -> "Schedule":
        """The same schedule under a relabelling of the dimensions.

        ``dimension_order`` is a permutation of ``range(d)`` (0-based bit
        indices): bit ``i`` of every node id is sent to position
        ``dimension_order[i]``.  Dimension permutations are hypercube
        automorphisms fixing the homebase ``00...0``, so together with
        :meth:`translated` they generate the full automorphism group of
        :math:`H_d` — any relabelled deployment of the paper's strategies.
        """
        d = self.dimension
        if sorted(dimension_order) != list(range(d)):
            raise ScheduleError(
                f"dimension_order must be a permutation of range({d})"
            )

        def relabel(x: int) -> int:
            out = 0
            for i, target in enumerate(dimension_order):
                if (x >> i) & 1:
                    out |= 1 << target
            return out

        moved = [
            Move(
                agent=m.agent,
                src=relabel(m.src),
                dst=relabel(m.dst),
                time=m.time,
                role=m.role,
                kind=m.kind,
            )
            for m in self.moves
        ]
        clone = Schedule(
            dimension=d,
            strategy=self.strategy,
            moves=moved,
            team_size=self.team_size,
            homebase=relabel(self.homebase),
            uses_cloning=self.uses_cloning,
            metadata=dict(self.metadata),
        )
        clone.metadata["permuted_by"] = list(dimension_order)
        return clone

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(
            {
                "dimension": self.dimension,
                "strategy": self.strategy,
                "team_size": self.team_size,
                "homebase": self.homebase,
                "uses_cloning": self.uses_cloning,
                "metadata": self.metadata,
                "moves": [m.as_dict() for m in self.moves],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Schedule":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        return Schedule(
            dimension=int(data["dimension"]),
            strategy=str(data["strategy"]),
            moves=[Move.from_dict(m) for m in data["moves"]],
            team_size=int(data["team_size"]),
            homebase=int(data["homebase"]),
            uses_cloning=bool(data["uses_cloning"]),
            metadata=dict(data["metadata"]),
        )

    def summary(self) -> str:
        """One-line human summary used by the CLI and examples."""
        return (
            f"{self.strategy}(d={self.dimension}): team={self.team_size}, "
            f"moves={self.total_moves}, makespan={self.makespan}"
        )
