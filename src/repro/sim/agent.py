"""Agent action vocabulary for the discrete-event engine.

An agent *behaviour* is a Python generator: it yields :class:`Action`
objects and receives results back through ``send``.  The engine executes
actions atomically (whiteboard mutual exclusion comes for free) and charges
durations from the active :class:`~repro.sim.scheduling.DelayModel` —
moves always cost time, local actions cost the model's local delay.

The vocabulary mirrors the paper's model exactly:

* :class:`Move` — walk to a neighbouring node (the only way to relocate);
* :class:`ReadWhiteboard` / :class:`WriteWhiteboard` /
  :class:`UpdateWhiteboard` — communicate through the local whiteboard;
* :class:`See` — inspect the states of the neighbours; only legal when the
  engine is created with ``visibility=True`` (the Section 4 model);
* :class:`WaitUntil` — block until a predicate over the local view holds
  (how "the agents wait on x" is expressed);
* :class:`CloneSelf` — create a copy of this agent here (Section 5 model,
  requires ``cloning=True``);
* :class:`Terminate` — stop acting; the agent remains on its node (a
  terminated agent still guards).

Behaviours receive an :class:`AgentContext` with read-only identity and a
live view of position/time, plus an ``O(log n)``-bit-accounted local
memory dict (the paper grants agents ``O(log n)`` bits of state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import AgentError
from repro.sim.whiteboard import estimate_bits

__all__ = [
    "Action",
    "Move",
    "ReadWhiteboard",
    "WriteWhiteboard",
    "UpdateWhiteboard",
    "See",
    "WaitUntil",
    "CloneSelf",
    "Terminate",
    "AgentContext",
    "NodeView",
]


class Action:
    """Marker base class for everything a behaviour may yield."""


@dataclass(frozen=True)
class Move(Action):
    """Traverse the edge to neighbouring node ``dst``."""

    dst: int


@dataclass(frozen=True)
class ReadWhiteboard(Action):
    """Read ``key`` from the local whiteboard (whole board if ``None``)."""

    key: Optional[str] = None


@dataclass(frozen=True)
class WriteWhiteboard(Action):
    """Write ``key = value`` on the local whiteboard."""

    key: str
    value: Any


@dataclass(frozen=True)
class UpdateWhiteboard(Action):
    """Atomic read-modify-write: ``mutator(dict) -> result`` on the board."""

    mutator: Callable[[Dict[str, Any]], Any]


@dataclass(frozen=True)
class See(Action):
    """Return ``{neighbor: NodeState}`` — Section 4 visibility only."""


@dataclass(frozen=True)
class WaitUntil(Action):
    """Block until ``predicate(view)`` is true.

    The predicate receives a :class:`NodeView` of the agent's node; it must
    be side-effect free, and it must depend only on what it reads through
    the view (the whiteboard, the neighbour states, the time).  The engine
    files a blocked agent under what its predicate read and re-evaluates
    it only after an event changes one of those reads, so a predicate that
    consults anything else may never be re-run.  Agents that yield the
    same predicate object at one node share its evaluation: the engine
    evaluates it once for all of them and wakes them together, so a squad
    waiting for one condition should yield one shared function rather
    than a closure per agent.  For purely time-based waits (the
    synchronous model) set ``wake_at`` so the engine schedules a timer
    even when no other event would advance the clock.
    """

    predicate: Callable[["NodeView"], bool]
    description: str = ""
    wake_at: Optional[float] = None


@dataclass(frozen=True)
class CloneSelf(Action):
    """Create a copy of this agent on the current node (Section 5 model).

    ``behavior`` is a factory called with the clone's
    :class:`AgentContext`; the action returns the clone's agent id.
    """

    behavior: Callable[["AgentContext"], Any]


@dataclass(frozen=True)
class Terminate(Action):
    """Stop acting; the agent keeps guarding its final node."""


@dataclass
class NodeView:
    """Read-only view handed to :class:`WaitUntil` predicates.

    Attributes are populated by the engine; ``neighbor_states`` is a
    callable raising unless the engine runs in the visibility model, and
    ``time`` raises unless the engine exposes a global clock (synchronous
    model) — so a predicate cannot use more power than its model grants.
    """

    node: int
    _wb_read: Optional[Callable[[Optional[str]], Any]] = field(repr=False, default=None)
    _see: Optional[Callable[[], Dict[int, Any]]] = field(repr=False, default=None)
    _clock: Optional[Callable[[], float]] = field(repr=False, default=None)

    def wb(self, key: Optional[str] = None) -> Any:
        """Read the local whiteboard."""
        if self._wb_read is None:
            raise AgentError("this view has no whiteboard attached")
        return self._wb_read(key)

    def neighbor_states(self) -> Dict[int, Any]:
        """Neighbour states — only in the visibility model."""
        if self._see is None:
            raise AgentError("neighbor states are not visible in this model")
        return self._see()

    @property
    def time(self) -> float:
        """Global time — only in the synchronous model."""
        if self._clock is None:
            raise AgentError("no global clock in this model")
        return self._clock()


class AgentContext:
    """Identity and local memory of one agent.

    The ``memory`` dict is the agent's ``O(log n)``-bit local storage; its
    peak estimated size is recorded for the memory-bound tests
    (:attr:`peak_memory_bits`).
    """

    def __init__(self, agent_id: int, start_node: int, dimension: int) -> None:
        self.agent_id = agent_id
        self.node = start_node  # kept current by the engine
        self.dimension = dimension
        self.memory: Dict[str, Any] = {}
        self.peak_memory_bits = 0

    def remember(self, key: str, value: Any) -> None:
        """Store a value in local memory (bit-accounted)."""
        self.memory[key] = value
        bits = sum(estimate_bits(k) + estimate_bits(v) for k, v in self.memory.items())
        if bits > self.peak_memory_bits:
            self.peak_memory_bits = bits

    def recall(self, key: str, default: Any = None) -> Any:
        """Read a value from local memory."""
        return self.memory.get(key, default)

    def __repr__(self) -> str:
        return f"AgentContext(id={self.agent_id}, node={self.node})"
