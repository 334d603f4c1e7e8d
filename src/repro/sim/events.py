"""Event queue for the discrete-event engine.

A tiny priority queue of ``(time, sequence, agent_id)`` entries.  The
sequence number makes ordering deterministic for simultaneous events (FIFO
among equals), which keeps whole simulations reproducible for a fixed delay
model and seed — a property the protocol equivalence tests rely on.

The heap holds ``(time, sequence, event)`` tuples: tuple comparison runs
in C, and the sequence number is unique, so a tie never reaches the
:class:`Event` itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

__all__ = ["Event", "EventQueue"]


@dataclass(frozen=True)
class Event:
    """One scheduled agent resumption.

    ``token`` is the agent's scheduling-generation counter at push time;
    the engine drops events whose token no longer matches the agent's
    (they were superseded by a newer decision — e.g. a wake-up queued for
    an agent that has since started a move).
    """

    time: float
    sequence: int
    agent_id: int
    token: int = 0


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0

    @property
    def total_pushed(self) -> int:
        """Events ever pushed (the sequence counter; never decreases).

        Instrumentation reads this for scheduler-pressure accounting —
        superseded-token drops are ``total_pushed`` minus the events the
        engine actually processed.
        """
        return self._sequence

    def push(self, time: float, agent_id: int, token: int = 0) -> Event:
        """Schedule ``agent_id`` to resume at ``time``; returns the event.

        Only ``time >= 0`` is validated here — the queue has no notion of
        "now".  Rejecting events scheduled before the current simulation
        time is the engine's job (``Engine._schedule``), which knows the
        clock and the offending agent.
        """
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        sequence = self._sequence
        event = Event(time=time, sequence=sequence, agent_id=agent_id, token=token)
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it, or ``None``."""
        return self._heap[0][2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
