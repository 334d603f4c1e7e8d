"""Exception hierarchy for the ``repro`` package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Verification failures carry structured context (which
node, which step) because they are the primary debugging artifact when a
strategy or protocol violates the paper's invariants.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "InvalidNodeError",
    "ScheduleError",
    "VerificationError",
    "RecontaminationError",
    "ContiguityError",
    "IncompleteCleaningError",
    "SimulationError",
    "DeadlockError",
    "WhiteboardError",
    "AgentError",
    "CapacityError",
    "ExecutionError",
    "CheckpointError",
    "CompiledScheduleError",
    "ScheduleCacheError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TopologyError(ReproError):
    """A topology object was constructed or used inconsistently."""


class InvalidNodeError(TopologyError):
    """A node identifier is outside the graph it was used with."""

    def __init__(self, node: int, n: int) -> None:
        super().__init__(f"node {node} not in graph of size {n}")
        self.node = node
        self.n = n


class ScheduleError(ReproError):
    """A schedule is malformed (non-adjacent move, unknown agent, ...)."""


class VerificationError(ReproError):
    """A schedule or simulation violated one of the paper's invariants."""

    def __init__(self, message: str, *, step: int | None = None, node: int | None = None) -> None:
        context = []
        if step is not None:
            context.append(f"step={step}")
        if node is not None:
            context.append(f"node={node}")
        suffix = f" ({', '.join(context)})" if context else ""
        super().__init__(message + suffix)
        self.step = step
        self.node = node


class RecontaminationError(VerificationError):
    """Monotonicity violated: a clean node became contaminated again."""


class ContiguityError(VerificationError):
    """The set of clean/guarded nodes stopped being connected."""


class IncompleteCleaningError(VerificationError):
    """The strategy terminated while contaminated nodes remain."""


class SimulationError(ReproError):
    """The discrete-event engine hit an unrecoverable condition."""


class DeadlockError(SimulationError):
    """No agent can make progress and the network is not clean."""


class WhiteboardError(SimulationError):
    """Illegal whiteboard access (wrong node, capacity overflow, ...)."""


class AgentError(SimulationError):
    """An agent behaviour yielded an invalid action."""


class CapacityError(ReproError):
    """A resource bound (agents, memory bits) was exceeded."""


class ExecutionError(ReproError):
    """The parallel job executor was misused or misconfigured."""


class CheckpointError(ExecutionError):
    """An executor checkpoint file is unreadable or inconsistent."""


class CompiledScheduleError(ReproError):
    """A schedule cache entry is malformed, truncated or corrupt.

    Raised by the :class:`repro.fastpath.ScheduleCache` entry reader on
    any format-level problem (bad magic, unsupported version, truncated
    record, header/chunk/footer checksum failure, footer stats that
    disagree with the chunks), and on compiled-schedule metadata that
    cannot be encoded.  The cache treats a bad entry as "entry missing"
    and regenerates — it never propagates to callers.
    """


class ScheduleCacheError(ReproError):
    """The schedule cache was misused (unwritable root, bad fingerprint)."""
