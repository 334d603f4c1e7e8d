"""Per-node whiteboards with fair mutual exclusion and bit accounting.

Section 2: "Each node has a local storage area called whiteboard
(``O(log n)`` bits of memory suffice for all our algorithms).  It is
through the whiteboards that agents communicate [...].  Access to a
whiteboard is gained fairly in mutual exclusion.  In particular, the
initial information contained in the whiteboard of a node are: its Id
(binary string), and the label of the incident ports."

In the discrete-event engine every whiteboard access is an atomic event,
which gives mutual exclusion for free; fairness comes from the FIFO
ordering of simultaneous events.  What the class adds is *accounting*: an
estimate of the bits stored, with a ceiling the A2 bench and the memory
tests use to confirm the paper's ``O(log n)``-bit claim (the ceiling
excludes the fixed initial content, as the paper's count does).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

from repro.errors import WhiteboardError

__all__ = ["Whiteboard", "estimate_bits"]

#: value types a read may return without copying: nothing can mutate them
_SCALARS = frozenset({type(None), bool, int, float, str})


def estimate_bits(value: Any) -> int:
    """Rough storage size of a whiteboard value in bits.

    Ints cost their bit length (min 1), booleans 1, strings 8 per char,
    ``None`` 1; containers cost the sum over their items plus a constant 8
    per slot for structure.  Deliberately simple — the point is catching
    *growth* (e.g. an agent list that scales with ``n`` where a counter
    would do), not byte-exact sizes.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length() + 1)  # +1 sign bit
    if isinstance(value, float):
        return 64
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_bits(v) + 8 for v in value)
    if isinstance(value, dict):
        return 8 + sum(estimate_bits(k) + estimate_bits(v) + 8 for k, v in value.items())
    raise WhiteboardError(f"unsupported whiteboard value type {type(value).__name__}")


class Whiteboard:
    """The mutable store at one node.

    Parameters
    ----------
    node:
        Owning node id (stored for error messages and the initial content).
    degree:
        Number of incident ports (initial content: the port labels).
    capacity_bits:
        Optional ceiling on user-stored bits; ``None`` disables enforcement
        (the accounting still runs and :attr:`peak_bits` records the high
        water mark).
    """

    def __init__(self, node: int, degree: int, capacity_bits: Optional[int] = None) -> None:
        self.node = node
        self.degree = degree
        self.capacity_bits = capacity_bits
        self._data: Dict[str, Any] = {}
        self.peak_bits = 0
        self.access_count = 0

    # ------------------------------------------------------------------ #

    @property
    def initial_info(self) -> Dict[str, Any]:
        """The paper's fixed initial content: node id and port labels."""
        return {"id": self.node, "ports": list(range(1, self.degree + 1))}

    def read(self, key: Optional[str] = None) -> Any:
        """Read one key (or everything when ``key`` is None).

        An immutable scalar (``None``, bool, int, float, str) is returned
        as stored; anything else is a deep copy.  Returning a stored
        container itself would hand the caller a live alias into the
        board: mutating a returned list/dict would change node state
        outside :meth:`write`/:meth:`update`, silently bypassing the bit
        accounting and the ``capacity_bits`` ceiling.  Mutation must go
        through :meth:`update`.
        """
        self.access_count += 1
        if key is None:
            return copy.deepcopy(self._data)
        value = self._data.get(key)
        if type(value) in _SCALARS:
            return value
        return copy.deepcopy(value)

    def write(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic; engine serializes access)."""
        self.access_count += 1
        if not isinstance(key, str):
            raise WhiteboardError(f"whiteboard keys must be strings, got {key!r}")
        self._data[key] = value
        self._account()

    def update(self, mutator) -> Any:
        """Apply ``mutator(dict) -> result`` atomically; returns the result.

        The mutator receives the live dict — this is the read-modify-write
        primitive protocols use for counters and arrival lists.
        """
        self.access_count += 1
        result = mutator(self._data)
        self._account()
        return result

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (and refresh the bit accounting —
        a board over capacity through an aliasing bug must be caught at
        the delete, not silently at the next unrelated write)."""
        self.access_count += 1
        self._data.pop(key, None)
        self._account()

    def used_bits(self) -> int:
        """Current user-stored bits (excludes the fixed initial content)."""
        return sum(estimate_bits(k) + estimate_bits(v) for k, v in self._data.items())

    def _account(self) -> None:
        bits = self.used_bits()
        if bits > self.peak_bits:
            self.peak_bits = bits
        if self.capacity_bits is not None and bits > self.capacity_bits:
            raise WhiteboardError(
                f"whiteboard of node {self.node} holds {bits} bits "
                f"(> capacity {self.capacity_bits})"
            )

    def __repr__(self) -> str:
        return f"Whiteboard(node={self.node}, keys={sorted(self._data)}, bits={self.used_bits()})"
