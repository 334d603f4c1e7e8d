"""The ``d``-dimensional hypercube :math:`H_d` (Section 2 of the paper).

Nodes are integers in ``range(2**d)`` interpreted as bitmasks; the paper's
*position* ``i`` (1-based) is bit index ``i - 1``.  Two nodes are adjacent
iff their binary strings differ in exactly one position, and the label
``λ_x(x, z)`` of the edge ``(x, z)`` at ``x`` is that differing position
(the labelling is symmetric in a hypercube: ``λ_x(x, z) == λ_z(z, x)``).

The class exposes every structural notion the two search strategies rely
on:

* *levels*: level ``l`` holds the nodes with ``l`` one-bits,
* ``m(x)``: the position of the most significant bit of ``x``,
* *classes* :math:`C_i`: nodes whose most significant bit is in position
  ``i`` (Section 4.1, Figure 3),
* *smaller/bigger neighbours* (Definition 2): ``y`` is a smaller neighbour
  of ``x`` if ``λ(x, y) <= m(x)`` and a bigger neighbour otherwise; the
  bigger neighbours of ``x`` are exactly its children in the broadcast
  tree.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro._bitops import (
    bitstring,
    iter_set_bits,
    msb_position,
    msb_position_array,
    popcount,
    popcount_array,
)
from repro.errors import InvalidNodeError, TopologyError

__all__ = ["Hypercube"]


class Hypercube:
    """The ``d``-dimensional hypercube with the paper's port labelling.

    Parameters
    ----------
    dimension:
        The degree ``d`` of the hypercube; the graph has ``n = 2**d`` nodes
        and ``d * 2**(d-1)`` edges.  ``dimension=0`` (a single node) is
        allowed and useful as a degenerate test case.

    Examples
    --------
    >>> h = Hypercube(3)
    >>> h.n
    8
    >>> sorted(h.neighbors(0b000))
    [1, 2, 4]
    >>> h.level(0b101)
    2
    >>> h.edge_label(0b000, 0b100)
    3
    """

    __slots__ = ("_d", "_n", "_adj", "_nbr_masks", "_dim_low")

    #: largest node count for which the adjacency table is materialized;
    #: beyond it (d > 17) neighbour lists/masks are computed on the fly.
    _ADJACENCY_TABLE_MAX_NODES = 1 << 17

    def __init__(self, dimension: int) -> None:
        if dimension < 0:
            raise TopologyError(f"hypercube dimension must be >= 0, got {dimension}")
        if dimension > 30:
            raise TopologyError(
                f"dimension {dimension} would create 2**{dimension} nodes; refusing (max 30)"
            )
        self._d = dimension
        self._n = 1 << dimension
        self._adj: tuple = ()
        self._nbr_masks: tuple = ()
        self._dim_low: tuple = ()

    # ------------------------------------------------------------------ #
    # basic shape
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """The degree ``d`` of the hypercube."""
        return self._d

    #: Alias matching the paper's notation.
    @property
    def d(self) -> int:
        """Alias for :attr:`dimension`."""
        return self._d

    @property
    def n(self) -> int:
        """Number of nodes, ``2**d``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges, ``d * 2**(d-1)``."""
        return self._d * (self._n >> 1) if self._d else 0

    @property
    def homebase(self) -> int:
        """The node ``00...0`` where all agents start."""
        return 0

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self._n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypercube) and other._d == self._d

    def __hash__(self) -> int:
        return hash(("Hypercube", self._d))

    def __repr__(self) -> str:
        return f"Hypercube(dimension={self._d})"

    def nodes(self) -> range:
        """All node identifiers, ``0 .. n-1``."""
        return range(self._n)

    def check_node(self, node: int) -> int:
        """Validate a node id, returning it; raise :class:`InvalidNodeError`."""
        if not (isinstance(node, (int, np.integer)) and 0 <= node < self._n):
            raise InvalidNodeError(int(node) if isinstance(node, (int, np.integer)) else -1, self._n)
        return int(node)

    # ------------------------------------------------------------------ #
    # adjacency and labels
    # ------------------------------------------------------------------ #

    def neighbors(self, node: int) -> Sequence[int]:
        """The ``d`` neighbours of ``node`` (differ in exactly one bit).

        Returns a cached immutable tuple: the full adjacency table is
        precomputed on first use (for ``d <= 17``), so hot-path callers —
        the simulation state layer touches neighbourhoods on every agent
        move — never rebuild lists or re-validate node ids.
        """
        if not self._adj:
            if self._n <= self._ADJACENCY_TABLE_MAX_NODES:
                self._adj = tuple(
                    tuple(x ^ (1 << i) for i in range(self._d)) for x in range(self._n)
                )
            else:
                self.check_node(node)
                return tuple(node ^ (1 << i) for i in range(self._d))
        self.check_node(node)
        return self._adj[node]

    def neighbor_mask(self, node: int) -> int:
        """Bitmask of the neighbours of ``node`` (bit ``y`` set iff
        ``y`` is adjacent to ``node``); cached like :meth:`neighbors`."""
        if not self._nbr_masks:
            if self._n <= self._ADJACENCY_TABLE_MAX_NODES:
                self._nbr_masks = tuple(
                    sum(1 << (x ^ (1 << i)) for i in range(self._d)) for x in range(self._n)
                )
            else:
                self.check_node(node)
                return sum(1 << (node ^ (1 << i)) for i in range(self._d))
        self.check_node(node)
        return self._nbr_masks[node]

    @property
    def full_mask(self) -> int:
        """Bitmask with every node's bit set (the whole node set)."""
        return (1 << self._n) - 1

    def spread_mask(self, mask: int) -> int:
        """One-step neighbourhood of a node *set* given as a bitmask.

        Returns the union of the neighbour sets of every node in ``mask``
        (the input nodes themselves are not automatically included).  For
        the hypercube this is ``d`` big-integer shifts — per-dimension, the
        nodes with bit ``i`` clear swap places with those where it is set —
        so whole-frontier BFS expansion costs O(d) word-parallel operations
        instead of touching nodes one by one.
        """
        out = 0
        for shift, low in self._dimension_low_masks():
            out |= (mask & low) << shift
            out |= (mask >> shift) & low
        return out

    def _dimension_low_masks(self) -> tuple:
        """Per-dimension ``(shift, low)`` pairs where ``low`` masks the
        nodes whose bit ``i`` is clear (cached helper for :meth:`spread_mask`)."""
        if not self._dim_low:
            pairs = []
            all_nodes = (1 << self._n) - 1
            for i in range(self._d):
                shift = 1 << i
                period = shift << 1
                # runs of ``shift`` set bits every ``period`` bits
                low = ((1 << shift) - 1) * (all_nodes // ((1 << period) - 1))
                pairs.append((shift, low))
            self._dim_low = tuple(pairs)
        return self._dim_low

    def neighbor(self, node: int, position: int) -> int:
        """The neighbour of ``node`` across the port labelled ``position``.

        ``position`` is 1-based, matching the paper's ``λ`` labels.
        """
        self.check_node(node)
        if not 1 <= position <= self._d:
            raise TopologyError(f"port position must be in 1..{self._d}, got {position}")
        return node ^ (1 << (position - 1))

    def has_edge(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` are adjacent (Hamming distance 1)."""
        self.check_node(x)
        self.check_node(y)
        diff = x ^ y
        return diff != 0 and diff & (diff - 1) == 0

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ordered pairs ``(low, high)``."""
        for x in range(self._n):
            for i in range(self._d):
                y = x ^ (1 << i)
                if x < y:
                    yield (x, y)

    def edge_label(self, x: int, y: int) -> int:
        """The paper's label ``λ_x(x, y)``: 1-based differing bit position."""
        if not self.has_edge(x, y):
            raise TopologyError(f"({x}, {y}) is not a hypercube edge")
        return (x ^ y).bit_length()

    def ports(self, node: int) -> range:
        """The port labels at ``node``: positions ``1 .. d``."""
        self.check_node(node)
        return range(1, self._d + 1)

    # ------------------------------------------------------------------ #
    # levels (popcount strata, Section 2)
    # ------------------------------------------------------------------ #

    def level(self, node: int) -> int:
        """The level of ``node``: number of 1 bits in its string."""
        self.check_node(node)
        return popcount(node)

    def level_nodes(self, level: int) -> List[int]:
        """All nodes at ``level`` in increasing integer order.

        Increasing integer order coincides with the paper's lexicographic
        order on bit strings read most-significant-position first, which is
        the order the synchronizer uses (Algorithm 1, step 2.2; Lemma 1
        requires exactly this order).
        """
        if not 0 <= level <= self._d:
            raise TopologyError(f"level must be in 0..{self._d}, got {level}")
        return [x for x in range(self._n) if popcount(x) == level]

    def level_size(self, level: int) -> int:
        """Number of nodes at ``level``: ``C(d, level)``."""
        if not 0 <= level <= self._d:
            raise TopologyError(f"level must be in 0..{self._d}, got {level}")
        from math import comb

        return comb(self._d, level)

    def levels(self) -> Iterator[List[int]]:
        """Iterate over levels ``0 .. d``, yielding node lists."""
        buckets: List[List[int]] = [[] for _ in range(self._d + 1)]
        for x in range(self._n):
            buckets[popcount(x)].append(x)
        yield from buckets

    # ------------------------------------------------------------------ #
    # m(x), classes C_i, smaller/bigger neighbours (Definition 2, §4.1)
    # ------------------------------------------------------------------ #

    def msb(self, node: int) -> int:
        """The paper's ``m(x)``: 1-based position of the most significant bit.

        ``m(homebase) == 0`` by convention (no set bit).
        """
        self.check_node(node)
        return msb_position(node)

    def class_index(self, node: int) -> int:
        """Index ``i`` of the class :math:`C_i` containing ``node``.

        ``C_0 = {00...0}``; for ``i > 0``, :math:`C_i` holds the nodes whose
        most significant bit is in position ``i`` (Section 4.1).
        """
        return self.msb(node)

    def class_members(self, index: int) -> List[int]:
        """All nodes of class :math:`C_i`, in increasing order.

        Property 5: ``|C_0| == 1`` and ``|C_i| == 2**(i-1)`` for ``i >= 1``.
        """
        if not 0 <= index <= self._d:
            raise TopologyError(f"class index must be in 0..{self._d}, got {index}")
        if index == 0:
            return [0]
        base = 1 << (index - 1)
        return [base | rest for rest in range(base)]

    def class_size(self, index: int) -> int:
        """``|C_i|`` per Property 5."""
        if not 0 <= index <= self._d:
            raise TopologyError(f"class index must be in 0..{self._d}, got {index}")
        return 1 if index == 0 else 1 << (index - 1)

    def classes(self) -> List[List[int]]:
        """All classes ``C_0 .. C_d`` as lists (Figure 3)."""
        return [self.class_members(i) for i in range(self._d + 1)]

    def smaller_neighbors(self, node: int) -> List[int]:
        """Neighbours ``y`` with ``λ(x, y) <= m(x)`` (Definition 2).

        The homebase has no smaller neighbours.
        """
        self.check_node(node)
        m = msb_position(node)
        return [node ^ (1 << i) for i in range(m)]

    def bigger_neighbors(self, node: int) -> List[int]:
        """Neighbours ``y`` with ``λ(x, y) > m(x)``; the broadcast-tree
        children of ``node`` (Definition 2 and the remark following it)."""
        self.check_node(node)
        m = msb_position(node)
        return [node | (1 << i) for i in range(m, self._d)]

    def is_smaller_neighbor(self, node: int, other: int) -> bool:
        """Whether ``other`` is a smaller neighbour of ``node``."""
        return self.edge_label(node, other) <= self.msb(node)

    # ------------------------------------------------------------------ #
    # metric structure
    # ------------------------------------------------------------------ #

    def distance(self, x: int, y: int) -> int:
        """Hamming distance (= graph distance) between ``x`` and ``y``."""
        self.check_node(x)
        self.check_node(y)
        return popcount(x ^ y)

    def shortest_path(self, x: int, y: int) -> List[int]:
        """A shortest path from ``x`` to ``y``, flipping differing bits.

        Bits are flipped from the lowest differing position upward; the
        returned list includes both endpoints.  Used by the synchronizer to
        navigate between consecutive level-``l`` nodes and back to the
        root (Algorithm 1, move accounting of Theorem 3).
        """
        self.check_node(x)
        self.check_node(y)
        path = [x]
        current = x
        for i in iter_set_bits(x ^ y):
            current ^= 1 << i
            path.append(current)
        return path

    def path_via_meet(self, x: int, y: int) -> List[int]:
        """A shortest path ``x -> y`` routed through the meet ``x & y``.

        First clears the bits of ``x`` not in ``y`` (highest first), then
        sets the bits of ``y`` not in ``x`` (lowest first).  Every
        intermediate node is a subset of ``x`` or of ``y``, so its level
        never exceeds ``max(level(x), level(y))`` — this is how the
        synchronizer navigates between level-``l`` nodes without straying
        into the contaminated levels above (Algorithm 1, step 2.2).
        """
        self.check_node(x)
        self.check_node(y)
        path = [x]
        current = x
        for i in sorted(iter_set_bits(x & ~y), reverse=True):
            current ^= 1 << i
            path.append(current)
        for i in iter_set_bits(y & ~x):
            current |= 1 << i
            path.append(current)
        return path

    def tree_path_down(self, node: int) -> List[int]:
        """The broadcast-tree path from the root to ``node``.

        Successively sets the bits of ``node`` from the lowest position
        upward, which walks root -> ... -> node along tree edges (each step
        adds the next higher set bit, so every prefix has its most
        significant bit added last, matching the tree's parent relation).
        """
        self.check_node(node)
        path = [0]
        current = 0
        for i in iter_set_bits(node):
            current |= 1 << i
            path.append(current)
        return path

    # ------------------------------------------------------------------ #
    # rendering and conversion
    # ------------------------------------------------------------------ #

    def bitstring(self, node: int) -> str:
        """Paper-convention string ``b_1 b_2 ... b_d`` (position 1 leftmost)."""
        self.check_node(node)
        return bitstring(node, self._d) if self._d else ""

    def node_from_bitstring(self, s: str) -> int:
        """Parse a paper-convention bit string back into a node id."""
        from repro._bitops import from_bitstring

        if len(s) != self._d:
            raise TopologyError(f"expected a {self._d}-bit string, got {s!r}")
        node = from_bitstring(s) if self._d else 0
        return self.check_node(node)

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` with ``label`` edge data."""
        import networkx as nx

        g = nx.Graph(name=f"H_{self._d}")
        g.add_nodes_from(self.nodes())
        for x, y in self.edges():
            g.add_edge(x, y, label=self.edge_label(x, y))
        return g

    # ------------------------------------------------------------------ #
    # vectorized censuses (hot paths for large d)
    # ------------------------------------------------------------------ #

    def level_census(self) -> np.ndarray:
        """``census[l]`` = number of nodes at level ``l`` (vectorized)."""
        values = np.arange(self._n, dtype=np.uint64)
        levels = popcount_array(values)
        return np.bincount(levels, minlength=self._d + 1)

    def class_census(self) -> np.ndarray:
        """``census[i]`` = ``|C_i|`` (vectorized; checks Property 5)."""
        values = np.arange(self._n, dtype=np.uint64)
        classes = msb_position_array(values)
        return np.bincount(classes, minlength=self._d + 1)

    def node_levels(self) -> np.ndarray:
        """Vector of levels for every node id ``0 .. n-1``."""
        return popcount_array(np.arange(self._n, dtype=np.uint64))

    def node_classes(self) -> np.ndarray:
        """Vector of class indices for every node id ``0 .. n-1``."""
        return msb_position_array(np.arange(self._n, dtype=np.uint64))

    # ------------------------------------------------------------------ #
    # subcube helpers (used by the baselines and the examples)
    # ------------------------------------------------------------------ #

    def subcube_nodes(self, fixed_positions: Sequence[int], values: int) -> List[int]:
        """Nodes of the subcube obtained by fixing some positions.

        ``fixed_positions`` is a sequence of 1-based positions, ``values`` a
        bitmask over those positions in the order given (bit ``j`` of
        ``values`` is the value at ``fixed_positions[j]``).
        """
        for p in fixed_positions:
            if not 1 <= p <= self._d:
                raise TopologyError(f"position {p} out of range 1..{self._d}")
        if len(set(fixed_positions)) != len(fixed_positions):
            raise TopologyError("fixed positions must be distinct")
        free = [i for i in range(self._d) if (i + 1) not in set(fixed_positions)]
        base = 0
        for j, p in enumerate(fixed_positions):
            if (values >> j) & 1:
                base |= 1 << (p - 1)
        out = []
        for assignment in range(1 << len(free)):
            node = base
            for j, i in enumerate(free):
                if (assignment >> j) & 1:
                    node |= 1 << i
            out.append(node)
        return sorted(out)
