"""Low-level bit manipulation helpers for hypercube nodes.

Hypercube nodes are represented as plain Python integers interpreted as
bitmasks.  Bit index ``i`` (0-based) corresponds to the paper's *position*
``i + 1`` (1-based): the paper labels hypercube dimensions ``1 .. d`` and
defines the label of edge ``(x, y)`` as the position of the bit in which the
binary strings of ``x`` and ``y`` differ.

The module also provides small vectorized (NumPy) counterparts used by the
census/analysis code where whole levels or classes of the hypercube are
processed at once; per the HPC guides, the scalar versions are kept simple
and legible, and the vectorized versions exist only for the measured hot
paths (censuses over ``2^d`` nodes).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "popcount",
    "msb_position",
    "lowest_set_bit",
    "iter_set_bits",
    "iter_clear_bits",
    "flip_bit",
    "with_bit",
    "without_bit",
    "bitstring",
    "from_bitstring",
    "gray_code",
    "popcount_array",
    "msb_position_array",
    "mask_from_nodes",
    "nodes_from_mask",
    "lowest_set_index",
]


def popcount(x: int) -> int:
    """Number of 1 bits in ``x`` (the hypercube *level* of the node).

    >>> popcount(0b1011)
    3
    """
    return x.bit_count()


def msb_position(x: int) -> int:
    """Paper's ``m(x)``: 1-based position of the most significant set bit.

    Returns 0 for ``x == 0`` (the homebase ``00...0`` has no set bit).  This
    is also the index ``i`` of the class :math:`C_i` that ``x`` belongs to
    (Section 4.1 of the paper).

    >>> msb_position(0)
    0
    >>> msb_position(0b00101)
    3
    """
    if x < 0:
        raise ValueError(f"node must be non-negative, got {x}")
    return x.bit_length()


def lowest_set_bit(x: int) -> int:
    """1-based position of the least significant set bit; 0 if ``x == 0``."""
    if x == 0:
        return 0
    return (x & -x).bit_length()


def iter_set_bits(x: int) -> Iterator[int]:
    """Yield the 0-based indices of set bits of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def iter_clear_bits(x: int, width: int) -> Iterator[int]:
    """Yield the 0-based indices of clear bits of ``x`` below ``width``."""
    for i in range(width):
        if not (x >> i) & 1:
            yield i


def flip_bit(x: int, index: int) -> int:
    """Flip the 0-based bit ``index`` of ``x``."""
    return x ^ (1 << index)


def with_bit(x: int, index: int) -> int:
    """Set the 0-based bit ``index`` of ``x``."""
    return x | (1 << index)


def without_bit(x: int, index: int) -> int:
    """Clear the 0-based bit ``index`` of ``x``."""
    return x & ~(1 << index)


def bitstring(x: int, width: int) -> str:
    """Render ``x`` using the paper's string convention.

    The paper writes a node as :math:`b_1 b_2 \\ldots b_d` with *position 1
    leftmost*; position ``i`` is bit index ``i - 1``.  Hence the leftmost
    character of the returned string is the least significant bit.

    >>> bitstring(0b001, 4)   # only position 1 set
    '1000'
    >>> bitstring(0b1000, 4)  # only position 4 set
    '0001'
    """
    if x >= (1 << width):
        raise ValueError(f"{x} does not fit in {width} bits")
    return format(x, f"0{width}b")[::-1]


def from_bitstring(s: str) -> int:
    """Inverse of :func:`bitstring` (paper convention, position 1 leftmost)."""
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a bit string: {s!r}")
    return int(s[::-1], 2)


def gray_code(i: int) -> int:
    """The ``i``-th binary reflected Gray code value.

    Consecutive Gray codes differ in one bit, i.e. they are adjacent in the
    hypercube; used to build Hamiltonian walks for the baseline strategies.
    """
    return i ^ (i >> 1)


def mask_from_nodes(nodes: Iterable[int]) -> int:
    """Pack an iterable of node ids into a node-set bitmask.

    Node sets over a topology with ``n`` nodes are represented as plain
    Python integers with bit ``i`` set iff node ``i`` is in the set — the
    convention the simulation state layer uses throughout.

    >>> mask_from_nodes([0, 2, 5])
    37
    """
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


def nodes_from_mask(mask: int) -> set:
    """Unpack a node-set bitmask into a ``set`` of node ids.

    >>> sorted(nodes_from_mask(37))
    [0, 2, 5]
    """
    return set(iter_set_bits(mask))


def lowest_set_index(mask: int) -> int:
    """0-based index of the least significant set bit (``min`` of the set).

    Raises :class:`ValueError` on an empty mask — callers must handle the
    empty-set case themselves.

    >>> lowest_set_index(0b101000)
    3
    """
    if mask == 0:
        raise ValueError("empty mask has no set bit")
    return (mask & -mask).bit_length() - 1


def popcount_array(values: np.ndarray) -> np.ndarray:
    """Vectorized popcount over an integer array (levels of many nodes)."""
    values = np.asarray(values, dtype=np.uint64)
    counts = np.zeros(values.shape, dtype=np.int64)
    work = values.copy()
    while work.any():
        counts += (work & 1).astype(np.int64)
        work >>= np.uint64(1)
    return counts


def msb_position_array(values: np.ndarray) -> np.ndarray:
    """Vectorized ``m(x)`` (1-based MSB position, 0 for 0) over an array."""
    values = np.asarray(values, dtype=np.uint64)
    positions = np.zeros(values.shape, dtype=np.int64)
    work = values.copy()
    bit = 1
    while work.any():
        positions = np.where(work & 1, bit, positions)
        work >>= np.uint64(1)
        bit += 1
    return positions
