"""Bit-plane kernels: packed node planes and the chunk verifier.

These are the package's one fast path, and the verifier of every
strategy, cloning included.  The per-move reference replay stays beside
them: :class:`~repro.fastpath.batchverify._ReplayState` continues a
block this module declines, and is what the parity tests compare the
verifier against.

Bit-plane kernels
-----------------
A node set of the ``d``-cube is a packed ``uint64[ceil(n/64)]`` plane
(bit ``x`` of the plane = node ``x``).  The hypercube's structure makes
every neighbourhood operation an XOR-shift: flipping coordinate ``p`` is
an in-word block swap for ``p < 6`` (shift by ``2**p`` under the
alternating masks) and a whole-word permutation for ``p >= 6``.  On top
of that one primitive sit :func:`plane_spread` (union of all ``d``
neighbour shifts), :func:`plane_popcount` (``np.bitwise_count`` when the
installed numpy has it, a byte lookup table otherwise) and
:func:`plane_connected` (frontier BFS entirely on packed words).

:class:`NPChunkVerifier` replays schedule chunks on these planes plus
flat ``int64`` node/agent tables, with *no per-move or per-unit Python
loop*.  Every row is checked once, in the block that brings it, with
two ``np.sort`` calls on packed ``int64`` keys and segmented reductions:
row-local structure, per-agent chains, exact sequential guard occupancy
(clone materializations included) and the adjacent-extension contiguity
invariant per newly cleaned node.  Only the departure rule waits, once
per (node, time-unit) group, until the unit closes.  The detectors are
exact on the invariant-holding fast path; the moment any of them fires —
which includes *every* malformed or invariant-violating schedule — the
verifier restores the state of the last settled unit boundary and raises
:class:`KernelFallback`, and the caller replays the rows since that
boundary through ``_ReplayState``.  Verdicts, violation lists and error
messages are therefore byte-identical to the reference replay by
construction: the kernel only ever settles behaviour the reference
accepts silently, and it declines a malformed row in the same block the
reference raises on it.

Layering: imports only ``repro.errors`` and ``numpy`` (rule RPR220).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "KernelFallback",
    "NPChunkVerifier",
    "check_backend",
    "plane_connected",
    "plane_popcount",
    "plane_shift_dim",
    "plane_spread",
    "pack_nodes",
    "unpack_plane",
]


def check_backend(backend: Optional[str]) -> None:
    """Reject every ``backend=`` value except ``None`` and ``"numpy"``.

    The bit-plane kernel is the only fast path.  ``measure_cell``,
    ``parallel_sweep`` and ``run_batch`` still take the argument so that
    callers passing ``backend="numpy"`` keep working; it selects nothing.
    """
    if backend is not None and backend != "numpy":
        raise ScheduleError(
            f"unknown kernel backend {backend!r}: the bit-plane kernel "
            "('numpy') is the only one"
        )


# --------------------------------------------------------------------- #
# packed bit-plane primitives
# --------------------------------------------------------------------- #

#: ``_ALT_MASKS[p]`` keeps the *lower* half of every ``2**(p+1)``-bit
#: block: the in-word half of the coordinate-``p`` block swap.
_ALT_MASK_VALUES = (
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
)


def plane_words(n: int) -> int:
    """Words in a packed plane over ``n`` nodes (at least one)."""
    return max(1, (n + 63) >> 6)


def pack_nodes(nodes: Any, n: int) -> Any:
    """Packed plane with the bits of ``nodes`` (an int index array) set."""
    plane = np.zeros(plane_words(n), dtype=np.uint64)
    idx = np.asarray(nodes, dtype=np.int64)
    if idx.size:
        bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
        np.bitwise_or.at(plane, idx >> 6, bits)
    return plane


def unpack_plane(plane: Any, n: int) -> Any:
    """Per-node 0/1 ``uint8[n]`` view of a packed plane."""
    return np.unpackbits(plane.view(np.uint8), count=n, bitorder="little")


def plane_shift_dim(plane: Any, p: int) -> Any:
    """Neighbour plane along coordinate ``p``: bit ``x`` -> bit ``x ^ 2**p``.

    Works on the last axis of any ``(..., words)`` uint64 array.  For
    ``p < 6`` the flip is an in-word block swap; for ``p >= 6`` it is a
    pure word permutation (adjacent groups of ``2**(p-6)`` words swap).
    Because XOR with a single bit is an involution, this is both the
    neighbour operator and the translation by ``2**p``.
    """
    if p < 6:
        s = 1 << p
        m = np.uint64(_ALT_MASK_VALUES[p])
        return ((plane & m) << np.uint64(s)) | ((plane >> np.uint64(s)) & m)
    step = 1 << (p - 6)
    shape = plane.shape
    grouped = plane.reshape(shape[:-1] + (shape[-1] // (2 * step), 2, step))
    return np.ascontiguousarray(grouped[..., ::-1, :]).reshape(shape)


def plane_spread(plane: Any, d: int) -> Any:
    """Union of all ``d`` neighbour shifts (the one-step BFS frontier)."""
    out = plane_shift_dim(plane, 0)
    for p in range(1, d):
        out = out | plane_shift_dim(plane, p)
    return out


_POPCOUNT_LUT: Any = None


def plane_popcount(plane: Any) -> int:
    """Total set bits of a packed plane (``np.bitwise_count`` when the
    installed numpy ships it, a byte lookup table otherwise)."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(plane).sum())
    global _POPCOUNT_LUT
    if _POPCOUNT_LUT is None:
        _POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    return int(_POPCOUNT_LUT[plane.view(np.uint8)].sum())


def plane_connected(plane: Any, d: int, start: int) -> bool:
    """Frontier BFS on packed words: is the plane's node set connected?

    Starts at ``start`` when it is in the set, else at the set's lowest
    node (the same deterministic choice as the reference replay's
    bitset BFS).
    """
    total = plane_popcount(plane)
    if total == 0:
        return True
    words = plane.shape[-1]
    reached = np.zeros(words, dtype=np.uint64)
    if (int(plane[start >> 6]) >> (start & 63)) & 1:
        reached[start >> 6] = np.uint64(1 << (start & 63))
    else:
        w = int(np.nonzero(plane)[0][0])
        bit = int(plane[w]) & -int(plane[w])
        reached[w] = np.uint64(bit)
    size = 1
    while True:
        reached = reached | (plane_spread(reached, d) & plane)
        grown = plane_popcount(reached)
        if grown == size:
            return size == total
        size = grown


# --------------------------------------------------------------------- #
# the bit-plane chunk verifier
# --------------------------------------------------------------------- #


class KernelFallback(Exception):
    """The kernel declined a block; replay the unsettled rows on the reference.

    Raised by :class:`NPChunkVerifier` *after* restoring the state of the
    last settled unit boundary, so the state it exports plus the rows it
    retains reproduce the reference replay exactly — anomalies include
    every actual violation, and false alarms only cost speed, never the
    verdict.
    """


#: "never cleaned" sentinel for the order/unit tables (beyond any index).
_INF = 1 << 62

#: Agent ids above this bound are declined to the reference replay's
#: dict-keyed tables rather than given per-id array slots.
_MAX_AGENT_ID = 1 << 22

_NO_NODES = np.empty(0, dtype=np.int64)

#: Occupancy event codes, the low two bits of the event key.  At one
#: (node, row) a clone's materialization comes just before that row's
#: departure; the row's arrival is at another node.
_MATERIALIZE, _DEPART, _ARRIVE = 0, 1, 2
_EVENT_DELTA = np.array([1, -1, 1], dtype=np.int64)


class _Block(NamedTuple):
    """The two sorted orders of one block, shared by its checks and by
    the commit of each of its parts."""

    #: (agent, row) order: the agents, their rows, the last row of
    #: each agent's run, and the rows that materialize a clone
    agents: Any
    agent_rows: Any
    agent_ends: Any
    clones: Any
    #: (node, row, code) order of the occupancy events: the node and
    #: row of each, the guard count after it, and the last event of
    #: each node's run
    nodes: Any
    event_rows: Any
    guards: Any
    node_ends: Any
    #: each node the block arrives at (ascending) and its first arrival row
    fresh: Any
    fresh_rows: Any


def _last_inside(ends: Any, inside: Any) -> Any:
    """Flags of each run's last entry among those ``inside`` a row range.

    Rows ascend within every run and ``ends`` flags each run's last
    entry, so that entry is the one whose successor is outside the range
    or starts the next run.
    """
    follows = np.zeros(len(inside), dtype=bool)
    follows[:-1] = inside[1:]
    return inside & (ends | ~follows)


def _in_rows(rows: Any, lo: int, hi: int) -> Any:
    """Flags of the ``rows`` in ``[lo, hi)``."""
    return (rows >= lo) & (rows < hi)


class NPChunkVerifier:
    """Vectorized replay state for one schedule, cloning or not.

    The per-node tables of the reference ``_ReplayState`` become flat
    numpy arrays (``guard`` counts, first-clean move index and time
    unit, the packed clean plane); agents live in dense position/clock
    arrays.  :meth:`feed` checks and applies every row of a block once,
    on two sorts of packed ``int64`` keys with power-of-two strides (so
    decoding is shifts and masks):

    * an (agent, row) order for the per-agent chains and the agent
      tables;
    * a (node, row, event code) order for exact sequential guard
      occupancy (a per-node running count), the departure groups and
      each node's first arrival;
    * contiguity as the adjacent-extension invariant — every newly
      cleaned node needs a neighbour with a smaller first-clean index.

    In a cloning schedule agent 0 starts alone on the homebase.  Every
    other agent materializes at the source of its first row: a ``+1``
    occupancy event just before that row's departure, accepted only if
    the source was clean at that row (cleaned before the block, or by an
    earlier arrival in it).

    Only the departure rule waits for its time unit to close, since a
    later row of the same unit may still re-guard a vacated node.  Per
    (node, unit) group, a vacated node with a neighbour whose first-clean
    unit is later than the group's unit is exactly the reference's
    recontamination trigger.  The open unit's per-node departure state
    sits in two dense flag arrays, so a unit spread over many blocks is
    never sorted twice.

    Any detector firing restores the state of the last settled unit
    boundary and raises :class:`KernelFallback`;
    :meth:`export_replay_state` + :meth:`pending_rows` then hand the
    reference replay an identical mid-stream state.
    """

    def __init__(
        self, dimension: int, homebase: int, team: int, uses_cloning: bool
    ) -> None:
        self.d = dimension
        self.n = 1 << dimension
        self.words = plane_words(self.n)
        self.home = homebase
        self.team = team
        self.cloning = uses_cloning
        n = self.n
        self.guard = np.zeros(n, dtype=np.int64)
        self.guard[homebase] = 1 if uses_cloning else team
        self.clean_order = np.full(n, _INF, dtype=np.int64)
        self.clean_order[homebase] = -1
        self.clean_unit = np.full(n, _INF, dtype=np.int64)
        self.clean_unit[homebase] = 0
        self.clean_plane = pack_nodes(np.array([homebase]), n)
        self.region_size = 1
        cap = max(team, 1)
        self.pos = np.full(cap, -1, dtype=np.int64)
        self.clock = np.zeros(cap, dtype=np.int64)
        if uses_cloning:
            self.pos[0] = homebase
        self.moves_seen = 0
        #: the last settled time unit, and the open one (0 = none yet)
        self.last_unit = 0
        self.open_unit = 0
        # per node, for the open unit: the guard count after the node's
        # latest event is zero (that event was then a departure)
        self._open_empty = np.zeros(n, dtype=bool)
        self._open_nodes: List[Any] = []
        # the rows fed since the last settled boundary, that boundary's
        # state, and (after a decline) the rows handed back
        self._unsettled: List[Tuple[Any, ...]] = []
        self._boundary: Tuple[Any, ...] = ()
        self._boundary = self._save()
        self._pending: Optional[Tuple[Any, ...]] = None

    # -- feeding -------------------------------------------------------- #

    def _save(self) -> Tuple[Any, ...]:
        """The settled state, copied into the previous boundary's buffers
        where the shapes match: moving the boundary allocates nothing (at
        d=20 the three node tables are 24 MiB)."""
        tables = (
            self.guard,
            self.clean_order,
            self.clean_unit,
            self.clean_plane,
            self.pos,
            self.clock,
        )
        copies: List[Any] = []
        for table, buf in zip(tables, self._boundary or (None,) * len(tables)):
            if buf is not None and buf.shape == table.shape:
                np.copyto(buf, table)
            else:
                buf = table.copy()
            copies.append(buf)
        return (*copies, self.region_size, self.moves_seen, self.last_unit)

    def _decline(self) -> None:
        """Restore the last settled boundary and keep every row since."""
        (
            self.guard,
            self.clean_order,
            self.clean_unit,
            self.clean_plane,
            self.pos,
            self.clock,
            self.region_size,
            self.moves_seen,
            self.last_unit,
        ) = self._boundary
        self._pending = tuple(np.concatenate(col) for col in zip(*self._unsettled))
        raise KernelFallback()

    def feed(self, times: Any, agents: Any, srcs: Any, dsts: Any) -> None:
        """Check and apply one block of columns (any length/alignment)."""
        cols = tuple(np.asarray(c, dtype=np.int64) for c in (times, agents, srcs, dsts))
        t, a, s, dd = cols
        if not len(t):
            return
        self._unsettled.append(cols)
        # row-local checks: any failure is an anomaly the reference
        # replay turns into the exact error
        edge = s ^ dd
        if (
            t[0] < max(self.open_unit, 1)
            or bool(np.any(np.diff(t) < 0))
            or bool(np.any((s < 0) | (s >= self.n) | (dd < 0) | (dd >= self.n)))
            or bool(np.any((edge == 0) | (edge & (edge - 1) != 0) | (edge >= self.n)))
            or bool(np.any((a < 0) | (a >= _MAX_AGENT_ID)))
        ):
            self._decline()
        if int(a.max()) >= len(self.pos):
            self._grow_agents(int(a.max()))
        last = int(t[-1])
        try:
            block = self._check_block(t, a, s, dd)
            groups = self._unit_groups(t, block)
            cut = 0
            if last != self.open_unit:
                # the block closes the open unit and every unit it opens
                # before its last: apply their rows, settle them, and
                # move the boundary to the start of unit `last`
                cut = int(np.searchsorted(t, last, side="left"))
                self._apply_moves(t, s, dd, block, 0, cut)
                self._settle(groups, last)
                self.last_unit = int(t[cut - 1]) if cut else self.open_unit
                self.open_unit = last
                self._boundary = self._save()
                self._unsettled = [tuple(c[cut:] for c in cols)]
            self._apply_moves(t, s, dd, block, cut, len(t))
            node, unit, empty = groups
            self._note_open(node, empty, unit == last)
        except KernelFallback:
            self._decline()

    def finish_tail(self) -> None:
        """Settle the open unit (call once, before the verdict)."""
        vacated = self._close_open_unit()
        try:
            self._check_departures(vacated, np.full(len(vacated), self.open_unit))
        except KernelFallback:
            self._decline()

    def _grow_agents(self, upto: int) -> None:
        cap = len(self.pos)
        new_cap = max(upto + 1, 2 * cap)
        pos = np.full(new_cap, -1, dtype=np.int64)
        pos[:cap] = self.pos
        clock = np.zeros(new_cap, dtype=np.int64)
        clock[:cap] = self.clock
        self.pos, self.clock = pos, clock

    def _check_block(self, t: Any, a: Any, s: Any, dd: Any) -> _Block:
        """Sort the block twice and run every check but the departure
        rule and the region's (those need the commit order)."""
        m = len(t)
        row_bits = max(1, (m - 1).bit_length())
        rows = np.arange(m, dtype=np.int64)
        agents, agent_rows, agent_ends, clones = self._check_chains(
            t, a, s, dd, rows, row_bits
        )
        nodes, event_rows, codes, guards, node_ends = self._check_occupancy(
            s, dd, clones, rows, row_bits
        )
        arrived = np.flatnonzero(codes == _ARRIVE)
        an, ar = nodes[arrived], event_rows[arrived]
        first = np.empty(len(an), dtype=bool)
        first[0] = True
        first[1:] = an[1:] != an[:-1]
        return _Block(
            agents, agent_rows, agent_ends, clones,
            nodes, event_rows, guards, node_ends,
            an[first], ar[first],
        )

    def _check_chains(
        self, t: Any, a: Any, s: Any, dd: Any, rows: Any, row_bits: int
    ) -> Tuple[Any, Any, Any, Any]:
        """Per-agent structure on the (agent, row) order: homebase starts
        (or, cloning, a clone's materialization), chained positions, one
        move per unit per agent (strictly increasing per-agent times)."""
        keys = np.sort((a << row_bits) | rows)
        sa = keys >> row_bits
        order = keys & ((1 << row_bits) - 1)
        st, ss, sd = t[order], s[order], dd[order]
        first = np.empty(len(sa), dtype=bool)
        first[0] = True
        first[1:] = sa[1:] != sa[:-1]
        if len(sa) > 1:
            chained = (~first[1:]) & ((ss[1:] != sd[:-1]) | (st[1:] <= st[:-1]))
            if bool(chained.any()):
                raise KernelFallback()
        starts = sa[first]
        prev_pos = self.pos[starts]
        placed = prev_pos >= 0
        bad_first = np.where(
            placed,
            (ss[first] != prev_pos) | (st[first] <= self.clock[starts]),
            (ss[first] != self.home) & (not self.cloning),
        )
        if bool(bad_first.any()):
            raise KernelFallback()
        clones = order[first][~placed] if self.cloning else _NO_NODES
        ends = np.empty(len(sa), dtype=bool)
        ends[-1] = True
        ends[:-1] = first[1:]
        return sa, order, ends, clones

    def _check_occupancy(
        self, s: Any, dd: Any, clones: Any, rows: Any, row_bits: int
    ) -> Tuple[Any, Any, Any, Any, Any]:
        """Exact sequential guard occupancy as a segmented running count.

        Each move emits a departure at its src and an arrival at its
        dst, and each clone a materialization at its src; one sort of
        the (node, row, code) keys puts every node's events in the
        reference replay's order.  Per node, the running count from the
        current guard must never dip below zero — precisely the
        reference's ``no agent on src to move`` check, in column order.
        """
        shift = row_bits + 2
        tagged = rows << 2
        keys = np.concatenate(
            [
                (s << shift) | tagged | _DEPART,
                (dd << shift) | tagged | _ARRIVE,
                (s[clones] << shift) | (clones << 2) | _MATERIALIZE,
            ]
        )
        keys.sort()
        nodes = keys >> shift
        event_rows = (keys >> 2) & ((1 << row_bits) - 1)
        codes = keys & 3
        delta = _EVENT_DELTA[codes]
        starts = np.empty(len(keys), dtype=bool)
        starts[0] = True
        starts[1:] = nodes[1:] != nodes[:-1]
        seg_idx = np.flatnonzero(starts)
        cs = np.cumsum(delta)
        # each node's guard at the block start, less the deltas before
        # its run: added to the cumulative sum it is the running count
        offset = self.guard[nodes[seg_idx]] - cs[seg_idx] + delta[seg_idx]
        guards = cs + np.repeat(offset, np.diff(np.append(seg_idx, len(keys))))
        if int(guards.min()) < 0:
            raise KernelFallback()
        ends = np.empty(len(keys), dtype=bool)
        ends[-1] = True
        ends[:-1] = starts[1:]
        return nodes, event_rows, codes, guards, ends

    @staticmethod
    def _unit_groups(t: Any, block: _Block) -> Tuple[Any, Any, Any]:
        """Per (node, unit) group of the sorted events: the node, the
        unit, and whether the node is unguarded after the group's last
        event.  Running counts never dip below zero, so a group that
        ends unguarded ends on a departure: the reference's vacated
        node."""
        units = t[block.event_rows]
        ends = block.node_ends.copy()
        ends[:-1] |= units[1:] != units[:-1]
        g_end = np.flatnonzero(ends)
        return block.nodes[g_end], units[g_end], block.guards[g_end] == 0

    def _note_open(self, node: Any, empty: Any, mask: Any) -> None:
        """Fold the masked groups, all of the open unit, into its flags."""
        nodes = node[mask]
        if len(nodes):
            self._open_empty[nodes] = empty[mask]
            self._open_nodes.append(nodes)

    def _close_open_unit(self) -> Any:
        """The nodes the open unit leaves vacated.  Its flags need no
        clearing: a later unit writes a node's flag before reading it."""
        if not self._open_nodes:
            return _NO_NODES
        nodes = np.concatenate(self._open_nodes)
        self._open_nodes = []
        return nodes[self._open_empty[nodes]]

    def _settle(self, groups: Tuple[Any, Any, Any], last: int) -> None:
        """The departure rule for every unit a block closes: the open
        unit, whose earlier blocks live in the flags, and each unit the
        block opens before ``last``."""
        node, unit, empty = groups
        self._note_open(node, empty, unit == self.open_unit)
        vacated = self._close_open_unit()
        inner = empty & (unit != self.open_unit) & (unit != last)
        self._check_departures(
            np.concatenate([vacated, node[inner]]),
            np.concatenate([np.full(len(vacated), self.open_unit), unit[inner]]),
        )

    def _apply_moves(
        self, t: Any, s: Any, dd: Any, block: _Block, lo: int, hi: int
    ) -> None:
        """Commit rows ``[lo, hi)`` of the block: agent tables, guard
        counts and newly cleaned nodes, checking the region's growth and
        each clone's ground on the way."""
        if lo == hi:
            return
        base = self.moves_seen - lo  # global index of the block's row 0
        nodes, at, clones = block.fresh, block.fresh_rows, block.clones
        agent_last, node_last = block.agent_ends, block.node_ends
        if hi - lo < len(t):
            agent_last = _last_inside(agent_last, _in_rows(block.agent_rows, lo, hi))
            node_last = _last_inside(node_last, _in_rows(block.event_rows, lo, hi))
            part = _in_rows(at, lo, hi)
            nodes, at = nodes[part], at[part]
            clones = clones[_in_rows(clones, lo, hi)]
        rows = block.agent_rows[agent_last]
        self.pos[block.agents[agent_last]] = dd[rows]
        self.clock[block.agents[agent_last]] = t[rows]
        self.guard[block.nodes[node_last]] = block.guards[node_last]
        # newly cleaned nodes: first arrival per destination
        new = self.clean_order[nodes] == _INF
        nodes, at = nodes[new], at[new]
        if len(nodes):
            self.clean_order[nodes] = base + at
            self.clean_unit[nodes] = t[at]
            # adjacent extension: every new node needs a neighbour
            # cleaned strictly earlier (the reference contam_count[dst] < d
            # test) — in-block assignments above participate, so chains
            # of same-block extensions validate front to back.  `>` here
            # would be equivalent: first-clean indices are distinct per
            # node, so a neighbour never ties a new node's index.
            nb_min = np.full(len(nodes), _INF, dtype=np.int64)
            for p in range(self.d):
                nb_min = np.minimum(nb_min, self.clean_order[nodes ^ (1 << p)])
            if bool((nb_min >= self.clean_order[nodes]).any()):
                raise KernelFallback()
            bits = np.left_shift(np.uint64(1), (nodes & 63).astype(np.uint64))
            np.bitwise_or.at(self.clean_plane, nodes >> 6, bits)
            self.region_size += len(nodes)
        # a clone materializes only on ground clean before its row
        if bool((self.clean_order[s[clones]] >= base + clones).any()):
            raise KernelFallback()
        self.moves_seen += hi - lo

    def _check_departures(self, cv: Any, cu: Any) -> None:
        """The departure rule for nodes ``cv`` vacated at the end of units ``cu``.

        A vacated node recontaminates — an anomaly here — exactly when
        some neighbour's first-clean unit is later than the unit (the
        neighbour was still contaminated at the unit boundary).  Nodes
        first cleaned in a later unit compare later whether or not
        their rows are applied yet; unseen nodes are ``_INF``.
        """
        if not len(cv):
            return
        in_region = self.clean_unit[cv] <= cu
        nb_max = np.full(len(cv), -1, dtype=np.int64)
        for p in range(self.d):
            nb_max = np.maximum(nb_max, self.clean_unit[cv ^ (1 << p)])
        if bool((in_region & (nb_max > cu)).any()):
            raise KernelFallback()

    # -- verdict + fallback export -------------------------------------- #

    def contaminated_sample(self, limit: int = 8) -> List[int]:
        """The first ``limit`` still-contaminated nodes, ascending."""
        bits = unpack_plane(self.clean_plane, self.n)
        return [int(x) for x in np.nonzero(bits == 0)[0][:limit]]

    def pending_rows(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The rows handed back by the last decline, as lists."""
        assert self._pending is not None, "pending_rows() before a decline"
        return tuple(c.tolist() for c in self._pending)  # type: ignore[return-value]

    def export_replay_state(self) -> Dict[str, Any]:
        """Settled state in the reference ``_ReplayState``'s vocabulary."""
        not_clean = ~self.clean_plane
        spare = self.n & 63
        if spare:
            not_clean[-1] &= np.uint64((1 << spare) - 1)
        contam = np.zeros(self.n, dtype=np.int64)
        for p in range(self.d):
            contam += unpack_plane(plane_shift_dim(not_clean, p), self.n)
        in_region = bytearray(unpack_plane(self.clean_plane, self.n).tobytes())
        position = {
            int(agent): int(node)
            for agent, node in enumerate(self.pos.tolist())
            if node >= 0
        }
        clock = {agent: int(self.clock[agent]) for agent in position}
        return {
            "guard_count": self.guard.tolist(),
            "in_region": in_region,
            "contam_count": contam.tolist(),
            "region_size": int(self.region_size),
            "position": position,
            "clock": clock,
            "moves_seen": int(self.moves_seen),
            "unit_time": int(self.last_unit),
        }
