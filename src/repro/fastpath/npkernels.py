"""Bit-plane kernels: packed node planes and array-of-scenarios RNG.

These are the package's one fast path.  The per-move reference replays
stay beside them: :class:`~repro.fastpath.batchverify._ReplayState`
verifies cloning schedules, continues a block this module declines, and
is what the parity tests compare the verifier against; the scalar trial
loop of :mod:`repro.fastpath.batchsim` scores the ``inert`` and walker
policies and is the reference for the vectorized ``reachable`` path.

Bit-plane kernels
-----------------
A node set of the ``d``-cube is a packed ``uint64[ceil(n/64)]`` plane
(bit ``x`` of the plane = node ``x``).  The hypercube's structure makes
every neighbourhood operation an XOR-shift: flipping coordinate ``p`` is
an in-word block swap for ``p < 6`` (shift by ``2**p`` under the
alternating masks) and a whole-word permutation for ``p >= 6``.  On top
of that one primitive sit :func:`plane_spread` (union of all ``d``
neighbour shifts), :func:`plane_popcount` (``np.bitwise_count`` when the
installed numpy has it, a byte lookup table otherwise),
:func:`plane_translate` (the XOR automorphism ``x -> x ^ h`` — the
composition of the single-bit swaps for the set bits of ``h``) and
:func:`plane_connected` (frontier BFS entirely on packed words).

:class:`NPChunkVerifier` replays schedule chunks on these planes plus
flat ``int64`` node/agent tables, with *no per-move or per-unit Python
loop*.  Every row is checked once, in the block that brings it, with
sorts and segmented reductions: row-local structure, per-agent chains,
exact sequential guard occupancy and the adjacent-extension contiguity
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

Vectorized RNG
--------------
:class:`VectorMT19937` is CPython's ``random.Random`` run as a
structure-of-arrays: one Mersenne-Twister state row per scenario,
seeded, twisted and tempered with the reference constants, so
``getrandbits`` / ``randrange`` / ``randint`` columns across 10k trials
reproduce 10k individual ``random.Random(seed)`` streams draw-for-draw
(rejection sampling included).  This is what lets the Monte Carlo
engine score every trial of a campaign simultaneously while keeping the
documented per-trial draw order of :mod:`repro.fastpath.batchsim`.

Layering: imports only ``repro.errors`` and ``numpy`` (rule RPR220).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "KernelFallback",
    "NPChunkVerifier",
    "VectorMT19937",
    "check_backend",
    "mask_list_to_matrix",
    "matrix_to_mask_list",
    "plane_connected",
    "plane_popcount",
    "plane_shift_dim",
    "plane_spread",
    "plane_translate",
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


def plane_translate(plane: Any, xor: int, d: int) -> Any:
    """The XOR automorphism ``x -> x ^ xor`` applied to a packed plane."""
    out = plane
    for p in range(d):
        if (xor >> p) & 1:
            out = plane_shift_dim(out, p)
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


def mask_list_to_matrix(masks: Sequence[int], n: int) -> Any:
    """Pack a list of bigint node masks into a ``(len, words)`` plane matrix."""
    words = plane_words(n)
    nbytes = words * 8
    out = np.empty((len(masks), words), dtype=np.uint64)
    for i, mask in enumerate(masks):
        out[i] = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint64)
    return out


def matrix_to_mask_list(matrix: Any) -> List[int]:
    """Inverse of :func:`mask_list_to_matrix` (row-per-mask bigints)."""
    rows, words = matrix.shape
    blob = matrix.tobytes()
    stride = words * 8
    return [
        int.from_bytes(blob[i * stride : (i + 1) * stride], "little")
        for i in range(rows)
    ]


# --------------------------------------------------------------------- #
# vectorized Mersenne Twister (CPython random.Random, row per scenario)
# --------------------------------------------------------------------- #

_MT_N = 624
_MT_M = 397

#: Cached ``init_genrand(19650218)`` words as uint32 scalars
#: (seed-independent, so computed once per process).
_MT_SEED_BASE: Optional[List[Any]] = None


class VectorMT19937:
    """CPython's ``random.Random`` as a structure-of-arrays.

    One MT19937 state row per seed; :meth:`getrandbits32` /
    :meth:`getrandbits64` / :meth:`randbelow` / :meth:`randint_matrix`
    return one column of draws across all rows, consuming each row's
    stream exactly as ``random.Random(seed)`` would — including the
    per-row rejection loops of ``_randbelow_with_getrandbits``, which
    advance different rows by different amounts (tracked by per-row
    cursors).  Seeding replicates ``random_seed``: the key is the
    little-endian 32-bit word expansion of ``abs(seed)`` (at least one
    word), fed to ``init_by_array`` with the reference constants.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        rows = len(seeds)
        self.rows = rows
        # word-major (624, rows) layout: the seeding recurrence and the
        # twist walk word index sequentially, so each step touches one
        # contiguous row instead of a strided column.  The tempered
        # buffer grows on demand (`_grow_buf`): a short campaign reads
        # ~20 words per row, and a full (624, rows) buffer would be
        # 25 MB at 10k rows
        self._state: Any = None
        self._buf = np.empty((0, rows), dtype=np.uint32)
        self._cursor = np.full(rows, _MT_N, dtype=np.int64)
        self._rowidx = np.arange(rows)
        # lockstep bookkeeping: while every row is in the same block
        # phase the twist runs lazily and in place (`_fill_to`), only as
        # far as the deepest cursor — a short campaign touches ~20 of
        # the 624 words, so the other ~600 are never computed
        self._synced = True
        self._filled = 0
        # fast path: campaign sub-seeds are `getrandbits(64)` outputs,
        # whose one- or two-word little-endian keys extract vectorially
        # (`np.array(..., uint64)` raises on negatives / >64-bit values)
        np_seeds = None
        if rows:
            try:
                np_seeds = np.array(seeds, dtype=np.uint64)
            except (OverflowError, TypeError):
                np_seeds = None
        if np_seeds is not None:
            lo = (np_seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
            hi = (np_seeds >> np.uint64(32)).astype(np.uint32)
            short = np.nonzero(hi == 0)[0]
            wide = np.nonzero(hi)[0]
            if not len(short):
                # homogeneous key widths adopt the seeded matrix as-is
                # instead of scattering 25 MB through a fancy index
                self._state = self._init_by_array(np.stack([lo, hi]))
            elif not len(wide):
                self._state = self._init_by_array(lo[None, :])
            else:
                self._state = np.empty((_MT_N, rows), dtype=np.uint32)
                self._state[:, short] = self._init_by_array(lo[short][None, :])
                self._state[:, wide] = self._init_by_array(
                    np.stack([lo[wide], hi[wide]])
                )
            return
        # generic path: group scenarios by key length so init_by_array
        # vectorizes per group (arbitrary-precision / negative seeds)
        self._state = np.empty((_MT_N, rows), dtype=np.uint32)
        by_len: Dict[int, List[int]] = {}
        keys: List[List[int]] = []
        for row, seed in enumerate(seeds):
            a = -seed if seed < 0 else seed
            key = [
                (a >> (32 * i)) & 0xFFFFFFFF
                for i in range(max(1, (a.bit_length() + 31) // 32))
            ]
            keys.append(key)
            by_len.setdefault(len(key), []).append(row)
        for klen, group in by_len.items():
            key_matrix = np.array([keys[r] for r in group], dtype=np.uint32).T
            self._state[:, group] = self._init_by_array(key_matrix)

    def _init_by_array(self, key: Any) -> Any:
        """Reference ``init_by_array`` across a ``(klen, rows)`` key matrix."""
        klen = key.shape[0]
        rows = key.shape[1]
        # init_genrand(19650218) is seed-independent: computed once per
        # process (scalar Python ints: uint32 wraparound without
        # overflow warnings) and kept as uint32 scalars — word i's
        # pre-update value on the first wrap is base[i] for every row,
        # so no (624, rows) broadcast copy is ever materialized
        global _MT_SEED_BASE
        if _MT_SEED_BASE is None:
            base_words = [19650218]
            for i in range(1, _MT_N):
                prev = base_words[-1]
                base_words.append(
                    (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
                )
            _MT_SEED_BASE = [np.uint32(w) for w in base_words]
        base = _MT_SEED_BASE
        mt = np.empty((_MT_N, rows), dtype=np.uint32)
        mt[0].fill(int(base[0]))
        # the recurrences run ~2N sequential steps over `rows`-wide
        # words: keep them allocation-free (one scratch row, `out=`
        # everywhere), fold the per-step `key[j] + j` into a precomputed
        # matrix, and hoist the row views and scalar constants out of
        # the loop — per-step Python overhead is the dominant cost
        tmp = np.empty(rows, dtype=np.uint32)
        key_plus = key + np.arange(klen, dtype=np.uint32)[:, None]
        kp = [key_plus[j] for j in range(klen)]
        row_v = [mt[i] for i in range(_MT_N)]
        i_u32 = [np.uint32(i) for i in range(_MT_N)]
        mult1 = np.uint32(1664525)
        mult2 = np.uint32(1566083941)
        thirty = np.uint32(30)
        steps = max(_MT_N, klen)
        scalar_steps = min(steps, _MT_N - 1)
        i, j = 1, 0
        # words 1..623 are untouched before their first update, so the
        # `^ mt[i]` term is the scalar base word, not an array read
        for _ in range(scalar_steps):
            prev = row_v[i - 1]
            np.right_shift(prev, thirty, out=tmp)
            np.bitwise_xor(prev, tmp, out=tmp)
            np.multiply(tmp, mult1, out=tmp)
            np.bitwise_xor(tmp, base[i], out=tmp)
            np.add(tmp, kp[j], out=row_v[i])
            i += 1
            j += 1
            if j >= klen:
                j = 0
        for _ in range(steps - scalar_steps):
            if i >= _MT_N:
                np.copyto(row_v[0], row_v[_MT_N - 1])
                i = 1
            prev = row_v[i - 1]
            cur = row_v[i]
            np.right_shift(prev, thirty, out=tmp)
            np.bitwise_xor(prev, tmp, out=tmp)
            np.multiply(tmp, mult1, out=tmp)
            np.bitwise_xor(cur, tmp, out=tmp)
            np.add(tmp, kp[j], out=cur)
            i += 1
            j += 1
            if j >= klen:
                j = 0
        if i >= _MT_N:
            np.copyto(row_v[0], row_v[_MT_N - 1])
            i = 1
        for _ in range(_MT_N - 1):
            prev = row_v[i - 1]
            cur = row_v[i]
            np.right_shift(prev, thirty, out=tmp)
            np.bitwise_xor(prev, tmp, out=tmp)
            np.multiply(tmp, mult2, out=tmp)
            np.bitwise_xor(cur, tmp, out=tmp)
            np.subtract(tmp, i_u32[i], out=cur)
            i += 1
            if i >= _MT_N:
                np.copyto(row_v[0], row_v[_MT_N - 1])
                i = 1
        mt[0] = np.uint32(0x80000000)
        return mt

    def _fill_to(self, upto: int) -> None:
        """Advance the lockstep in-place twist through word ``upto``.

        Valid only while every row shares the same block phase
        (``_synced``).  Words are produced in index order, which makes
        the reference recurrence safe fully in place: ``y_k`` reads the
        still-old ``s[k]``/``s[k+1]``, words below ``N-M`` read the
        still-old tail ``s[k+M]``, later words read the already-new
        ``s[k-(N-M)]`` in sub-chunks of at most ``N-M``, and word 623
        reads the new ``s[0]``/``s[M-1]`` plus its own old value.
        """
        a = self._filled
        b = min(upto, _MT_N)
        if b <= a:
            return
        s = self._state
        upper, lower = np.uint32(0x80000000), np.uint32(0x7FFFFFFF)
        bb = min(b, _MT_N - 1)
        if bb > a:
            y = (s[a:bb] & upper) | (s[a + 1 : bb + 1] & lower)
            v = (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * np.uint32(0x9908B0DF))
            lo, hi = a, min(bb, _MT_N - _MT_M)
            if hi > lo:
                s[lo:hi] = s[lo + _MT_M : hi + _MT_M] ^ v[lo - a : hi - a]
            lo = max(a, _MT_N - _MT_M)
            while lo < bb:
                hi = min(bb, lo + (_MT_N - _MT_M))
                s[lo:hi] = (
                    s[lo - (_MT_N - _MT_M) : hi - (_MT_N - _MT_M)]
                    ^ v[lo - a : hi - a]
                )
                lo = hi
        if b == _MT_N:
            y_last = (s[_MT_N - 1] & upper) | (s[0] & lower)
            s[_MT_N - 1] = (
                s[_MT_M - 1]
                ^ (y_last >> np.uint32(1))
                ^ ((y_last & np.uint32(1)) * np.uint32(0x9908B0DF))
            )
        t = s[a:b].copy()
        t ^= t >> np.uint32(11)
        t ^= (t << np.uint32(7)) & np.uint32(0x9D2C5680)
        t ^= (t << np.uint32(15)) & np.uint32(0xEFC60000)
        t ^= t >> np.uint32(18)
        self._grow_buf(b)
        self._buf[a:b] = t
        self._filled = b

    def _grow_buf(self, words: int) -> None:
        """Make the tempered buffer hold at least ``words`` words per row
        (doubling, capped at one block; filled words are kept)."""
        have = self._buf.shape[0]
        if words <= have:
            return
        grown = np.empty((min(max(words, 2 * have), _MT_N), self.rows), dtype=np.uint32)
        grown[:have] = self._buf
        self._buf = grown

    def _twist_rows(self, rows: Any) -> None:
        """Regenerate + temper the block for the given scenario columns.

        The per-row slow path once streams have diverged across a block
        boundary; the lockstep fast path is :meth:`_fill_to`.
        """
        s = self._state[:, rows]
        old = s.copy()
        upper, lower = np.uint32(0x80000000), np.uint32(0x7FFFFFFF)
        nxt = np.concatenate([old[1:], old[:1]], axis=0)
        y = (old & upper) | (nxt & lower)
        v = (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * np.uint32(0x9908B0DF))
        # reference order: mt[k] = mt[k+M] ^ tw(...) reads already-updated
        # words once k+M wraps, so the tail fills in M-sized stages
        s[: _MT_N - _MT_M] = old[_MT_M:] ^ v[: _MT_N - _MT_M]
        s[_MT_N - _MT_M : 2 * (_MT_N - _MT_M)] = (
            s[: _MT_N - _MT_M] ^ v[_MT_N - _MT_M : 2 * (_MT_N - _MT_M)]
        )
        s[2 * (_MT_N - _MT_M) : _MT_N - 1] = (
            s[_MT_N - _MT_M : _MT_N - 1 - (_MT_N - _MT_M)]
            ^ v[2 * (_MT_N - _MT_M) : _MT_N - 1]
        )
        y_last = (old[_MT_N - 1] & upper) | (s[0] & lower)
        s[_MT_N - 1] = (
            s[_MT_M - 1]
            ^ (y_last >> np.uint32(1))
            ^ ((y_last & np.uint32(1)) * np.uint32(0x9908B0DF))
        )
        t = s.copy()
        t ^= t >> np.uint32(11)
        t ^= (t << np.uint32(7)) & np.uint32(0x9D2C5680)
        t ^= (t << np.uint32(15)) & np.uint32(0xEFC60000)
        t ^= t >> np.uint32(18)
        self._state[:, rows] = s
        self._grow_buf(_MT_N)
        self._buf[:, rows] = t
        self._cursor[rows] = 0

    def _next_word(self, active: Optional[Any] = None) -> Any:
        """The next tempered word of every (active) scenario's stream.

        A scenario whose buffer is exhausted is re-twisted whether or not
        it is active this draw — an exhausted buffer has no unread words,
        so twisting early is stream-neutral.  While every row stays in
        the same block phase the twist is materialized lazily in place
        (:meth:`_fill_to`), only as deep as the furthest cursor; rows
        that cross a block boundary out of lockstep fall back to per-row
        twists for the rest of the run.
        """
        cur = self._cursor
        if self._synced:
            stale = cur >= _MT_N
            if bool(stale.all()):
                # lockstep roll: a row only reaches 624 by reading word
                # 623, so the block is already fully filled (or, at
                # seeding time, untouched) — restart the lazy fill
                if self._filled:
                    self._fill_to(_MT_N)
                    self._filled = 0
                cur[:] = 0
            elif bool(stale.any()):
                # rows crossed the boundary at different draws: the
                # lockstep fill no longer describes every row — pin the
                # full state, then twist per row from here on
                self._fill_to(_MT_N)
                self._synced = False
                self._twist_rows(np.nonzero(stale)[0])
            if self._synced:
                scope = cur if active is None else cur[active]
                needed = int(scope.max()) + 1
                if needed > self._filled:
                    grown = min(2 * max(self._filled, 32), _MT_N)
                    self._fill_to(max(needed, grown))
        else:
            stale = cur >= _MT_N
            if bool(stale.any()):
                self._twist_rows(np.nonzero(stale)[0])
        # rows left out of a partial draw may sit past the filled words;
        # clamp them into the buffer (their words are discarded)
        gather = np.minimum(cur, self._buf.shape[0] - 1)
        words = self._buf[gather, self._rowidx]
        if active is None:
            cur += 1
        else:
            cur[active] += 1
        return words

    def getrandbits32(self) -> Any:
        """One ``getrandbits(32)`` column (uint32 per row)."""
        return self._next_word()

    def getrandbits64(self) -> Any:
        """One ``getrandbits(64)`` column (low word drawn first)."""
        lo = self._next_word().astype(np.uint64)
        hi = self._next_word().astype(np.uint64)
        return lo | (hi << np.uint64(32))

    def _roll_if_lockstep(self) -> None:
        """Start the next block when every row exhausted the current one."""
        if self._synced and bool((self._cursor >= _MT_N).all()):
            if self._filled:
                self._fill_to(_MT_N)
                self._filled = 0
            self._cursor[:] = 0

    def randbelow_matrix(self, width: int, count: int) -> Any:
        """``count`` sequential ``_randbelow_with_getrandbits(width)``
        draws per row, as an ``(rows, count)`` int64 matrix.

        ``k = width.bit_length()`` top bits per draw, per-row rejection
        while the candidate is ``>= width`` — rejected rows consume
        extra words exactly like their scalar twins.  In lockstep the
        whole matrix resolves by block rejection sampling: a window of
        words per row, acceptance ranks by cumulative sum, one scatter —
        a handful of array ops instead of a word-at-a-time loop whose
        late rounds wait on a shrinking tail of unlucky rows.
        """
        if width <= 0:
            raise ScheduleError("randbelow needs a positive width")
        out = np.empty((self.rows, count), dtype=np.int64)
        if count == 0 or self.rows == 0:
            return out
        kshift = np.uint32(32 - width.bit_length())
        done = np.zeros(self.rows, dtype=np.int64)
        cur = self._cursor
        while self._synced:
            pending = done < count
            if not bool(pending.any()):
                return out
            self._roll_if_lockstep()
            maxcur = int(cur.max())
            remaining = count - done
            window = min(2 * int(remaining.max()) + 8, _MT_N - maxcur)
            if window <= 0:
                break  # rows straddle the block edge: word-at-a-time
            self._fill_to(maxcur + window)
            if int(cur.min()) == maxcur:
                words = self._buf[maxcur : maxcur + window]
            else:
                words = self._buf[
                    cur[None, :] + np.arange(window)[:, None], self._rowidx
                ]
            cand = (words >> kshift).astype(np.int64)
            acc = cand < width
            rank = np.cumsum(acc, axis=0)
            take = np.minimum(rank[-1], remaining)
            keep = acc & (rank <= take[None, :])
            rpos, wpos = np.nonzero(keep.T)
            out[rpos, done[rpos] + rank[wpos, rpos] - 1] = cand[wpos, rpos]
            # a satisfied row stops at its last acceptance; a row still
            # short (every candidate rejected the whole window) scanned
            # all of it; untouched rows scanned nothing
            lastpos = np.argmax(rank >= np.maximum(take, 1)[None, :], axis=0)
            consumed = np.where(take == remaining, lastpos + 1, window)
            np.add(cur, np.where(pending, consumed, 0), out=cur)
            done += take
        # diverged across a block boundary (or mid-roll): finish with
        # the per-word path, which twists stragglers row by row
        while True:
            pending = done < count
            if not bool(pending.any()):
                return out
            words = self._next_word(pending)
            cand = (words >> kshift).astype(np.int64)
            ok = pending & (cand < width)
            out[np.nonzero(ok)[0], done[ok]] = cand[ok]
            done[ok] += 1

    def randbelow(self, width: int) -> Any:
        """One ``_randbelow_with_getrandbits(width)`` column (int64 per row)."""
        return self.randbelow_matrix(width, 1)[:, 0]

    def randint_matrix(self, low: int, high: int, count: int) -> Any:
        """``count`` sequential ``randint(low, high)`` draws per row,
        as an ``(rows, count)`` int64 matrix."""
        return low + self.randbelow_matrix(high - low + 1, count)


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


class NPChunkVerifier:
    """Vectorized replay state for one (non-cloning) schedule.

    The per-node tables of the reference ``_ReplayState`` become flat
    numpy arrays (``guard`` counts, first-clean move index and time
    unit, the packed clean plane); agents live in dense position/clock
    arrays.  :meth:`feed` checks and applies every row of a block once:

    * structure checks (row-local + per-agent chains) by stable sort;
    * exact sequential guard occupancy as a per-node running minimum;
    * contiguity as the adjacent-extension invariant — every newly
      cleaned node needs a neighbour with a smaller first-clean index.

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

    def __init__(self, dimension: int, homebase: int, team: int) -> None:
        self.d = dimension
        self.n = 1 << dimension
        self.words = plane_words(self.n)
        self.home = homebase
        self.team = team
        n = self.n
        self.guard = np.zeros(n, dtype=np.int64)
        self.guard[homebase] = team
        self.clean_order = np.full(n, _INF, dtype=np.int64)
        self.clean_order[homebase] = -1
        self.clean_unit = np.full(n, _INF, dtype=np.int64)
        self.clean_unit[homebase] = 0
        self.clean_plane = pack_nodes(np.array([homebase]), n)
        self.region_size = 1
        cap = max(team, 1)
        self.pos = np.full(cap, -1, dtype=np.int64)
        self.clock = np.zeros(cap, dtype=np.int64)
        self.moves_seen = 0
        #: the last settled time unit, and the open one (0 = none yet)
        self.last_unit = 0
        self.open_unit = 0
        # per node, for the open unit: some agent departed, and the
        # guard count after the node's latest event is zero
        self._open_dep = np.zeros(n, dtype=bool)
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
            self._check_chains(t, a, s, dd)
            groups = self._unit_groups(self._check_occupancy(t, s, dd))
            if last != self.open_unit:
                # the block closes the open unit and every unit it opens
                # before its last: apply their rows, settle them, and
                # move the boundary to the start of unit `last`
                cut = int(np.searchsorted(t, last, side="left"))
                self._apply_moves(t[:cut], a[:cut], s[:cut], dd[:cut])
                self._settle(groups, last)
                self.last_unit = int(t[cut - 1]) if cut else self.open_unit
                self.open_unit = last
                self._boundary = self._save()
                cols = tuple(c[cut:] for c in cols)
                self._unsettled = [cols]
            self._apply_moves(*cols)
            node, unit, dep, empty = groups
            self._note_open(node, dep, empty, unit == last)
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

    def _check_chains(self, t: Any, a: Any, s: Any, dd: Any) -> None:
        """Per-agent structure: homebase starts, chained positions, one
        move per unit per agent (strictly increasing per-agent times)."""
        order = np.argsort(a, kind="stable")
        sa, st, ss, sd = a[order], t[order], s[order], dd[order]
        first = np.empty(len(sa), dtype=bool)
        first[0] = True
        first[1:] = sa[1:] != sa[:-1]
        if len(sa) > 1:
            chained = (~first[1:]) & ((ss[1:] != sd[:-1]) | (st[1:] <= st[:-1]))
            if bool(chained.any()):
                raise KernelFallback()
        prev_pos = self.pos[sa[first]]
        prev_clock = self.clock[sa[first]]
        bad_first = np.where(
            prev_pos < 0,
            ss[first] != self.home,
            (ss[first] != prev_pos) | (st[first] <= prev_clock),
        )
        if bool(bad_first.any()):
            raise KernelFallback()

    def _check_occupancy(self, t: Any, s: Any, dd: Any) -> Tuple[Any, ...]:
        """Exact sequential guard occupancy as a segmented running min.

        Each move emits a ``-1`` (src) and ``+1`` (dst) event keyed by
        its column index; per node, the running count from the current
        guard must never dip below zero — precisely the reference
        replay's ``no agent on src to move`` check, in column order.
        Returns the sorted event arrays for the departure rule.
        """
        m = len(t)
        idx = np.arange(m, dtype=np.int64)
        ev_node = np.concatenate([s, dd])
        ev_delta = np.concatenate(
            [np.full(m, -1, dtype=np.int64), np.ones(m, dtype=np.int64)]
        )
        ev_key = np.concatenate([idx, idx])
        ev_unit = np.concatenate([t, t])
        order = np.lexsort((ev_key, ev_node))
        en, edel, eu = ev_node[order], ev_delta[order], ev_unit[order]
        seg_start = np.empty(2 * m, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = en[1:] != en[:-1]
        seg_idx = np.nonzero(seg_start)[0]
        cs = np.cumsum(edel)
        seg_base = cs[seg_idx] - edel[seg_idx]  # cumsum just before each segment
        seg_id = np.cumsum(seg_start) - 1
        running = self.guard[en] + cs - seg_base[seg_id]
        if bool((np.minimum.reduceat(running, seg_idx) < 0).any()):
            raise KernelFallback()
        return en, edel, eu, running, seg_start

    @staticmethod
    def _unit_groups(ev: Tuple[Any, ...]) -> Tuple[Any, Any, Any, Any]:
        """Per (node, unit) group of the sorted events: the node, the
        unit, whether an agent departed, and whether the node is
        unguarded after the group's last event."""
        en, edel, eu, running, node_start = ev
        unit_change = np.empty(len(en), dtype=bool)
        unit_change[0] = True
        unit_change[1:] = eu[1:] != eu[:-1]
        g_idx = np.nonzero(node_start | unit_change)[0]
        g_end = np.append(g_idx[1:], len(en)) - 1
        has_dep = np.add.reduceat((edel < 0).astype(np.int64), g_idx) > 0
        return en[g_idx], eu[g_idx], has_dep, running[g_end] == 0

    def _note_open(self, node: Any, dep: Any, empty: Any, mask: Any) -> None:
        """Fold the masked groups, all of the open unit, into its flags."""
        nodes = node[mask]
        if len(nodes):
            self._open_dep[nodes] |= dep[mask]
            self._open_empty[nodes] = empty[mask]
            self._open_nodes.append(nodes)

    def _close_open_unit(self) -> Any:
        """The nodes the open unit leaves vacated; clears its flags."""
        if not self._open_nodes:
            return _NO_NODES
        nodes = np.concatenate(self._open_nodes)
        self._open_nodes = []
        vacated = nodes[self._open_dep[nodes] & self._open_empty[nodes]]
        self._open_dep[nodes] = False
        return vacated

    def _settle(self, groups: Tuple[Any, Any, Any, Any], last: int) -> None:
        """The departure rule for every unit a block closes: the open
        unit, whose earlier blocks live in the flags, and each unit the
        block opens before ``last``."""
        node, unit, dep, empty = groups
        self._note_open(node, dep, empty, unit == self.open_unit)
        vacated = self._close_open_unit()
        inner = dep & empty & (unit != self.open_unit) & (unit != last)
        self._check_departures(
            np.concatenate([vacated, node[inner]]),
            np.concatenate([np.full(len(vacated), self.open_unit), unit[inner]]),
        )

    def _apply_moves(self, t: Any, a: Any, s: Any, dd: Any) -> None:
        """Commit guard deltas, agent tables and newly cleaned nodes."""
        if not len(t):
            return
        # agent tables: last row of each agent's segment wins
        order = np.argsort(a, kind="stable")
        sa, st, sd = a[order], t[order], dd[order]
        last = np.empty(len(sa), dtype=bool)
        last[-1] = True
        last[:-1] = sa[1:] != sa[:-1]
        self.pos[sa[last]] = sd[last]
        self.clock[sa[last]] = st[last]
        # guard counts (scattered in O(len(t)): no per-block O(n) temporaries)
        np.add.at(self.guard, dd, 1)
        np.subtract.at(self.guard, s, 1)
        # newly cleaned nodes: first arrival per destination
        uniq, first_idx = np.unique(dd, return_index=True)
        new = self.clean_order[uniq] == _INF
        nodes, at = uniq[new], first_idx[new]
        if len(nodes):
            self.clean_order[nodes] = self.moves_seen + at
            self.clean_unit[nodes] = t[at]
            # adjacent extension: every new node needs a neighbour
            # cleaned strictly earlier (the reference contam_count[dst] < d
            # test) — in-block assignments above participate, so chains
            # of same-block extensions validate front to back
            nb_min = np.full(len(nodes), _INF, dtype=np.int64)
            for p in range(self.d):
                nb_min = np.minimum(nb_min, self.clean_order[nodes ^ (1 << p)])
            if bool((nb_min >= self.clean_order[nodes]).any()):
                raise KernelFallback()
            bits = np.left_shift(np.uint64(1), (nodes & 63).astype(np.uint64))
            np.bitwise_or.at(self.clean_plane, nodes >> 6, bits)
            self.region_size += len(nodes)
        self.moves_seen += len(t)

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
