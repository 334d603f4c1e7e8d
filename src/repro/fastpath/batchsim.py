"""Scenario-batch Monte Carlo simulation of whole schedules.

One whole schedule (a single final
:class:`~repro.core.chunkstream.ScheduleChunk`) answers one question
("does this sweep work?"); a Monte Carlo campaign asks thousands
of small variations of it — intruder placement × intruder policy × delay
adversary × homebase translation.  Looping ``Engine.run`` pays the full
discrete-event machinery per trial even though every trial replays the
*same* move columns.  This module replays the columns **once per
shard** into a :class:`ScenarioTimeline` — per-time-unit guard/clean
bitmasks plus cumulative move counts — and then scores each scenario
against that shared timeline with a handful of big-integer operations,
so a 10k-trial sweep is one columnar replay plus 10k cheap scoring
passes instead of 10k engine runs.

Homebase-relative frames
------------------------
The hypercube is vertex-transitive: XOR with ``rel`` is an automorphism
that maps the sweep launched from homebase ``h`` onto the sweep launched
from ``h ^ rel``, node for node and mask for mask.  A shard therefore
replays the schedule once, at the schedule's own homebase, and
scores a trial launched from ``home`` in relative coordinates,
``rel = home ^ timeline.home``: an inert fugitive seeded at ``s`` is the
timeline's fugitive seeded at ``s ^ rel`` (memoized per relative seed),
and walkers live at ``pos ^ rel`` on the timeline's snapshots.  The one
thing XOR does not preserve is order, so a walker's tie-breaking draw —
``rng.choice`` over the *sorted* candidates — sorts them in the
trial's own frame before it draws.

Intruder policies
-----------------
``reachable``
    The paper's omniscient arbitrarily-fast intruder
    (:class:`~repro.sim.intruder.ReachableSetIntruder` semantics): its
    possible-location set is the contaminated region, so capture time is
    the unit at which the region empties — independent of the seed.
``inert``
    The *inert fugitive* of arXiv:0802.3512 ("recontamination does
    help"): it hides at its seed node and moves only when a searcher
    steps onto its node, at which instant it flees arbitrarily far
    through unguarded nodes and hides at a reachable contaminated node
    (or is captured if none exists).  Tracked as a per-seed
    possible-location set at time-unit granularity — this is the policy
    that makes capture accounting *seed-dependent* (a homebase-adjacent
    seed is disturbed in the first unit and survives until the sweep's
    last pocket is cleaned, long after its own node was cleaned).
``walker`` / ``walkers``
    Exact batch replicas of :class:`~repro.sim.intruder.WalkerIntruder`
    and :class:`~repro.sim.intruder.MultiWalkerIntruder`: the same
    reachable-region BFS, the same guard-distance greedy target choice,
    the same RNG draw discipline (``rng.choice(sorted(candidates))`` per
    observation, sub-walker seeds via ``getrandbits(64)``), applied at
    each move completion in the **engine's** replay order (see
    :func:`replay_order`), so per-scenario capture times are identical
    to ``Engine.run`` with the same ``intruder_seed``.

Delay models
------------
Scenario delays are per-time-unit integer *stretches* (unit ``u`` takes
``stretch[u] >= 1`` wall ticks): ``unit`` (all ones), ``random``
(uniform integers drawn per trial and unit, see below) and
``adversarial`` (every ``period``-th unit stretched by ``factor`` — the
slowest-link adversary).  Stretches relabel the clock without reordering
moves, so capture *units* are delay-invariant and capture *wall times*
are the prefix sums — exactly the paper's ideal-time/asynchronous-time
split.

Determinism
-----------
A trial's draws are a pure function of ``(rng_seed, trial, slot)``: a
counter-based generator in the style of Random123 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), with no state
to seed, replay or skip.  With ``mix`` the SplitMix64 finalizer, ``γ``
its odd increment ``0x9E3779B97F4A7C15`` and all arithmetic mod 2**64,
word ``j`` of trial ``t`` is ``mix(key_t + (j + 1)·γ)``, where
``key_t = mix(fold(rng_seed) ^ mix(t))``.  ``fold`` takes a seed of any
sign and width limb by limb: starting from ``acc = 1`` for a negative
seed and ``0`` otherwise, each 64-bit limb of ``|rng_seed|``, least
significant first, sets ``acc = mix((acc + γ) ^ limb)``.  Each quantity
owns fixed slots, so no other draw's value can shift it:

* slot 0 — the homebase ``w >> (64 - d)`` (exact, as ``n = 2**d``);
  unused when the homebase does not rotate;
* slot 1 — the intruder seed, a raw word: walkers move with
  ``random.Random(intruder_seed)``, as the engine's intruder does with
  that ``intruder_seed`` (pack starts included, :func:`_draw_others`);
* slots ``2 .. 2 + k - 1`` — the ``inert`` policy's ``k`` seeds, by
  Floyd's algorithm: one draw ``w % (j + 1)`` for each ``j`` in
  ``range(n - 1 - k, n - 1)``, stepped over the homebase (``k = 0`` for
  the other policies);
* slot ``2 + k + u`` — the ``random`` stretch of unit ``u``,
  ``delay_low + w % r`` with ``r = delay_high - delay_low + 1`` (bias
  below ``r / 2**64``).

A shard computes the words of its own trials only, so sharded and serial
campaigns produce identical scenarios trial for trial.  A shard's
timeline and seed memos live only as long as its :func:`run_batch` call,
so a shard's payload, counters included, is a pure function of
``(spec, start, count)``.  Every spec payload carries the tag
:data:`RNG_CONTRACT`, and a payload with another tag or none fails to
load, so shards drawn under different contracts never merge.

Layering: like the rest of ``repro.fastpath`` this module imports only
``core``/``topology``/``errors`` and numpy (lint rule RPR220); the engine-twin
semantics are cross-checked by randomized batch ≡ engine tests instead of
shared code.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chunkstream import ScheduleChunk, concat_chunks
from repro.errors import ScheduleError, SimulationError
from repro.fastpath.batchverify import batch_verify
from repro.fastpath.npkernels import check_backend
from repro.topology.hypercube import Hypercube

__all__ = [
    "BatchResult",
    "BatchScenarioSpec",
    "BatchStats",
    "DELAY_KINDS",
    "INTRUDER_POLICIES",
    "RNG_CONTRACT",
    "ScenarioTimeline",
    "compile_for_spec",
    "replay_order",
    "run_batch",
]

#: Intruder policies a scenario may score against (module docstring).
INTRUDER_POLICIES = ("reachable", "inert", "walker", "walkers")

#: Per-unit stretch families for the delay adversary.
DELAY_KINDS = ("unit", "random", "adversarial")

#: Tag of the trial-draw contract (module docstring, "Determinism"),
#: written into every spec payload and required when one is read back.
RNG_CONTRACT = "splitmix64-counter/1"


# --------------------------------------------------------------------- #
# scenario specification
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BatchScenarioSpec:
    """One Monte Carlo campaign: a strategy plus a scenario distribution.

    Parameters
    ----------
    dimension, strategy:
        Which sweep schedule to score scenarios against.
    trials:
        Number of scenarios.
    intruder:
        Scoring policy (:data:`INTRUDER_POLICIES`).
    seeds_per_trial:
        Infection seeds sampled per trial (``inert`` policy only).
    intruder_count:
        Pack size for the ``walkers`` policy.
    delay, delay_low, delay_high, delay_factor, delay_period:
        The per-unit stretch family (module docstring).
    rotate_homebase:
        Sample a uniform homebase per trial (XOR automorphism) instead
        of launching every sweep from node 0.
    rng_seed:
        Campaign seed, any integer; the whole campaign is a pure
        function of the spec (module docstring, "Determinism").
    """

    dimension: int
    strategy: str = "visibility"
    trials: int = 1000
    intruder: str = "inert"
    seeds_per_trial: int = 1
    intruder_count: int = 2
    delay: str = "unit"
    delay_low: int = 1
    delay_high: int = 3
    delay_factor: int = 4
    delay_period: int = 4
    rotate_homebase: bool = False
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ScheduleError("batch spec needs dimension >= 1")
        if self.trials < 0:
            raise ScheduleError("batch spec needs trials >= 0")
        if self.intruder not in INTRUDER_POLICIES:
            raise ScheduleError(
                f"unknown intruder policy {self.intruder!r} (try one of {INTRUDER_POLICIES})"
            )
        if self.delay not in DELAY_KINDS:
            raise ScheduleError(
                f"unknown delay model {self.delay!r} (try one of {DELAY_KINDS})"
            )
        if self.seeds_per_trial < 1:
            raise ScheduleError("need at least one infection seed per trial")
        if self.intruder_count < 1:
            raise ScheduleError("need at least one walker")
        if not 1 <= self.delay_low <= self.delay_high:
            raise ScheduleError("random delay needs 1 <= delay_low <= delay_high")
        if self.delay_factor < 1 or self.delay_period < 1:
            raise ScheduleError("adversarial delay needs factor >= 1 and period >= 1")

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able form (the ``batch_cell`` task payload), tagged with
        :data:`RNG_CONTRACT`."""
        return {
            "dimension": self.dimension,
            "strategy": self.strategy,
            "trials": self.trials,
            "intruder": self.intruder,
            "seeds_per_trial": self.seeds_per_trial,
            "intruder_count": self.intruder_count,
            "delay": self.delay,
            "delay_low": self.delay_low,
            "delay_high": self.delay_high,
            "delay_factor": self.delay_factor,
            "delay_period": self.delay_period,
            "rotate_homebase": self.rotate_homebase,
            "rng_seed": self.rng_seed,
            "rng": RNG_CONTRACT,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BatchScenarioSpec":
        """Inverse of :meth:`to_payload` (unknown keys rejected).

        A payload written under another draw contract, or under none,
        raises instead of loading: its trials are not this contract's.
        """
        fields = dict(payload)
        tag = fields.pop("rng", None)
        if tag != RNG_CONTRACT:
            raise ScheduleError(
                f"batch spec drawn under rng contract {tag!r}, not {RNG_CONTRACT!r}"
            )
        extra = set(fields) - set(cls.__dataclass_fields__)
        if extra:
            raise ScheduleError(f"unknown batch spec fields: {sorted(extra)}")
        return cls(**fields)


#: chunk size of :func:`compile_for_spec`'s stream.  A columnar producer
#: block is at most this many rows (``block_rows_for``), so the compile's
#: numpy temporaries stay a quarter of those of the default chunk size's
#: 16,384-row blocks.  On montecarlo-mix (full preset, seed 2005, 2-CPU
#: container) 1,024, 4,096 and 65,536 gave the same wall time and a peak
#: RSS within its run-to-run spread (73.5-75.1 MiB, against 73.8 MiB
#: for a per-``Move`` compile), so the small blocks cost nothing.
COMPILE_CHUNK_MOVES = 4096


def compile_for_spec(
    spec: BatchScenarioSpec, topology: Optional[Hypercube] = None
) -> ScheduleChunk:
    """The spec's base schedule (homebase 0) as one whole chunk,
    assembled from the chunk stream of
    :meth:`~repro.core.strategy.Strategy.run_chunks` — served by the
    process-wide cache when one is installed, traced as a
    ``strategy.run_chunks`` span when a tracer is active."""
    from repro.core.strategy import get_strategy  # lazy: strategy registry
    # imports the generators, which fastpath never needs at import time

    return concat_chunks(
        get_strategy(spec.strategy).run_chunks(spec.dimension, COMPILE_CHUNK_MOVES)
    )


# --------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------- #


class BatchStats:
    """Mutable campaign counters, optionally mirrored to a
    :class:`~repro.obs.metrics.MetricsRegistry` (``fastpath.batchsim.*``
    counters — same idiom as :class:`~repro.fastpath.cache.CacheStats`,
    so fastpath never imports ``repro.obs``)."""

    FIELDS = (
        "trials",
        "captures",
        "escapes",
        "timelines_built",
        "timelines_reused",
        "inert_seed_evals",
        "inert_seed_cached",
        "walker_observations",
    )

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)
        self._metrics: Optional[Any] = None

    def bind(self, metrics: Any) -> None:
        """Mirror every future count into ``metrics`` counters."""
        self._metrics = metrics

    def count(self, what: str, amount: int = 1) -> None:
        """Bump counter ``what`` by ``amount``."""
        setattr(self, what, getattr(self, what) + amount)
        if self._metrics is not None:
            self._metrics.counter(f"fastpath.batchsim.{what}").inc(amount)

    def as_dict(self) -> Dict[str, int]:
        """All counters as a JSON-able dict."""
        return {name: int(getattr(self, name)) for name in self.FIELDS}


# --------------------------------------------------------------------- #
# engine replay order
# --------------------------------------------------------------------- #


def replay_order(compiled: ScheduleChunk) -> List[int]:
    """Column indices in the order ``Engine.run`` applies the moves.

    The scripted replay (:mod:`repro.sim.replay`) turns each agent's
    move list into ``WaitUntil(time >= t-1)`` + ``Move`` pairs on the
    event queue, and the engine's queue discipline — FIFO among equal
    times, wake tokens superseding stale timer events, one wake per
    false→true transition, pushed in agent-id order after the event that
    made the predicate hold — fixes an intra-unit completion order that
    is *not* the column order.  The walker policies consume one RNG draw
    per completed move, so scoring them against the wrong order would
    desynchronize every draw; this mini-scheduler reproduces the engine's
    discipline exactly (tested move-for-move against ``Engine.run``
    across strategies and dimensions).

    Cloning schedules spawn agents via ``CloneSelf`` at times that
    depend on the parent's script, which this model does not cover —
    they are rejected.
    """
    if compiled.header.uses_cloning:
        raise SimulationError(
            "replay_order models scripted (non-cloning) replay only; "
            "cloning schedules spawn agents mid-run"
        )
    times = compiled.times
    agents = compiled.agents
    per_agent: Dict[int, List[int]] = {}
    for col, agent in enumerate(agents):
        per_agent.setdefault(agent, []).append(col)
    ids = sorted(per_agent)
    # engine agent ids are densely renumbered in sorted schedule-agent
    # order; columns are already time-sorted, so each per-agent list is
    # that agent's script in execution order
    moves = [per_agent[a] for a in ids]
    k = len(ids)

    idx = [0] * k
    status = ["ready"] * k  # ready | inflight | blocked | woken | done
    token = [0] * k
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    order: List[int] = []
    now = 0.0

    def push(t: float, a: int) -> None:
        nonlocal seq
        token[a] += 1
        heapq.heappush(heap, (t, seq, a, token[a]))
        seq += 1

    def resume(a: int) -> None:
        # run the agent's script until it blocks or goes in flight;
        # mirrors Engine._resume on _scripted behaviours
        while True:
            if idx[a] >= len(moves[a]):
                status[a] = "done"
                return
            col = moves[a][idx[a]]
            if status[a] == "inflight":
                order.append(col)
                idx[a] += 1
                status[a] = "ready"
                continue
            t = times[col]
            if now >= t - 1:
                status[a] = "inflight"
                push(now + 1.0, a)  # unit-delay arrival
                return
            status[a] = "blocked"
            if t - 1 > now:
                push(float(t - 1), a)  # WaitUntil wake_at hint
            return

    for a in range(k):
        push(0.0, a)
    while heap:
        t, _, a, tok = heapq.heappop(heap)
        now = max(now, t)
        if tok != token[a] or status[a] == "done":
            continue
        if status[a] in ("blocked", "woken"):
            # Engine._wake_up: the wake-up (or timer) re-checks the predicate
            if now < times[moves[a][idx[a]]] - 1:
                status[a] = "blocked"
                continue
            status[a] = "ready"
        resume(a)
        # Engine._wake_blocked: after a processed event, every blocked
        # agent whose predicate has turned true is pushed once at the
        # current time (agent id order); a woken agent is not pushed
        # again before its wake-up runs
        for b in range(k):
            if status[b] == "blocked" and now >= times[moves[b][idx[b]]] - 1:
                status[b] = "woken"
                push(now, b)
    if len(order) != len(times):
        raise SimulationError(
            f"replay-order model applied {len(order)} of {len(times)} moves "
            "(scripted replay would deadlock)"
        )
    return order


# --------------------------------------------------------------------- #
# the shared timeline
# --------------------------------------------------------------------- #


#: per-move ``(move times, guard masks, clean masks, destination bits)``
_Snapshots = Tuple[List[int], List[int], List[int], List[int]]


def _saturate(frontier: int, allowed: int, topo: Hypercube) -> int:
    """Bitset BFS closure of ``frontier`` inside ``allowed``."""
    reached = frontier
    while frontier:
        frontier = topo.spread_mask(frontier) & allowed & ~reached
        reached |= frontier
    return reached


class ScenarioTimeline:
    """Per-unit mask history of one whole schedule at one homebase.

    Replays the six columns of the whole-schedule chunk once (translated
    through the XOR automorphism when ``homebase`` differs from the
    schedule's own) with
    the engine's contamination semantics — arrivals clean, departures
    recontaminate through unguarded clean neighbours — and records, per
    time unit: the post-unit guard mask, clean mask, arrival
    (disturbance) mask and cumulative move count.

    :func:`run_batch` builds one per call, at the schedule's own
    homebase, and scores every trial of the shard on it in
    homebase-relative coordinates (module docstring): the timeline at
    homebase ``h`` is this one relabelled by XOR with ``h ^ self.home``,
    so any homebase's scenario is a relabelled scenario of this
    timeline.  Building it at another homebase stays supported — that
    translated replay is the reference the relative frames are tested
    against.

    The ``inert`` policy's per-seed capture units are memoized here
    (:meth:`inert_capture_index`), as are the per-move snapshots and
    guard-distance layers the walker policies replay against
    (:meth:`walker_support`, :meth:`guard_layers`), so their cost is paid
    once per shard rather than once per trial.
    """

    def __init__(
        self,
        compiled: ScheduleChunk,
        homebase: int = 0,
        topology: Optional[Hypercube] = None,
        stats: Optional[BatchStats] = None,
    ) -> None:
        header = compiled.header
        topo = topology or Hypercube(header.dimension)
        if topo.n != header.n:
            raise ScheduleError(
                f"topology has {topo.n} nodes but schedule is d={header.dimension}"
            )
        if not 0 <= homebase < topo.n:
            raise ScheduleError(f"homebase {homebase} not a node of H_{header.dimension}")
        self.topo = topo
        self.compiled = compiled
        self.home = homebase
        self.full = topo.full_mask
        self._stats = stats
        xor = homebase ^ header.homebase
        self._xor = xor
        self._srcs = [s ^ xor for s in compiled.srcs]
        self._dsts = [t ^ xor for t in compiled.dsts]
        self._times = list(compiled.times)

        self.unit_times: List[int] = []
        self.guard_after: List[int] = []
        self.clean_after: List[int] = []
        self.arrivals: List[int] = []
        self.cum_moves: List[int] = []
        #: first unit index at which the cube is fully clean (-1: never)
        self.complete_index = -1
        self.recontaminated = False
        self._replay()
        self.final_clean = self.clean_after[-1] if self.clean_after else 1 << homebase
        self.final_guard = self.guard_after[-1] if self.guard_after else 1 << homebase

        self._inert_cache: Dict[int, int] = {}
        self._walker: Optional[_Snapshots] = None
        self._layer_cache: Dict[int, List[int]] = {}
        if stats is not None:
            stats.count("timelines_built")

    # -- columnar replay ------------------------------------------------ #

    def _replay(self, order: Optional[List[int]] = None) -> _Snapshots:
        """Replay the columns unit by unit with the engine's semantics.

        In column order (``order`` is ``None``) it records the per-unit
        masks and sets :attr:`recontaminated`.  Given ``order``, the
        engine's completion order (a permutation within each unit, see
        :func:`replay_order`), it instead returns the per-move snapshots
        of :meth:`walker_support`.
        """
        topo = self.topo
        home = self.home
        srcs, dsts, times = self._srcs, self._dsts, self._times
        total = len(times)
        cols: Sequence[int] = range(total) if order is None else order
        uses_cloning = self.compiled.header.uses_cloning
        team = max(self.compiled.header.team_size, self.compiled.stats_so_far.agents_used, 1)

        guard_count = [0] * topo.n
        guard_count[home] = 1 if uses_cloning else team
        gmask = 1 << home
        clean = 1 << home
        seen_agent: Dict[int, bool] = {}
        agents = self.compiled.agents
        if uses_cloning and total:
            # the root agent is the homebase deployment, not a clone
            seen_agent[min(agents)] = True
        move_times: List[int] = []
        guard_masks: List[int] = []
        clean_masks: List[int] = []
        dst_bits: List[int] = []

        i = 0
        while i < total:
            unit_time = times[i]
            j = i
            while j < total and times[j] == unit_time:
                j += 1
            arrivals = 0
            if uses_cloning:
                # clones materialize at the head of their birth unit: the
                # engine's parent spawns them *before* its own move, so a
                # same-unit parent departure must already see the clone
                # guarding the birth node
                for k in range(i, j):
                    if not seen_agent.get(agents[k], False):
                        src = srcs[k]
                        guard_count[src] += 1
                        gmask |= 1 << src
                        clean |= 1 << src
                        arrivals |= 1 << src
                        seen_agent[agents[k]] = True
            for k in cols[i:j]:
                src, dst = srcs[k], dsts[k]
                # arrival first: the engine's move is atomic, so the
                # departure rule already sees the destination clean
                guard_count[dst] += 1
                gmask |= 1 << dst
                clean |= 1 << dst
                arrivals |= 1 << dst
                guard_count[src] -= 1
                if guard_count[src] == 0:
                    gmask &= ~(1 << src)
                    # departure rule, move-granular like ContaminationMap.
                    # A guarded node is always clean (arrivals and clones
                    # set both bits, and the flood never clears a guarded
                    # node), so the vacated src needs no clean test
                    if topo.neighbor_mask(src) & self.full & ~clean:
                        # src and everything clean+unguarded reachable
                        # from it is recontaminated (engine semantics)
                        if order is None:
                            self.recontaminated = True
                        wave = 1 << src
                        clean &= ~wave
                        while wave:
                            wave = topo.spread_mask(wave) & clean & ~gmask
                            clean &= ~wave
                if order is not None:
                    move_times.append(unit_time)
                    guard_masks.append(gmask)
                    clean_masks.append(clean)
                    dst_bits.append(1 << dst)
            if order is None:
                self.unit_times.append(unit_time)
                self.guard_after.append(gmask)
                self.clean_after.append(clean)
                self.arrivals.append(arrivals)
                self.cum_moves.append(j)
                if self.complete_index < 0 and clean == self.full:
                    self.complete_index = len(self.unit_times) - 1
            i = j
        return move_times, guard_masks, clean_masks, dst_bits

    # -- reachable policy ----------------------------------------------- #

    def reachable_capture_index(self) -> int:
        """Unit index at which the omniscient intruder's region empties."""
        return self.complete_index

    # -- inert-fugitive policy ------------------------------------------ #

    def inert_capture_index(self, seed: int) -> int:
        """Unit index at whose boundary the inert fugitive seeded at
        ``seed`` has no possible location left (-1: never captured).

        The possible-location set starts as ``{seed}``; each unit, the
        undisturbed part stays put, while any possibility on a node a
        searcher arrived at flees — arbitrarily far through post-unit
        unguarded nodes — to reachable contaminated hideouts.  Capture
        is the unit the set empties.  Memoized per seed: a shard asks
        for every trial's seed in the timeline's frame (``s ^ rel``), so
        the memo holds at most one entry per relative seed.
        """
        if seed == self.home:
            raise SimulationError(f"seed {seed} is the homebase; nothing to capture")
        if not 0 <= seed < self.topo.n:
            raise ScheduleError(f"seed {seed} not a node of H_{self.compiled.header.dimension}")
        cached = self._inert_cache.get(seed)
        if cached is not None:
            if self._stats is not None:
                self._stats.count("inert_seed_cached")
            return cached
        topo = self.topo
        full = self.full
        possible = 1 << seed
        result = -1
        for i in range(len(self.unit_times)):
            guards = self.guard_after[i]
            contam = full & ~self.clean_after[i]
            disturbed = possible & self.arrivals[i]
            safe = full & ~guards
            next_possible = possible & ~self.arrivals[i] & contam & safe
            if disturbed:
                ring = topo.spread_mask(disturbed) & safe
                next_possible |= _saturate(ring, safe, topo) & contam
            possible = next_possible
            if possible == 0:
                result = i
                break
        self._inert_cache[seed] = result
        if self._stats is not None:
            self._stats.count("inert_seed_evals")
        return result

    # -- walker policies ------------------------------------------------ #

    def walker_support(self) -> _Snapshots:
        """Per-move snapshots in engine replay order (lazy, shared).

        Returns ``(move_times, guard_masks, clean_masks, capture_bits)``
        — for each completed move ``j`` (engine order): its stamped time
        unit, the post-move guard mask, the post-move clean mask, and
        the single-bit mask of the move's destination.  The walker
        policies observe after every entry, exactly like the engine.
        """
        if self._walker is None:
            self._walker = self._replay(replay_order(self.compiled))
        return self._walker

    def guard_layers(self, move_index: int) -> List[int]:
        """Distance layers around the post-move guard set (memoized).

        Entry ``k`` is the mask of the nodes ``k + 1`` hops from the
        nearest guard after move ``move_index`` (engine order).  Shared
        across scenarios: the guard set after move ``j`` is
        scenario-independent, only the walker's position differs.
        """
        cached = self._layer_cache.get(move_index)
        if cached is not None:
            return cached
        gmask = self.walker_support()[1][move_index]
        topo = self.topo
        layers: List[int] = []
        layer = reached = gmask
        while reached != self.full:
            layer = topo.spread_mask(layer) & ~reached
            if not layer:
                break
            layers.append(layer)
            reached |= layer
        self._layer_cache[move_index] = layers
        return layers


def _mask_nodes(mask: int) -> List[int]:
    """Set bits of ``mask`` as an ascending node list."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


class _Walker:
    """Batch replica of one :class:`~repro.sim.intruder.WalkerIntruder`,
    positioned in the timeline's frame."""

    __slots__ = ("pos", "captured", "rng", "capture_move")

    def __init__(self, pos: int, rng: random.Random) -> None:
        self.pos = pos
        self.captured = False
        self.rng = rng
        self.capture_move = -1

    def observe(
        self, timeline: ScenarioTimeline, move_index: int, gmask: int, clean: int, rel: int
    ) -> None:
        """The exact ``WalkerIntruder.observe`` on the post-move guard and
        clean masks of ``move_index``, for a scenario ``rel`` away."""
        if self.captured:
            return
        here = 1 << self.pos
        if gmask & here:
            self.captured = True
            self.capture_move = move_index
            return
        reached = _saturate(here, timeline.full & ~gmask, timeline.topo)
        hideouts = reached & ~clean
        if not hideouts:
            self.captured = True
            self.capture_move = move_index
            return
        if gmask:
            # the farthest distance layer holding a hideout: the greedy
            # walker's candidates
            for layer in reversed(timeline.guard_layers(move_index)):
                if layer & hideouts:
                    hideouts &= layer
                    break
        # the engine draws from the candidates sorted in the scenario's
        # own frame, an order XOR by ``rel`` does not preserve
        self.pos = self.rng.choice(sorted(x ^ rel for x in _mask_nodes(hideouts))) ^ rel


def _run_walkers(
    timeline: ScenarioTimeline,
    starts: Sequence[int],
    rngs: Sequence[random.Random],
    stats: Optional[BatchStats],
    rel: int = 0,
) -> Tuple[bool, int, int]:
    """Drive a walker pack over the timeline's move snapshots.

    ``starts`` are nodes of the scenario's frame, and ``rel`` maps that
    frame onto the timeline's (``x -> x ^ rel``, with ``rel`` the
    scenario's homebase XOR ``timeline.home``).  Returns ``(captured,
    capture_unit_index, capture_move_count)`` where the unit index is
    that of the move completing the capture (-1 if the pack survives the
    sweep).
    """
    move_times, guard_masks, clean_masks, _ = timeline.walker_support()
    walkers = [_Walker(p ^ rel, r) for p, r in zip(starts, rngs)]
    alive = len(walkers)
    observations = 0
    for j in range(len(move_times)):
        gmask = guard_masks[j]
        clean = clean_masks[j]
        for w in walkers:
            if w.captured:
                continue
            w.observe(timeline, j, gmask, clean, rel)
            observations += 1
            if w.captured:
                alive -= 1
        if alive == 0:
            if stats is not None:
                stats.count("walker_observations", observations)
            unit_index = timeline.unit_times.index(move_times[j])
            return True, unit_index, j + 1
    if stats is not None:
        stats.count("walker_observations", observations)
    return False, -1, len(move_times)


# --------------------------------------------------------------------- #
# counter-based trial draws
# --------------------------------------------------------------------- #

_M64 = (1 << 64) - 1
#: SplitMix64's odd increment γ (module docstring, "Determinism")
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64

#: words per block when a random-delay shard folds its stretches into
#: wall times, so memory stays bounded whatever count × units is
_BLOCK_WORDS = 1 << 20


def _mix(z: Any) -> Any:
    """The SplitMix64 finalizer, in place on a uint64 array (mod 2**64)."""
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _fold(seed: int) -> int:
    """The 64-bit key of an integer seed of any sign and width."""
    acc, mag = int(seed < 0), abs(seed)
    while True:
        word = np.array([((acc + _GAMMA) & _M64) ^ (mag & _M64)], dtype=_U64)
        acc, mag = int(_mix(word)[0]), mag >> 64
        if not mag:
            return acc


class _TrialWords:
    """The words of trials ``[start, start + count)`` of a campaign."""

    def __init__(self, rng_seed: int, start: int, count: int) -> None:
        trials = _mix(np.arange(start, start + count, dtype=_U64))
        self.keys = _mix(trials ^ _U64(_fold(rng_seed)))

    def block(self, first: int, last: int) -> Any:
        """Slots ``first .. last - 1`` of every trial, ``(count, last - first)``."""
        steps = np.arange(first + 1, last + 1, dtype=_U64) * _U64(_GAMMA)
        return _mix(self.keys[:, None] + steps[None, :])

    def column(self, slot: int) -> Any:
        """Slot ``slot`` of every trial."""
        return self.block(slot, slot + 1)[:, 0]


def _homebases(spec: BatchScenarioSpec, words: _TrialWords) -> Any:
    """Each trial's homebase (slot 0, or node 0 without rotation)."""
    if not spec.rotate_homebase:
        return np.zeros(len(words.keys), dtype=np.int64)
    return (words.column(0) >> _U64(64 - spec.dimension)).astype(np.int64)


def _inert_count(spec: BatchScenarioSpec) -> int:
    """Seeds per trial the spec draws (slots ``2 .. 2 + k - 1``)."""
    if spec.intruder != "inert":
        return 0
    return min(spec.seeds_per_trial, (1 << spec.dimension) - 1)


def _inert_seeds(spec: BatchScenarioSpec, words: _TrialWords, homes: Any) -> Any:
    """Each trial's ``k`` distinct non-homebase seeds, ``(count, k)``:
    Floyd's algorithm on ``range(n - 1)`` (slots ``2 .. 2 + k - 1``),
    stepped over the homebase."""
    n = 1 << spec.dimension
    k = _inert_count(spec)
    picks = np.empty((len(homes), k), dtype=np.int64)
    for i, j in enumerate(range(n - 1 - k, n - 1)):
        drawn = (words.column(2 + i) % _U64(j + 1)).astype(np.int64)
        taken = (picks[:, :i] == drawn[:, None]).any(axis=1)
        picks[:, i] = np.where(taken, j, drawn)
    return picks + (picks >= homes[:, None])


def _walls(
    spec: BatchScenarioSpec, words: _TrialWords, caps: Any, units: int
) -> Tuple[Any, Any]:
    """Each trial's ``(capture wall, sweep duration)`` in wall ticks.

    The capture wall is the sum of the stretches of units ``0 .. cap``
    (-1 where ``cap`` is -1: never captured), the duration the sum over
    every unit.  Random stretches (slots ``2 + k + u``) are folded
    ``_BLOCK_WORDS`` at a time, never held for the whole shard.
    """
    count = len(caps)
    if spec.delay == "random":
        width = _U64(spec.delay_high - spec.delay_low + 1)
        first = 2 + _inert_count(spec)
        durations = np.zeros(count, dtype=np.int64)
        walls = np.zeros(count, dtype=np.int64)
        step = max(1, _BLOCK_WORDS // max(count, 1))
        for u in range(0, units, step):
            block = words.block(first + u, first + min(units, u + step))
            block %= width
            stretches = block.view(np.int64)
            stretches += spec.delay_low
            durations += stretches.sum(axis=1)
            stretches[np.arange(u, u + stretches.shape[1])[None, :] > caps[:, None]] = 0
            walls += stretches.sum(axis=1)
        return np.where(caps >= 0, walls, -1), durations
    ticks = np.ones(units, dtype=np.int64)
    if spec.delay == "adversarial":
        # every period-th unit runs factor times slower
        ticks[spec.delay_period - 1 :: spec.delay_period] = spec.delay_factor
    prefix = np.cumsum(ticks)
    duration = int(prefix[-1]) if units else 0
    # a trailing -1 answers the index -1 of an uncaptured trial
    return np.append(prefix, -1)[caps], np.full(count, duration, dtype=np.int64)


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


def _percentile(sorted_values: Sequence[int], q: int) -> int:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0
    rank = (q * len(sorted_values) + 99) // 100
    rank = min(max(rank, 1), len(sorted_values))
    return int(sorted_values[rank - 1])


def _distribution(values: Sequence[int]) -> Dict[str, float]:
    """min/p50/p90/p99/max/mean of a value list (0s when empty)."""
    if not values:
        return {"min": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0, "mean": 0.0}
    ordered = sorted(values)
    return {
        "min": int(ordered[0]),
        "p50": _percentile(ordered, 50),
        "p90": _percentile(ordered, 90),
        "p99": _percentile(ordered, 99),
        "max": int(ordered[-1]),
        "mean": round(sum(ordered) / len(ordered), 3),
    }


@dataclass
class BatchResult:
    """Columnar outcome of a (shard of a) campaign.

    One entry per trial, in trial order: the homebase, the verdict, the
    capture unit (ideal time; -1 when the intruder survives), the
    capture wall time under the trial's delay stretches, the sweep's
    total wall duration, and the moves completed up to capture.
    ``verdict`` is the schedule-level :func:`batch_verify` predicate
    block (shared by every trial — translation preserves it).
    """

    spec: BatchScenarioSpec
    start: int
    homebases: List[int] = field(default_factory=list)
    captured: List[bool] = field(default_factory=list)
    capture_units: List[int] = field(default_factory=list)
    capture_walls: List[int] = field(default_factory=list)
    duration_walls: List[int] = field(default_factory=list)
    moves_to_capture: List[int] = field(default_factory=list)
    verdict: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Trials recorded in this result."""
        return len(self.captured)

    def capture_rate(self) -> float:
        """Fraction of trials whose intruder was captured."""
        return (sum(self.captured) / self.count) if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-able campaign summary (the manifest block)."""
        caught_walls = [w for w, c in zip(self.capture_walls, self.captured) if c]
        caught_units = [u for u, c in zip(self.capture_units, self.captured) if c]
        caught_moves = [m for m, c in zip(self.moves_to_capture, self.captured) if c]
        return {
            "spec": self.spec.to_payload(),
            "start": self.start,
            "trials": self.count,
            "capture_rate": round(self.capture_rate(), 6),
            "capture_units": _distribution(caught_units),
            "capture_walls": _distribution(caught_walls),
            "duration_walls": _distribution(self.duration_walls),
            "moves_to_capture": _distribution(caught_moves),
            "distinct_homebases": len(set(self.homebases)),
            "verdict": dict(self.verdict),
            "counters": dict(self.counters),
        }

    def describe(self) -> str:
        """Multi-line human summary (the CLI output)."""
        s = self.summary()
        spec = self.spec
        lines = [
            f"montecarlo {spec.strategy}(d={spec.dimension}): {self.count} trials, "
            f"intruder={spec.intruder}, delays={spec.delay}",
            f"  capture rate : {s['capture_rate']:.4f}",
        ]
        for label, key in (
            ("capture unit ", "capture_units"),
            ("capture wall ", "capture_walls"),
            ("sweep wall   ", "duration_walls"),
            ("moves@capture", "moves_to_capture"),
        ):
            d = s[key]
            lines.append(
                f"  {label}: p50={d['p50']} p90={d['p90']} p99={d['p99']} "
                f"max={d['max']} mean={d['mean']}"
            )
        v = self.verdict
        if v:
            lines.append(
                f"  schedule     : monotone={v.get('monotone')} "
                f"contiguous={v.get('contiguous')} complete={v.get('complete')} "
                f"moves={v.get('total_moves')} makespan={v.get('makespan')} "
                f"team={v.get('team_size')}"
            )
        lines.append(f"  homebases    : {s['distinct_homebases']} distinct")
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able shard form (the ``batch_cell`` task result)."""
        return {
            "spec": self.spec.to_payload(),
            "start": self.start,
            "homebases": list(self.homebases),
            "captured": [bool(c) for c in self.captured],
            "capture_units": list(self.capture_units),
            "capture_walls": list(self.capture_walls),
            "duration_walls": list(self.duration_walls),
            "moves_to_capture": list(self.moves_to_capture),
            "verdict": dict(self.verdict),
            "counters": dict(self.counters),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BatchResult":
        """Inverse of :meth:`to_payload`."""
        return cls(
            spec=BatchScenarioSpec.from_payload(dict(payload["spec"])),
            start=int(payload["start"]),
            homebases=[int(x) for x in payload["homebases"]],
            captured=[bool(x) for x in payload["captured"]],
            capture_units=[int(x) for x in payload["capture_units"]],
            capture_walls=[int(x) for x in payload["capture_walls"]],
            duration_walls=[int(x) for x in payload["duration_walls"]],
            moves_to_capture=[int(x) for x in payload["moves_to_capture"]],
            verdict=dict(payload.get("verdict", {})),
            counters={k: int(v) for k, v in payload.get("counters", {}).items()},
        )

    @classmethod
    def merge(cls, parts: Sequence["BatchResult"]) -> "BatchResult":
        """Concatenate shards (sorted by ``start``) into one result.

        Shards must come from the same spec; counters are summed.  Gaps
        (a shard that permanently failed) are tolerated and surface as
        ``counters["missing_trials"]`` so a partial campaign still
        renders — the executor's degrade-don't-crash contract.
        """
        if not parts:
            raise ScheduleError("nothing to merge")
        ordered = sorted(parts, key=lambda r: r.start)
        spec = ordered[0].spec
        for part in ordered:
            if part.spec != spec:
                raise ScheduleError("cannot merge shards from different specs")
        merged = cls(spec=spec, start=ordered[0].start, verdict=dict(ordered[0].verdict))
        expected = ordered[0].start
        missing = 0
        counters: Dict[str, int] = {}
        for part in ordered:
            if part.start > expected:
                missing += part.start - expected
            expected = max(expected, part.start + part.count)
            merged.homebases.extend(part.homebases)
            merged.captured.extend(part.captured)
            merged.capture_units.extend(part.capture_units)
            merged.capture_walls.extend(part.capture_walls)
            merged.duration_walls.extend(part.duration_walls)
            merged.moves_to_capture.extend(part.moves_to_capture)
            for key, value in part.counters.items():
                counters[key] = counters.get(key, 0) + value
        if missing:
            counters["missing_trials"] = counters.get("missing_trials", 0) + missing
        merged.counters = counters
        return merged


# --------------------------------------------------------------------- #
# the campaign driver
# --------------------------------------------------------------------- #


def _draw_others(rng: random.Random, n: int, home: int, k: int) -> List[int]:
    """The ``walkers`` pack starts: ``k`` nodes of ``H_d`` other than
    ``home``, drawn exactly as :class:`~repro.sim.intruder.
    MultiWalkerIntruder` draws them from the engine's contaminated nodes
    ``others = [x for x in range(n) if x != home]`` — ``rng.sample(others,
    k)`` for ``k <= n - 1``, else ``k`` calls of ``rng.choice(others)`` —
    in O(k).

    Both draws pick by index, so indices drawn from ``range(n - 1)`` and
    stepped over ``home`` (``j + (j >= home)``) are the same nodes, and
    ``rng`` ends in the same state.
    """
    indices = range(n - 1)
    if k <= n - 1:
        picks = rng.sample(indices, k)
    else:
        picks = [rng.choice(indices) for _ in range(k)]
    return [j + (j >= home) for j in picks]


def run_batch(
    spec: BatchScenarioSpec,
    *,
    start: int = 0,
    count: Optional[int] = None,
    compiled: Optional[ScheduleChunk] = None,
    topology: Optional[Hypercube] = None,
    stats: Optional[BatchStats] = None,
    metrics: Optional[Any] = None,
    tracer: Optional[Any] = None,
    backend: Optional[str] = None,
) -> BatchResult:
    """Score trials ``[start, start+count)`` of the campaign.

    The default ``(0, spec.trials)`` window runs the whole campaign;
    shard workers pass disjoint windows and :meth:`BatchResult.merge`
    reassembles the serial result exactly (determinism section of the
    module docstring).  ``compiled`` (a whole-schedule chunk)
    short-circuits schedule generation when the caller already holds
    the columns; ``metrics`` mirrors the
    :class:`BatchStats` counters into an observability registry;
    ``tracer`` (duck-typed — rule ``RPR220`` keeps ``repro.obs`` out of
    this layer) wraps the shard in a ``fastpath.run_batch`` span with
    compile / verify / timeline child spans.

    A non-empty shard builds one :class:`ScenarioTimeline`, at the
    schedule's own homebase, and scores every trial on it in
    homebase-relative coordinates, whatever the policy: its counters
    read ``timelines_built == 1`` and ``timelines_reused == count - 1``,
    and ``inert_seed_evals`` counts distinct relative seeds.  An empty
    shard builds nothing and returns an empty result.  ``backend``
    accepts only ``None`` or ``"numpy"`` (the name of the bit-plane
    kernel) and changes nothing; any other value raises
    :class:`~repro.errors.ScheduleError`.
    """
    check_backend(backend)
    if count is None:
        count = spec.trials - start
    if start < 0 or count < 0 or start + count > spec.trials:
        raise ScheduleError(
            f"trial window [{start}, {start + count}) outside campaign of {spec.trials}"
        )
    if tracer is not None:
        with tracer.span(
            "fastpath.run_batch",
            strategy=spec.strategy,
            dimension=spec.dimension,
            start=start,
            count=count,
            policy=spec.intruder,
        ):
            return _run_batch(spec, start, count, compiled, topology, stats, metrics, tracer)
    return _run_batch(spec, start, count, compiled, topology, stats, metrics, None)


def _run_batch(
    spec: BatchScenarioSpec,
    start: int,
    count: int,
    compiled: Optional[ScheduleChunk],
    topology: Optional[Hypercube],
    stats: Optional[BatchStats],
    metrics: Optional[Any],
    tracer: Optional[Any],
) -> BatchResult:
    stats = stats or BatchStats()
    if metrics is not None:
        stats.bind(metrics)
    if compiled is not None:
        base = compiled
    elif tracer is not None:
        with tracer.span("fastpath.compile", strategy=spec.strategy, dimension=spec.dimension):
            base = compile_for_spec(spec)
    else:
        base = compile_for_spec(spec)
    header = base.header
    if header.dimension != spec.dimension:
        raise ScheduleError(
            f"compiled schedule is d={header.dimension}, spec wants d={spec.dimension}"
        )
    topo = topology or Hypercube(spec.dimension)
    report = batch_verify(base, topo, tracer=tracer)
    verdict = {
        "monotone": report.monotone,
        "contiguous": report.contiguous,
        "complete": report.complete,
        "total_moves": report.total_moves,
        "makespan": report.makespan,
        "team_size": report.team_size,
    }
    result = BatchResult(spec=spec, start=start, verdict=verdict)
    policy = spec.intruder
    if policy in ("walker", "walkers") and header.uses_cloning:
        raise SimulationError(
            "walker policies replay the engine's move order, which is only "
            "modelled for non-cloning schedules"
        )
    if count > 0:
        if tracer is not None:
            with tracer.span("fastpath.timeline", homebase=header.homebase):
                timeline = ScenarioTimeline(base, header.homebase, topo, stats=stats)
        else:
            timeline = ScenarioTimeline(base, header.homebase, topo, stats=stats)
        if count > 1:
            stats.count("timelines_reused", count - 1)
        _score_shard(spec, start, count, timeline, stats, result)
    result.counters = stats.as_dict()
    return result


def _score_shard(
    spec: BatchScenarioSpec,
    start: int,
    count: int,
    timeline: ScenarioTimeline,
    stats: BatchStats,
    result: BatchResult,
) -> None:
    """Score trials ``[start, start+count)`` on the shard's one timeline.

    Draws, homebases and wall times are column operations for every
    policy.  The omniscient intruder's capture index is the timeline's
    own, since relabelling the sweep by XOR changes neither it nor the
    cumulative moves; only the ``inert`` and walker capture indices
    loop over trials, each in its frame relative to the timeline.
    """
    n = timeline.topo.n
    policy = spec.intruder
    words = _TrialWords(spec.rng_seed, start, count)
    homes = _homebases(spec, words)
    # the XOR taking each trial's frame onto the timeline's
    rels = (homes ^ timeline.home).tolist()
    moves_total = len(timeline.compiled)
    moves_at: Optional[List[int]] = None
    if policy == "reachable":
        caps = [timeline.reachable_capture_index()] * count
    elif policy == "inert":
        caps = []
        for seeds, rel in zip(_inert_seeds(spec, words, homes).tolist(), rels):
            indices = [timeline.inert_capture_index(s ^ rel) for s in seeds]
            caps.append(max(indices) if min(indices) >= 0 else -1)
    else:
        caps, moves_at = [], []
        for home, rel, seed in zip(homes.tolist(), rels, words.column(1).tolist()):
            irng = random.Random(seed)
            if policy == "walker":
                starts = [home ^ (n - 1)]  # the contaminated node farthest
                # from the homebase — the hypercube antipode
                rngs = [irng]
            else:
                starts = _draw_others(irng, n, home, spec.intruder_count)
                rngs = [random.Random(irng.getrandbits(64)) for _ in starts]
            _, cap_index, moves = _run_walkers(timeline, starts, rngs, stats, rel)
            caps.append(cap_index)
            moves_at.append(moves)

    cap = np.array(caps, dtype=np.int64)
    caught = cap >= 0
    units = len(timeline.unit_times)
    walls, durations = _walls(spec, words, cap, units)
    # a trailing entry answers the index -1 of an uncaptured trial
    unit_at = np.append(np.array(timeline.unit_times, dtype=np.int64), -1)
    if moves_at is None:
        cum_moves = np.append(np.array(timeline.cum_moves, dtype=np.int64), moves_total)
        moves_at = cum_moves[cap].tolist()
    result.homebases.extend(homes.tolist())
    result.captured.extend(caught.tolist())
    result.capture_units.extend(unit_at[cap].tolist())
    result.capture_walls.extend(walls.tolist())
    result.duration_walls.extend(durations.tolist())
    result.moves_to_capture.extend(moves_at)
    captures = int(caught.sum())
    stats.count("trials", count)
    if captures:
        stats.count("captures", captures)
    if count - captures:
        stats.count("escapes", count - captures)
