"""Scenario-batch Monte Carlo simulation of compiled schedules.

One :class:`~repro.fastpath.compiled.CompiledSchedule` answers one
question ("does this sweep work?"); a Monte Carlo campaign asks thousands
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
replays the schedule once, at the compiled schedule's homebase, and
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
(uniform integers from the trial sub-stream) and ``adversarial`` (every
``period``-th unit stretched by ``factor`` — the slowest-link
adversary).  Stretches relabel the clock without reordering moves, so
capture *units* are delay-invariant and capture *wall times* are the
prefix sums — exactly the paper's ideal-time/asynchronous-time split.

Determinism
-----------
A master ``random.Random(spec.rng_seed)`` yields one ``getrandbits(64)``
sub-seed per trial; each trial draws, in fixed order, its homebase, its
infection seeds, its intruder seed and its delay seed from its own
``random.Random`` sub-stream.  Shard workers draw the same master
sequence and skip the first ``start`` sub-seeds, so sharded and serial
campaigns produce identical scenarios trial-for-trial.  A shard's
timeline and seed memos live only as long as its :func:`run_batch` call,
so a shard's payload, counters included, is a pure function of
``(spec, start, count)``.

Layering: like the rest of ``repro.fastpath`` this module imports only
``core``/``topology``/``errors`` and numpy (lint rule RPR220); the engine-twin
semantics are cross-checked by randomized batch≡scalar tests instead of
shared code.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError, SimulationError
from repro.fastpath.batchverify import batch_verify
from repro.fastpath.compiled import CompiledSchedule
from repro.fastpath.npkernels import VectorMT19937, check_backend
from repro.topology.hypercube import Hypercube

__all__ = [
    "BatchResult",
    "BatchScenarioSpec",
    "BatchStats",
    "DELAY_KINDS",
    "INTRUDER_POLICIES",
    "ScenarioTimeline",
    "compile_for_spec",
    "replay_order",
    "run_batch",
]

#: Intruder policies a scenario may score against (module docstring).
INTRUDER_POLICIES = ("reachable", "inert", "walker", "walkers")

#: Per-unit stretch families for the delay adversary.
DELAY_KINDS = ("unit", "random", "adversarial")


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
        Master seed; the whole campaign is a pure function of the spec.
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
        """JSON-able form (the ``batch_cell`` task payload)."""
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
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BatchScenarioSpec":
        """Inverse of :meth:`to_payload` (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ScheduleError(f"unknown batch spec fields: {sorted(extra)}")
        return cls(**payload)


def compile_for_spec(
    spec: BatchScenarioSpec, topology: Optional[Hypercube] = None
) -> CompiledSchedule:
    """Generate + compile the spec's base schedule (homebase 0)."""
    from repro.core.strategy import get_strategy  # lazy: strategy registry
    # imports the generators, which fastpath never needs at import time

    schedule = get_strategy(spec.strategy).run(spec.dimension)
    return CompiledSchedule.from_schedule(schedule)


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


def replay_order(compiled: CompiledSchedule) -> List[int]:
    """Column indices in the order ``Engine.run`` applies the moves.

    The scripted replay (:mod:`repro.sim.replay`) turns each agent's
    move list into ``WaitUntil(time >= t-1)`` + ``Move`` pairs on the
    event queue, and the engine's queue discipline — FIFO among equal
    times, wake tokens superseding stale wake events, blocked agents
    re-pushed in agent-id order after every processed event — fixes an
    intra-unit completion order that is *not* the column order.  The
    walker policies consume one RNG draw per completed move, so scoring
    them against the wrong order would desynchronize every draw; this
    mini-scheduler reproduces the engine's discipline exactly (tested
    move-for-move against ``Engine.run`` across strategies and
    dimensions).

    Cloning schedules spawn agents via ``CloneSelf`` at times that
    depend on the parent's script, which this model does not cover —
    they are rejected.
    """
    if compiled.uses_cloning:
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
    status = ["ready"] * k  # ready | inflight | blocked | done
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
        if status[a] == "blocked" and now < times[moves[a][idx[a]]] - 1:
            continue  # predicate still false: engine leaves it blocked
        if status[a] == "blocked":
            status[a] = "ready"
        resume(a)
        # Engine._wake_blocked: after every processed event, every
        # blocked agent whose predicate now holds is re-pushed at the
        # current time (agent insertion order), superseding older wakes
        for b in range(k):
            if status[b] == "blocked" and now >= times[moves[b][idx[b]]] - 1:
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


def _saturate(frontier: int, allowed: int, topo: Hypercube) -> int:
    """Bitset BFS closure of ``frontier`` inside ``allowed``."""
    reached = frontier
    while frontier:
        frontier = topo.spread_mask(frontier) & allowed & ~reached
        reached |= frontier
    return reached


class ScenarioTimeline:
    """Per-unit mask history of one compiled schedule at one homebase.

    Replays the six columns once (translated through the XOR
    automorphism when ``homebase`` differs from the compiled one) with
    the engine's contamination semantics — arrivals clean, departures
    recontaminate through unguarded clean neighbours — and records, per
    time unit: the post-unit guard mask, clean mask, arrival
    (disturbance) mask and cumulative move count.

    :func:`run_batch` builds one per call, at the compiled schedule's
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
        compiled: CompiledSchedule,
        homebase: int = 0,
        topology: Optional[Hypercube] = None,
        stats: Optional[BatchStats] = None,
    ) -> None:
        topo = topology or Hypercube(compiled.dimension)
        if topo.n != compiled.n:
            raise ScheduleError(
                f"topology has {topo.n} nodes but schedule is d={compiled.dimension}"
            )
        if not 0 <= homebase < topo.n:
            raise ScheduleError(f"homebase {homebase} not a node of H_{compiled.dimension}")
        self.topo = topo
        self.compiled = compiled
        self.home = homebase
        self.full = topo.full_mask
        self._stats = stats
        xor = homebase ^ compiled.homebase
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
        self._walker: Optional[Tuple[List[int], List[int], List[int], List[int]]] = None
        self._layer_cache: Dict[int, List[int]] = {}
        if stats is not None:
            stats.count("timelines_built")

    # -- columnar replay ------------------------------------------------ #

    def _replay(self) -> None:
        topo = self.topo
        n = topo.n
        home = self.home
        srcs, dsts, times = self._srcs, self._dsts, self._times
        total = len(times)
        uses_cloning = self.compiled.uses_cloning
        team = max(self.compiled.team_size, self.compiled.stats.agents_used, 1)

        guard_count = [0] * n
        guard_count[home] = 1 if uses_cloning else team
        gmask = 1 << home
        clean = 1 << home
        seen_agent: Dict[int, bool] = {}
        agents = self.compiled.agents
        if uses_cloning and total:
            # the root agent is the homebase deployment, not a clone
            seen_agent[min(agents)] = True

        def flood_from(v: int) -> int:
            # departure-rule violation: v and everything clean+unguarded
            # reachable from it is recontaminated (engine semantics)
            nonlocal clean
            self.recontaminated = True
            wave = 1 << v
            clean &= ~wave
            while wave:
                wave = topo.spread_mask(wave) & clean & ~gmask
                clean &= ~wave
            return clean

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
            for k in range(i, j):
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
                    # departure rule, move-granular like ContaminationMap
                    if clean & (1 << src) and topo.neighbor_mask(src) & self.full & ~clean:
                        flood_from(src)
            self.unit_times.append(unit_time)
            self.guard_after.append(gmask)
            self.clean_after.append(clean)
            self.arrivals.append(arrivals)
            self.cum_moves.append(j)
            if self.complete_index < 0 and clean == self.full:
                self.complete_index = len(self.unit_times) - 1
            i = j

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
            raise ScheduleError(f"seed {seed} not a node of H_{self.compiled.dimension}")
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

    def walker_support(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Per-move snapshots in engine replay order (lazy, shared).

        Returns ``(move_times, guard_masks, clean_masks, capture_bits)``
        — for each completed move ``j`` (engine order): its stamped time
        unit, the post-move guard mask, the post-move clean mask, and
        the single-bit mask of the move's destination.  The walker
        policies observe after every entry, exactly like the engine.
        """
        if self._walker is not None:
            return self._walker
        order = replay_order(self.compiled)
        topo = self.topo
        n = topo.n
        team = max(self.compiled.team_size, self.compiled.stats.agents_used, 1)
        guard_count = [0] * n
        guard_count[self.home] = team
        gmask = 1 << self.home
        clean = 1 << self.home
        move_times: List[int] = []
        guard_masks: List[int] = []
        clean_masks: List[int] = []
        dst_bits: List[int] = []
        full = self.full
        for col in order:
            src, dst = self._srcs[col], self._dsts[col]
            guard_count[dst] += 1
            gmask |= 1 << dst
            clean |= 1 << dst
            guard_count[src] -= 1
            if guard_count[src] == 0:
                gmask &= ~(1 << src)
                if clean & (1 << src) and topo.neighbor_mask(src) & full & ~clean:
                    # same flood as the unit replay, move-granular
                    wave = 1 << src
                    clean &= ~wave
                    while wave:
                        wave = topo.spread_mask(wave) & clean & ~gmask
                        clean &= ~wave
            move_times.append(self._times[col])
            guard_masks.append(gmask)
            clean_masks.append(clean)
            dst_bits.append(1 << dst)
        self._walker = (move_times, guard_masks, clean_masks, dst_bits)
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
# delay stretches
# --------------------------------------------------------------------- #


def _stretches(spec: BatchScenarioSpec, units: int, rng: random.Random) -> Optional[List[int]]:
    """Per-unit wall-tick stretches; ``None`` means all ones (unit)."""
    if spec.delay == "unit":
        return None
    if spec.delay == "random":
        return [rng.randint(spec.delay_low, spec.delay_high) for _ in range(units)]
    # adversarial: every period-th unit runs factor times slower
    return [
        spec.delay_factor if (u % spec.delay_period) == 0 else 1
        for u in range(1, units + 1)
    ]


def _wall_times(stretches: Optional[List[int]], units: int) -> Tuple[List[int], int]:
    """Prefix sums of the stretches (wall clock at each unit boundary)."""
    if stretches is None:
        walls = list(range(1, units + 1))
        return walls, units
    walls = []
    acc = 0
    for s in stretches:
        acc += s
        walls.append(acc)
    return walls, acc


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


#: sub-seeds skipped per ``getrandbits`` call while a shard seeks its
#: window (bounds the throwaway integer at 512 KiB)
_SKIP_DRAWS = 65_536


def _trial_subseeds(spec: BatchScenarioSpec, start: int, count: int) -> List[int]:
    """Sub-seeds for trials ``[start, start+count)`` — the master stream
    is replayed from the top and the first ``start`` draws skipped, so a
    shard sees exactly the trials the serial run would.

    CPython's ``getrandbits(64 * m)`` consumes exactly the ``2m`` words
    that ``m`` calls of ``getrandbits(64)`` would and packs them least
    significant word first, so the skip and the window are a few big
    draws instead of one call per trial; the window's little-endian
    64-bit limbs are the per-trial sub-seeds.
    """
    master = random.Random(spec.rng_seed)
    skipped = 0
    while skipped < start:
        step = min(_SKIP_DRAWS, start - skipped)
        master.getrandbits(64 * step)
        skipped += step
    if not count:
        return []
    window = master.getrandbits(64 * count).to_bytes(8 * count, "little")
    return np.frombuffer(window, dtype="<u8").tolist()


def _draw_others(rng: random.Random, n: int, home: int, k: int) -> List[int]:
    """``k`` nodes of ``H_d`` other than ``home``, drawn exactly as
    ``rng.sample(others, k)`` (``k <= n - 1``) or ``k`` calls of
    ``rng.choice(others)`` (``k > n - 1``) would draw them from
    ``others = [x for x in range(n) if x != home]``, in O(k).

    Both draws pick by index, so indices drawn from ``range(n - 1)`` and
    stepped over ``home`` (``j + (j >= home)``) are the same nodes.  Like
    :class:`~repro.fastpath.npkernels.VectorMT19937`, this relies on
    CPython's implementation of :mod:`random`.
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
    compiled: Optional[CompiledSchedule] = None,
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
    module docstring).  ``compiled`` short-circuits schedule generation
    when the caller already holds the columns; ``metrics`` mirrors the
    :class:`BatchStats` counters into an observability registry;
    ``tracer`` (duck-typed — rule ``RPR220`` keeps ``repro.obs`` out of
    this layer) wraps the shard in a ``fastpath.run_batch`` span with
    compile / verify / timeline child spans.

    A non-empty shard builds one :class:`ScenarioTimeline`, at the
    compiled schedule's homebase, and scores every trial on it in
    homebase-relative coordinates, whatever the policy: its counters
    read ``timelines_built == 1`` and ``timelines_reused == count - 1``,
    and ``inert_seed_evals`` counts distinct relative seeds.
    ``reachable``-policy campaigns score all trials as column vectors
    (vectorized RNG streams), byte-identical in results and counters to
    the scalar trial loop that scores the ``inert`` and walker
    policies.  ``backend`` accepts only ``None`` or ``"numpy"
    (the name of the bit-plane kernel) and changes nothing; any other
    value raises :class:`~repro.errors.ScheduleError`.
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
    compiled: Optional[CompiledSchedule],
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
    if base.dimension != spec.dimension:
        raise ScheduleError(
            f"compiled schedule is d={base.dimension}, spec wants d={spec.dimension}"
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
    if policy in ("walker", "walkers") and base.uses_cloning:
        raise SimulationError(
            "walker policies replay the engine's move order, which is only "
            "modelled for non-cloning schedules"
        )
    if count > 0:
        if tracer is not None:
            with tracer.span("fastpath.timeline", homebase=base.homebase):
                timeline = ScenarioTimeline(base, base.homebase, topo, stats=stats)
        else:
            timeline = ScenarioTimeline(base, base.homebase, topo, stats=stats)
        if count > 1:
            stats.count("timelines_reused", count - 1)
        score = _run_batch_reachable_np if policy == "reachable" else _run_batch_scalar
        score(spec, start, count, timeline, stats, result)
    result.counters = stats.as_dict()
    return result


def _run_batch_scalar(
    spec: BatchScenarioSpec,
    start: int,
    count: int,
    timeline: ScenarioTimeline,
    stats: BatchStats,
    result: BatchResult,
) -> None:
    """Score a shard one trial at a time on the shard's one timeline.
    The ``inert`` and walker policies run here; for ``reachable`` it is
    the reference the vectorized path is tested against."""
    n = timeline.topo.n
    policy = spec.intruder
    moves_total = len(timeline.compiled)
    units = len(timeline.unit_times)
    for sub in _trial_subseeds(spec, start, count):
        trial_rng = random.Random(sub)
        # fixed draw order: homebase, infection seeds, intruder seed,
        # delay seed — documented so scalar twins can reproduce a trial
        home = trial_rng.randrange(n) if spec.rotate_homebase else 0
        seeds: List[int] = []
        if policy == "inert":
            seeds = sorted(_draw_others(trial_rng, n, home, min(spec.seeds_per_trial, n - 1)))
        intruder_seed = trial_rng.getrandbits(64)
        delay_seed = trial_rng.getrandbits(64)
        # the XOR taking this trial's frame onto the timeline's
        rel = home ^ timeline.home

        if policy == "reachable":
            cap_index = timeline.reachable_capture_index()
            caught = cap_index >= 0
            moves_at = timeline.cum_moves[cap_index] if caught else moves_total
        elif policy == "inert":
            indices = [timeline.inert_capture_index(s ^ rel) for s in seeds]
            caught = all(i >= 0 for i in indices)
            cap_index = max(indices) if caught else -1
            moves_at = timeline.cum_moves[cap_index] if caught else moves_total
        else:
            irng = random.Random(intruder_seed)
            if policy == "walker":
                starts = [home ^ (n - 1)]  # the contaminated node farthest
                # from the homebase — the hypercube antipode
                rngs = [irng]
            else:
                starts = _draw_others(irng, n, home, spec.intruder_count)
                rngs = [random.Random(irng.getrandbits(64)) for _ in starts]
            caught, cap_index, moves_at = _run_walkers(timeline, starts, rngs, stats, rel)

        stretches = _stretches(spec, units, random.Random(delay_seed))
        walls, duration = _wall_times(stretches, units)
        result.homebases.append(home)
        result.captured.append(caught)
        result.capture_units.append(timeline.unit_times[cap_index] if caught else -1)
        result.capture_walls.append(walls[cap_index] if caught else -1)
        result.duration_walls.append(duration)
        result.moves_to_capture.append(moves_at)
        stats.count("trials")
        stats.count("captures" if caught else "escapes")


def _run_batch_reachable_np(
    spec: BatchScenarioSpec,
    start: int,
    count: int,
    timeline: ScenarioTimeline,
    stats: BatchStats,
    result: BatchResult,
) -> None:
    """Score a ``reachable``-policy shard as column vectors.

    The omniscient intruder's capture unit is the index at which the
    contaminated region empties, and relabelling the sweep by XOR
    changes neither that index nor the cumulative moves or unit count.
    So the shard's one timeline scores every trial without a per-trial
    frame; what actually varies per trial is the drawn homebase and the
    delay stretches, which :class:`~repro.fastpath.npkernels.
    VectorMT19937` draws for all trials at once, word-for-word on each
    trial's ``random.Random`` sub-stream.
    """
    n = timeline.topo.n
    vmt = VectorMT19937(_trial_subseeds(spec, start, count))
    # fixed draw order per trial sub-stream (see _run_batch_scalar):
    # homebase, intruder seed, delay seed — the intruder seed is drawn to
    # keep the stream aligned even though the reachable policy never uses it
    if spec.rotate_homebase:
        homes = vmt.randbelow(n)
    else:
        homes = np.zeros(count, dtype=np.int64)
    vmt.getrandbits64()
    delay_seeds = vmt.getrandbits64()
    # the seeding state is dead from here: free it before the delay
    # generator allocates its own
    del vmt

    cap_index = timeline.reachable_capture_index()
    caught = cap_index >= 0
    moves_at = timeline.cum_moves[cap_index] if caught else len(timeline.compiled)
    cap_unit = timeline.unit_times[cap_index] if caught else -1
    units = len(timeline.unit_times)

    if spec.delay == "random":
        delay_vmt = VectorMT19937(delay_seeds)
        stretches = delay_vmt.randint_matrix(spec.delay_low, spec.delay_high, units)
        walls = np.cumsum(stretches, axis=1)
        durations = walls[:, -1].tolist() if units else [0] * count
        cap_walls = walls[:, cap_index].tolist() if caught else [-1] * count
    else:
        shared = _stretches(spec, units, random.Random(0))  # rng unused
        wall_list, duration = _wall_times(shared, units)
        durations = [duration] * count
        cap_walls = [wall_list[cap_index]] * count if caught else [-1] * count

    result.homebases.extend(int(h) for h in homes)
    result.captured.extend([caught] * count)
    result.capture_units.extend([cap_unit] * count)
    result.capture_walls.extend(cap_walls)
    result.duration_walls.extend(durations)
    result.moves_to_capture.extend([moves_at] * count)
    stats.count("trials", count)
    stats.count("captures" if caught else "escapes", count)
