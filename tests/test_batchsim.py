"""The scenario-batch Monte Carlo engine versus its scalar twin.

The batch engine's whole value proposition is that scoring a scenario
against a shared :class:`~repro.fastpath.batchsim.ScenarioTimeline` is
*semantically identical* to running that scenario through
:class:`~repro.sim.engine.Engine` — just thousands of times cheaper.
These tests prove the identity the expensive way: scripted engine
replays with event subscribers recording per-move masks and capture
times, compared move-for-move and unit-for-unit against the batch
path, over randomized (strategy, dimension, homebase, intruder seed)
scenarios.  The inert-fugitive policy is additionally checked against
an independent set-based reference driven by the *engine's* recorded
masks, and against a hand-built two-pocket schedule whose fugitives
are provably captured at different times.  Every trial draw is held to
a pure-Python oracle of the counter-based draw contract.
"""

import copy
import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schedule import Move, Schedule
from repro.core.strategy import get_strategy
from repro.core.chunkstream import chunks_from_schedule, concat_chunks
from repro.errors import ScheduleError, SimulationError
from repro.fastpath import batchsim
from repro.fastpath.batchsim import (
    DELAY_KINDS,
    INTRUDER_POLICIES,
    BatchResult,
    BatchScenarioSpec,
    BatchStats,
    ScenarioTimeline,
    _draw_others,
    _percentile,
    _run_walkers,
    replay_order,
    run_batch,
)
from repro.sim import replay as replay_mod
from repro.sim.contamination import ContaminationMap
from repro.sim.engine import Engine
from repro.sim.scheduling import UnitDelay
from repro.topology.hypercube import Hypercube

from .test_npkernels import DELAY_STRATEGIES, delayed_suffix_schedules

def _whole(schedule):
    """``schedule`` as one whole-schedule chunk."""
    return concat_chunks(chunks_from_schedule(schedule))


FAST = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# the scalar twin: scripted engine replay with an event recorder
# --------------------------------------------------------------------- #


class EngineRecorder:
    """Replay a schedule on the engine, recording the move stream."""

    def __init__(self, schedule, topology, *, intruder="reachable", seed=0, count=2):
        per_agent = {}
        for m in schedule.moves:
            per_agent.setdefault(m.agent, []).append(m)
        for moves in per_agent.values():
            moves.sort(key=lambda m: m.time)
        behaviors = [replay_mod._scripted(mv) for _, mv in sorted(per_agent.items())]
        behaviors += [replay_mod._terminator] * max(
            schedule.team_size - len(per_agent), 0
        )
        self.engine = Engine(
            topology,
            behaviors or [replay_mod._terminator],
            homebase=schedule.homebase,
            delay=UnitDelay(),
            global_clock=True,
            intruder=intruder,
            intruder_seed=seed,
            intruder_count=count,
        )
        self.moves = []  # (time, src, dst, clean_mask, guard_mask)
        self.capture_time = None

        def record(event):
            if event.kind != "move":
                return
            # the timeline's "clean" is the engine's decontaminated
            # (clean-or-guarded) region
            self.moves.append(
                (
                    event.time,
                    event.src,
                    event.node,
                    event.clean_mask | event.guard_mask,
                    event.guard_mask,
                )
            )
            if (
                self.capture_time is None
                and self.engine.intruder is not None
                and self.engine.intruder.captured
            ):
                self.capture_time = event.time

        self.engine.subscribe(record)
        self.result = self.engine.run()

    def per_unit(self):
        """(times, clean_after, guard_after, arrivals) per completed unit."""
        times, cleans, guards, arrivals = [], [], [], []
        for t, _src, dst, clean, guard in self.moves:
            t = int(t)
            if not times or times[-1] != t:
                times.append(t)
                cleans.append(clean)
                guards.append(guard)
                arrivals.append(0)
            else:
                cleans[-1] = clean
                guards[-1] = guard
            arrivals[-1] |= 1 << dst
        return times, cleans, guards, arrivals


STRATEGIES = ["clean", "visibility", "synchronous", "level-sweep"]


# --------------------------------------------------------------------- #
# timeline == engine, move for move and unit for unit
# --------------------------------------------------------------------- #


class TestTimelineVsEngine:
    @pytest.mark.parametrize("name", STRATEGIES)
    @pytest.mark.parametrize("homebase", [0, 3])
    def test_masks_and_completion_match_engine(self, name, homebase):
        d = 4
        schedule = get_strategy(name).run(d).translated(homebase)
        topo = Hypercube(d)
        timeline = ScenarioTimeline(_whole(schedule), homebase, topo)
        rec = EngineRecorder(schedule, topo)
        times, cleans, guards, arrivals = rec.per_unit()

        assert timeline.unit_times == times
        assert timeline.clean_after == cleans
        assert timeline.guard_after == guards
        assert timeline.arrivals == arrivals
        assert timeline.final_clean == cleans[-1]
        assert timeline.final_guard == guards[-1]
        assert not timeline.recontaminated
        # the reachable policy's capture unit is the engine's capture time
        assert rec.result.intruder_captured
        assert timeline.unit_times[timeline.reachable_capture_index()] == rec.capture_time

    def test_replay_order_reproduces_engine_move_stream(self):
        # the walker policies observe after every *engine-order* move —
        # replay_order must reproduce that order exactly, not column order
        for name in STRATEGIES:
            for d in range(3, 9):
                schedule = get_strategy(name).run(d)
                compiled = _whole(schedule)
                order = replay_order(compiled)
                rec = EngineRecorder(schedule, Hypercube(d))
                engine_stream = [(src, dst) for _, src, dst, _, _ in rec.moves]
                batch_stream = [(compiled.srcs[j], compiled.dsts[j]) for j in order]
                assert batch_stream == engine_stream, (name, d)

    def test_replay_order_rejects_cloning(self):
        compiled = _whole(get_strategy("cloning").run(3))
        with pytest.raises(SimulationError):
            replay_order(compiled)

    @given(
        name=st.sampled_from(["clean", "visibility", "synchronous"]),
        d=st.integers(min_value=3, max_value=5),
        homebase=st.integers(min_value=0, max_value=7),
        iseed=st.integers(min_value=0, max_value=2**32 - 1),
        policy=st.sampled_from(["walker", "walkers"]),
        count=st.integers(min_value=1, max_value=3),
    )
    @FAST
    def test_walker_policies_match_engine(self, name, d, homebase, iseed, policy, count):
        schedule = get_strategy(name).run(d).translated(homebase)
        topo = Hypercube(d)
        n = topo.n
        timeline = ScenarioTimeline(_whole(schedule), homebase, topo)

        irng = random.Random(iseed)
        if policy == "walker":
            starts, rngs, engine_count = [homebase ^ (n - 1)], [irng], 2
        else:
            contaminated = [x for x in range(n) if x != homebase]
            starts = irng.sample(contaminated, count)
            rngs = [random.Random(irng.getrandbits(64)) for _ in starts]
            engine_count = count
        caught, cap_index, _moves = _run_walkers(timeline, starts, rngs, None)
        batch_unit = timeline.unit_times[cap_index] if caught else None

        rec = EngineRecorder(
            schedule, topo, intruder=policy, seed=iseed, count=engine_count
        )
        assert caught == rec.result.intruder_captured
        assert batch_unit == rec.capture_time


class TestTimelineVsContaminationMap:
    # the map below deploys the whole team on the homebase up front, so
    # it models the non-cloning strategies only
    @pytest.mark.parametrize("name", [s for s in DELAY_STRATEGIES if s != "cloning"])
    def test_delayed_suffix_masks_match_the_map(self, name):
        """A late agent recontaminates; after every unit the timeline's
        masks must be those of a lenient ContaminationMap fed the same
        columns in column order."""
        recontaminated = 0
        for case, compiled in delayed_suffix_schedules(name):
            header = compiled.header
            timeline = ScenarioTimeline(compiled, header.homebase)
            cmap = ContaminationMap(Hypercube(header.dimension), header.homebase, strict=False)
            for _ in range(max(header.team_size, compiled.stats_so_far.agents_used, 1)):
                cmap.place_agent(header.homebase)
            col = 0
            for unit, time in enumerate(timeline.unit_times):
                while col < len(compiled.times) and compiled.times[col] == time:
                    cmap.move_agent(compiled.srcs[col], compiled.dsts[col])
                    col += 1
                assert timeline.guard_after[unit] == cmap.guard_mask, (case, time)
                assert timeline.clean_after[unit] == cmap.decontaminated_mask, (case, time)
            assert timeline.recontaminated == bool(cmap.recontamination_events), case
            recontaminated += timeline.recontaminated
        assert recontaminated > 0


# --------------------------------------------------------------------- #
# the inert fugitive
# --------------------------------------------------------------------- #


def _reference_inert_capture(recorder, seed, topo):
    """Set-based possible-location evolution over the ENGINE's recorded
    masks — an implementation of arXiv:0802.3512's inert-fugitive rule
    independent of the batch engine's bitset kernels."""
    times, cleans, guards, arrivals = recorder.per_unit()
    nodes = set(range(topo.n))
    possible = {seed}
    for t, clean, guard, arrived in zip(times, cleans, guards, arrivals):
        contam = {v for v in nodes if not clean >> v & 1}
        guarded = {v for v in nodes if guard >> v & 1}
        arrived_at = {v for v in nodes if arrived >> v & 1}
        stay = {
            v for v in possible if v not in arrived_at and v in contam and v not in guarded
        }
        fled = set()
        disturbed = possible & arrived_at
        if disturbed:
            frontier = {
                nb
                for v in disturbed
                for nb in topo.neighbors(v)
                if nb not in guarded
            }
            reached = set()
            queue = list(frontier)
            while queue:
                v = queue.pop()
                if v in reached:
                    continue
                reached.add(v)
                queue.extend(nb for nb in topo.neighbors(v) if nb not in guarded)
            fled = reached & contam
        possible = stay | fled
        if not possible:
            return t
    return -1


def two_pocket_schedule():
    """A hand sweep of H_3 capturing different seeds at different times.

    Pocket {1} is caged first — its neighbours 3 and 5 are cleaned via
    the 2- and 4-routes and kept guarded — so its fugitive is cornered
    and captured at unit 3, while the far pocket {6, 7} stays
    contaminated until units 4-5.
    """
    moves = [
        Move(agent=1, src=0, dst=2, time=1),
        Move(agent=3, src=0, dst=2, time=1),
        Move(agent=2, src=0, dst=4, time=1),
        Move(agent=4, src=0, dst=4, time=1),
        Move(agent=1, src=2, dst=3, time=2),
        Move(agent=2, src=4, dst=5, time=2),
        Move(agent=5, src=0, dst=1, time=3),
        Move(agent=1, src=3, dst=7, time=4),
        Move(agent=4, src=4, dst=6, time=5),
    ]
    return Schedule(dimension=3, strategy="two-pocket", moves=moves, team_size=6)


class TestInertFugitive:
    @pytest.mark.parametrize("name", ["clean", "visibility", "level-sweep"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_setwise_reference_on_engine_masks(self, name, d):
        schedule = get_strategy(name).run(d)
        topo = Hypercube(d)
        timeline = ScenarioTimeline(_whole(schedule), 0, topo)
        rec = EngineRecorder(schedule, topo)
        for seed in range(1, topo.n):
            index = timeline.inert_capture_index(seed)
            batch_unit = timeline.unit_times[index] if index >= 0 else -1
            assert batch_unit == _reference_inert_capture(rec, seed, topo), (name, d, seed)

    def test_two_pocket_schedule_gives_different_capture_times(self):
        timeline = ScenarioTimeline(
            _whole(two_pocket_schedule()), 0, Hypercube(3)
        )
        assert timeline.complete_index >= 0 and not timeline.recontaminated
        unit = lambda s: timeline.unit_times[timeline.inert_capture_index(s)]  # noqa: E731
        assert unit(1) == 3  # cornered in the caged pocket
        assert unit(6) == 5 and unit(7) == 5  # survive until the far pocket dies
        assert unit(1) < unit(6)

    def test_homebase_adjacent_seed_flees_instead_of_dying_with_its_node(self):
        # the regression the batch engine exists to expose: a fugitive
        # seeded next to the homebase is NOT captured when its node is
        # cleaned in the very first unit — it flees through unguarded
        # space and survives until the sweep's last pocket vanishes
        d = 4
        timeline = ScenarioTimeline(
            _whole(get_strategy("clean").run(d)), 0, Hypercube(d)
        )
        seed = 1  # adjacent to homebase 0
        node_cleaned_unit = next(
            t
            for t, clean in zip(timeline.unit_times, timeline.clean_after)
            if clean >> seed & 1
        )
        capture_unit = timeline.unit_times[timeline.inert_capture_index(seed)]
        last_unit = timeline.unit_times[timeline.complete_index]
        assert node_cleaned_unit < capture_unit
        assert capture_unit == last_unit

    def test_seed_validation(self):
        timeline = ScenarioTimeline(
            _whole(get_strategy("visibility").run(3)), 0
        )
        with pytest.raises(SimulationError):
            timeline.inert_capture_index(0)  # the homebase hosts no fugitive
        with pytest.raises(ScheduleError):
            timeline.inert_capture_index(8)


# --------------------------------------------------------------------- #
# campaigns: determinism, sharding, serialization
# --------------------------------------------------------------------- #


class TestCampaigns:
    SPEC = BatchScenarioSpec(
        dimension=4,
        strategy="visibility",
        trials=30,
        intruder="inert",
        seeds_per_trial=2,
        delay="random",
        rotate_homebase=True,
        rng_seed=42,
    )

    def test_sharded_windows_merge_to_the_serial_run(self):
        full = run_batch(self.SPEC)
        parts = [
            run_batch(self.SPEC, start=0, count=11),
            run_batch(self.SPEC, start=11, count=4),
            run_batch(self.SPEC, start=15, count=15),
        ]
        merged = BatchResult.merge(parts)
        for column in (
            "homebases",
            "captured",
            "capture_units",
            "capture_walls",
            "duration_walls",
            "moves_to_capture",
        ):
            assert getattr(merged, column) == getattr(full, column), column
        assert merged.verdict == full.verdict
        assert "missing_trials" not in merged.counters

    def test_merge_accounts_missing_shards(self):
        parts = [
            run_batch(self.SPEC, start=0, count=10),
            run_batch(self.SPEC, start=20, count=10),
        ]
        merged = BatchResult.merge(parts)
        assert merged.count == 20
        assert merged.counters["missing_trials"] == 10

    def test_result_payload_round_trip(self):
        result = run_batch(self.SPEC, start=5, count=7)
        clone = BatchResult.from_payload(result.to_payload())
        assert clone.spec == result.spec
        assert clone.start == result.start
        assert clone.capture_units == result.capture_units
        assert clone.summary() == result.summary()

    def test_batch_cell_task_runs_one_shard(self):
        from repro.exec.jobs import TaskContext, get_task

        payload = {"spec": self.SPEC.to_payload(), "start": 3, "count": 9}
        out = get_task("batch_cell")(payload, TaskContext(key="k", attempt=0))
        shard = BatchResult.from_payload(out)
        direct = run_batch(self.SPEC, start=3, count=9)
        assert shard.capture_units == direct.capture_units
        assert shard.homebases == direct.homebases

    def test_parallel_montecarlo_merges_to_serial(self):
        from repro.exec import ExecutorConfig, montecarlo_jobs, parallel_montecarlo

        jobs = montecarlo_jobs(self.SPEC, 4)
        assert [j.payload["start"] for j in jobs] == [0, 8, 16, 23]
        assert sum(j.payload["count"] for j in jobs) == self.SPEC.trials
        result, outcomes = parallel_montecarlo(
            self.SPEC, ExecutorConfig(jobs=2), shards=4
        )
        assert all(o.ok for o in outcomes)
        serial = run_batch(self.SPEC)
        assert result.capture_units == serial.capture_units
        assert result.captured == serial.captured

    def test_stats_mirror_into_metrics_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stats = BatchStats()
        result = run_batch(
            BatchScenarioSpec(dimension=3, trials=8, intruder="inert", rng_seed=1),
            stats=stats,
            metrics=registry,
        )
        assert result.counters["trials"] == 8
        assert result.counters["captures"] + result.counters["escapes"] == 8
        snapshot = registry.snapshot()["counters"]
        assert snapshot["fastpath.batchsim.trials"] == 8

    def test_delay_models_stretch_walls_but_not_units(self):
        base = BatchScenarioSpec(dimension=4, trials=12, intruder="reachable", rng_seed=7)
        unit = run_batch(base)
        slow = run_batch(
            BatchScenarioSpec(
                dimension=4,
                trials=12,
                intruder="reachable",
                delay="adversarial",
                delay_factor=5,
                rng_seed=7,
            )
        )
        assert unit.capture_units == slow.capture_units
        assert all(s >= u for s, u in zip(slow.capture_walls, unit.capture_walls))
        assert any(s > u for s, u in zip(slow.capture_walls, unit.capture_walls))

    def test_cloning_supports_reachable_but_rejects_walkers(self):
        spec = BatchScenarioSpec(
            dimension=3, strategy="cloning", trials=3, intruder="reachable"
        )
        result = run_batch(spec)
        assert result.capture_rate() == 1.0
        with pytest.raises(SimulationError):
            run_batch(
                BatchScenarioSpec(
                    dimension=3, strategy="cloning", trials=3, intruder="walker"
                )
            )

    def test_spec_validation_and_round_trip(self):
        with pytest.raises(ScheduleError):
            BatchScenarioSpec(dimension=3, trials=-1)
        with pytest.raises(ScheduleError):
            BatchScenarioSpec(dimension=3, intruder="ghost")
        with pytest.raises(ScheduleError):
            BatchScenarioSpec(dimension=3, delay="random", delay_low=3, delay_high=2)
        spec = BatchScenarioSpec(dimension=5, delay="adversarial", rotate_homebase=True)
        assert BatchScenarioSpec.from_payload(spec.to_payload()) == spec
        with pytest.raises(ScheduleError):
            BatchScenarioSpec.from_payload({**spec.to_payload(), "bogus": 1})

    def test_window_validation(self):
        spec = BatchScenarioSpec(dimension=3, trials=5)
        with pytest.raises(ScheduleError):
            run_batch(spec, start=3, count=4)

    def test_spec_payload_requires_this_rng_contract(self):
        payload = self.SPEC.to_payload()
        assert payload["rng"] == batchsim.RNG_CONTRACT
        untagged = {k: v for k, v in payload.items() if k != "rng"}
        with pytest.raises(ScheduleError, match="rng contract"):
            BatchScenarioSpec.from_payload(untagged)
        with pytest.raises(ScheduleError, match="rng contract"):
            BatchScenarioSpec.from_payload({**payload, "rng": "mt19937-substreams"})
        shard = run_batch(self.SPEC, start=0, count=3).to_payload()
        shard["spec"] = untagged
        with pytest.raises(ScheduleError, match="rng contract"):
            BatchResult.from_payload(shard)

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("delay", DELAY_KINDS)
    @pytest.mark.parametrize("policy", INTRUDER_POLICIES)
    def test_any_split_merges_to_the_serial_payload(self, policy, delay, rotate):
        spec = dataclasses.replace(
            self.SPEC, intruder=policy, delay=delay, rotate_homebase=rotate
        )
        base = _compiled(spec.strategy, spec.dimension)
        serial = run_batch(spec, compiled=base).to_payload()
        cuts = random.Random(f"{policy}-{delay}-{rotate}")
        for _ in range(3):
            bounds = sorted({0, spec.trials, *cuts.sample(range(spec.trials + 1), 3)})
            bounds = sorted(bounds + [cuts.choice(bounds)])  # and one empty shard
            parts = [
                run_batch(spec, start=a, count=b - a, compiled=base)
                for a, b in zip(bounds, bounds[1:])
            ]
            merged = BatchResult.merge(parts).to_payload()
            assert {**merged, "counters": {}} == {**serial, "counters": {}}, bounds

    @pytest.mark.parametrize("policy", INTRUDER_POLICIES)
    def test_empty_window_gives_an_empty_result(self, policy):
        spec = dataclasses.replace(self.SPEC, intruder=policy)
        result = run_batch(spec, start=17, count=0)
        assert result.count == 0 and result.counters["trials"] == 0
        assert all(getattr(result, column) == [] for column in COLUMNS)
        # the shard scorer itself takes zero rows, not only run_batch's guard
        timeline = ScenarioTimeline(_compiled(spec.strategy, spec.dimension))
        stats = BatchStats()
        empty = BatchResult(spec=spec, start=17)
        batchsim._score_shard(spec, 17, 0, timeline, stats, empty)
        assert all(getattr(empty, column) == [] for column in COLUMNS)
        assert stats.trials == stats.captures == stats.escapes == 0

    def test_percentiles_are_nearest_rank(self):
        values = list(range(1, 101))
        assert _percentile(values, 50) == 50
        assert _percentile(values, 99) == 99
        assert _percentile([7], 90) == 7


# --------------------------------------------------------------------- #
# one timeline per shard: homebase-relative frames
# --------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _compiled(name, d):
    return _whole(get_strategy(name).run(d))


def _relabel(mask, xor):
    """``mask`` as a node set relabelled by the automorphism ``x -> x ^ xor``."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= 1 << ((bit.bit_length() - 1) ^ xor)
        mask ^= bit
    return out


# --------------------------------------------------------------------- #
# the draw contract's oracle (batchsim module docstring, "Determinism")
# --------------------------------------------------------------------- #

M64, GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & M64
    return z ^ (z >> 31)


def oracle_trial(spec, t, units):
    """Trial ``t``'s homebase, sorted inert seeds, intruder seed and
    random-delay stretches, word by word from the written contract."""
    acc, mag = int(spec.rng_seed < 0), abs(spec.rng_seed)
    while True:  # fold the seed, one 64-bit limb at a time
        acc, mag = mix((acc + GAMMA & M64) ^ (mag & M64)), mag >> 64
        if not mag:
            break
    key = mix(acc ^ mix(t))
    word = lambda j: mix(key + (j + 1) * GAMMA & M64)  # noqa: E731
    d, n = spec.dimension, 1 << spec.dimension
    home = word(0) >> (64 - d) if spec.rotate_homebase else 0
    k = min(spec.seeds_per_trial, n - 1) if spec.intruder == "inert" else 0
    picks = []
    for i, j in enumerate(range(n - 1 - k, n - 1)):  # Floyd's algorithm
        x = word(2 + i) % (j + 1)
        picks.append(j if x in picks else x)
    r = spec.delay_high - spec.delay_low + 1
    stretches = [spec.delay_low + word(2 + k + u) % r for u in range(units)]
    return home, sorted(x + (x >= home) for x in picks), word(1), stretches


def _units(spec):
    return len(set(_compiled(spec.strategy, spec.dimension).times))


def _oracle_draws(spec, start=0, count=None):
    """``(homebase, inert seeds, intruder seed, stretches)`` per trial of
    the window, the stretches of whichever delay model the spec names."""
    units = _units(spec)
    count = spec.trials - start if count is None else count
    for t in range(start, start + count):
        home, seeds, intruder_seed, stretches = oracle_trial(spec, t, units)
        if spec.delay == "unit":
            stretches = [1] * units
        elif spec.delay == "adversarial":
            stretches = [
                spec.delay_factor if u % spec.delay_period == 0 else 1
                for u in range(1, units + 1)
            ]
        yield home, seeds, intruder_seed, stretches


COLUMNS = (
    "homebases",
    "captured",
    "capture_units",
    "capture_walls",
    "duration_walls",
    "moves_to_capture",
)


def _per_homebase_reference(spec, start=0, count=None):
    """Trials ``[start, start+count)`` of the campaign scored one trial at
    a time on ``ScenarioTimeline(base, home)``, one translated timeline
    per distinct homebase, with every draw from the oracle — the design
    the shared homebase-relative timeline and the column draws replace."""
    base = _compiled(spec.strategy, spec.dimension)
    n = 1 << spec.dimension
    timelines = {}
    columns = {key: [] for key in COLUMNS}
    for home, seeds, intruder_seed, stretches in _oracle_draws(spec, start, count):
        if home not in timelines:
            timelines[home] = ScenarioTimeline(base, home)
        timeline = timelines[home]
        if spec.intruder == "reachable":
            cap_index = timeline.complete_index
            moves_at = timeline.cum_moves[cap_index] if cap_index >= 0 else len(base)
        elif spec.intruder == "inert":
            indices = [timeline.inert_capture_index(s) for s in seeds]
            cap_index = max(indices) if min(indices) >= 0 else -1
            moves_at = timeline.cum_moves[cap_index] if cap_index >= 0 else len(base)
        else:
            irng = random.Random(intruder_seed)
            if spec.intruder == "walker":
                starts, rngs = [home ^ (n - 1)], [irng]
            else:
                others = [x for x in range(n) if x != home]
                k = spec.intruder_count
                if k <= len(others):
                    starts = irng.sample(others, k)
                else:
                    starts = [irng.choice(others) for _ in range(k)]
                rngs = [random.Random(irng.getrandbits(64)) for _ in starts]
            caught, cap_index, moves_at = _run_walkers(timeline, starts, rngs, None)
            cap_index = cap_index if caught else -1
        caught = cap_index >= 0
        columns["homebases"].append(home)
        columns["captured"].append(caught)
        columns["capture_units"].append(timeline.unit_times[cap_index] if caught else -1)
        columns["capture_walls"].append(sum(stretches[: cap_index + 1]) if caught else -1)
        columns["duration_walls"].append(sum(stretches))
        columns["moves_to_capture"].append(moves_at)
    return columns


#: trial windows a campaign is scored in: whole, or two shards around an
#: empty one
WINDOWS = {
    "serial": lambda trials: [(0, trials)],
    "split": lambda trials: [(0, 13), (13, 0), (13, trials - 13)],
}


class TestHomebaseRelativeFrames:
    @given(
        name=st.sampled_from(STRATEGIES + ["cloning"]),
        d=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @FAST
    def test_translation_law_for_masks_and_inert_fugitive(self, name, d, data):
        n = 1 << d
        h = data.draw(st.integers(min_value=0, max_value=n - 1), label="homebase")
        seed = data.draw(
            st.integers(min_value=0, max_value=n - 1).filter(lambda s: s != h), label="seed"
        )
        base = _compiled(name, d)
        at_0 = ScenarioTimeline(base, 0)
        at_h = ScenarioTimeline(base, h)
        assert at_h.unit_times == at_0.unit_times
        assert at_h.cum_moves == at_0.cum_moves
        assert at_h.guard_after == [_relabel(m, h) for m in at_0.guard_after]
        assert at_h.clean_after == [_relabel(m, h) for m in at_0.clean_after]
        assert at_h.arrivals == [_relabel(m, h) for m in at_0.arrivals]
        assert at_h.inert_capture_index(seed) == at_0.inert_capture_index(seed ^ h)

    @given(
        name=st.sampled_from(STRATEGIES),
        d=st.integers(min_value=1, max_value=6),
        policy=st.sampled_from(["walker", "walkers"]),
        count=st.integers(min_value=1, max_value=4),
        iseed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @FAST
    def test_translation_law_for_walker_packs(self, name, d, policy, count, iseed, data):
        n = 1 << d
        h = data.draw(st.integers(min_value=0, max_value=n - 1), label="homebase")
        base = _compiled(name, d)
        shared = ScenarioTimeline(base, 0)
        at_h = ScenarioTimeline(base, h)
        if policy == "walker":
            starts = [h ^ (n - 1)]
        else:
            others = [x for x in range(n) if x != h]
            starts = random.Random(iseed).sample(others, min(count, n - 1))

        def score(timeline, rel):
            stats = BatchStats()
            rngs = [random.Random(iseed + i) for i in range(len(starts))]
            outcome = _run_walkers(timeline, starts, rngs, stats, rel)
            return outcome, stats.walker_observations

        assert score(shared, h) == score(at_h, 0)

    @pytest.mark.parametrize("policy", ["walker", "walkers"])
    @pytest.mark.parametrize("d", [4, 5])
    def test_rotated_walker_campaigns_match_the_engine(self, policy, d):
        spec = BatchScenarioSpec(
            dimension=d,
            strategy="visibility",
            trials=10,
            intruder=policy,
            intruder_count=3,
            delay="random",
            rotate_homebase=True,
            rng_seed=97 + d,
        )
        result = run_batch(spec)
        schedule = get_strategy(spec.strategy).run(d)
        topo = Hypercube(d)
        assert any(home != 0 for home in result.homebases)
        for i, (home, _, intruder_seed, _) in enumerate(_oracle_draws(spec)):
            assert result.homebases[i] == home
            rec = EngineRecorder(
                schedule.translated(home),
                topo,
                intruder=policy,
                seed=intruder_seed,
                count=spec.intruder_count,
            )
            assert result.captured[i] == rec.result.intruder_captured, i
            expected = rec.capture_time if rec.result.intruder_captured else -1
            assert result.capture_units[i] == expected, i

    @pytest.mark.parametrize("windows", sorted(WINDOWS))
    @pytest.mark.parametrize(
        "policy, strategy, d, delay, rotate",
        [
            ("reachable", "visibility", 4, "random", True),
            ("reachable", "cloning", 4, "random", True),
            ("reachable", "visibility", 6, "unit", False),
            ("reachable", "visibility", 6, "unit", True),
            ("reachable", "visibility", 6, "random", False),
            ("reachable", "visibility", 6, "adversarial", False),
            ("reachable", "visibility", 6, "adversarial", True),
            ("reachable", "clean", 6, "random", True),
            ("inert", "visibility", 5, "random", True),
            ("inert", "level-sweep", 4, "random", True),
            ("inert", "cloning", 4, "random", True),
            ("inert", "clean", 4, "adversarial", False),
            ("walker", "clean", 4, "random", True),
            ("walker", "visibility", 5, "unit", False),
            ("walkers", "visibility", 5, "random", True),
            ("walkers", "synchronous", 3, "random", True),
        ],
    )
    def test_campaign_matches_the_per_homebase_reference(
        self, policy, strategy, d, delay, rotate, windows
    ):
        spec = BatchScenarioSpec(
            dimension=d,
            strategy=strategy,
            trials=40,
            intruder=policy,
            seeds_per_trial=2,
            intruder_count=3 if d > 3 else 9,
            delay=delay,
            rotate_homebase=rotate,
            rng_seed=5 * d + len(strategy),
        )
        base = _compiled(strategy, d)
        result = BatchResult.merge(
            [
                run_batch(spec, start=start, count=count, compiled=base)
                for start, count in WINDOWS[windows](spec.trials)
            ]
        )
        for column, values in _per_homebase_reference(spec).items():
            assert getattr(result, column) == values, column

    @pytest.mark.parametrize("policy", INTRUDER_POLICIES)
    def test_one_timeline_per_shard(self, policy):
        spec = BatchScenarioSpec(
            dimension=5,
            trials=40,
            intruder=policy,
            seeds_per_trial=2,
            delay="random",
            rotate_homebase=True,
            rng_seed=3,
        )
        draws = list(_oracle_draws(spec))
        for start, count in ((0, 40), (7, 19), (39, 1)):
            counters = run_batch(spec, start=start, count=count).counters
            assert counters["timelines_built"] == 1
            assert counters["timelines_reused"] == count - 1
            window = draws[start : start + count]
            lookups = sum(len(seeds) for _, seeds, _, _ in window)
            assert lookups == (count * spec.seeds_per_trial if policy == "inert" else 0)
            assert counters["inert_seed_evals"] + counters["inert_seed_cached"] == lookups
            relative = {s ^ home for home, seeds, _, _ in window for s in seeds}
            assert counters["inert_seed_evals"] == len(relative)
        empty = run_batch(spec, start=40, count=0).counters
        assert empty["timelines_built"] == empty["timelines_reused"] == 0


# --------------------------------------------------------------------- #
# counter-based trial draws
# --------------------------------------------------------------------- #

#: chi-square 0.999 quantiles by degrees of freedom (scipy.stats.chi2.ppf),
#: the threshold fixed before these tests first ran
CHI2_999 = {2: 13.816, 62: 102.166, 63: 103.442}


def _chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


class TestTrialDraws:
    @pytest.mark.parametrize("rng_seed", [0, 7, 2005, -1, 2**70 + 3])
    def test_run_batch_draws_equal_the_oracle(self, rng_seed):
        """Homebases, wall times, inert seeds and intruder seeds of every
        window are the oracle's, trial for trial."""
        for start, count in ((0, 0), (0, 1), (5, 3), (90_000, 10_000)):
            inert = BatchScenarioSpec(
                dimension=4,
                trials=start + count,
                intruder="inert",
                seeds_per_trial=3,
                delay="random",
                rotate_homebase=True,
                rng_seed=rng_seed,
            )
            asked = []
            lookup = ScenarioTimeline.inert_capture_index

            def spy_inert(timeline, seed):
                asked.append(seed)
                return lookup(timeline, seed)

            with mock.patch.object(ScenarioTimeline, "inert_capture_index", spy_inert):
                result = run_batch(inert, start=start, count=count)
            timeline = ScenarioTimeline(_compiled("visibility", 4))
            expected = list(_oracle_draws(inert, start, count))
            assert result.homebases == [home for home, _, _, _ in expected]
            assert result.duration_walls == [sum(st) for _, _, _, st in expected]
            caps = [timeline.unit_times.index(u) for u in result.capture_units]
            assert result.capture_walls == [
                sum(st[: cap + 1]) for cap, (_, _, _, st) in zip(caps, expected)
            ]
            asked_rows = [asked[3 * i : 3 * i + 3] for i in range(count)]
            assert [
                sorted(s ^ home for s in row)
                for row, home in zip(asked_rows, result.homebases)
            ] == [seeds for _, seeds, _, _ in expected]

            walker = dataclasses.replace(inert, dimension=3, intruder="walker")
            streams = []
            drive = batchsim._run_walkers

            def spy_walkers(timeline, starts, rngs, stats, rel=0):
                streams.append(copy.copy(rngs[0]).getrandbits(64))
                return drive(timeline, starts, rngs, stats, rel)

            with mock.patch.object(batchsim, "_run_walkers", spy_walkers):
                run_batch(walker, start=start, count=count)
            assert streams == [
                random.Random(seed).getrandbits(64)
                for _, _, seed, _ in _oracle_draws(walker, start, count)
            ]

    def test_seed_fold_keeps_sign_and_width(self):
        spec = BatchScenarioSpec(dimension=8, trials=64, rotate_homebase=True)
        homes = {
            seed: run_batch(dataclasses.replace(spec, rng_seed=seed)).homebases
            for seed in (1, -1, 3, 2**70 + 3, 2**64 + 3)
        }
        assert len({tuple(h) for h in homes.values()}) == len(homes)

    def test_homebases_are_uniform(self):
        spec = BatchScenarioSpec(
            dimension=6, trials=100_000, intruder="reachable", rotate_homebase=True,
            rng_seed=2005,
        )
        homes = run_batch(spec).homebases
        counts = [homes.count(h) for h in range(64)]
        assert _chi_square(counts, len(homes) / 64) < CHI2_999[63]

    def test_stretches_are_uniform(self):
        # H_1's sweep is one unit, so each duration is one trial's stretch
        spec = BatchScenarioSpec(
            dimension=1, trials=100_000, intruder="reachable", delay="random",
            delay_low=1, delay_high=3, rng_seed=2005,
        )
        walls = run_batch(spec).duration_walls
        counts = [walls.count(v) for v in (1, 2, 3)]
        assert sum(counts) == len(walls)
        assert _chi_square(counts, len(walls) / 3) < CHI2_999[2]

    def test_inert_seeds_are_distinct_uniform_non_homebase_nodes(self):
        spec = BatchScenarioSpec(
            dimension=6, trials=20_000, intruder="inert", seeds_per_trial=5,
            rotate_homebase=True, rng_seed=2005,
        )
        words = batchsim._TrialWords(spec.rng_seed, 0, spec.trials)
        homes = batchsim._homebases(spec, words)
        seeds = batchsim._inert_seeds(spec, words, homes)
        relative = (seeds ^ homes[:, None]).tolist()
        assert all(len(set(row)) == 5 and 0 not in row for row in relative)
        flat = [s for row in relative for s in row]
        counts = [flat.count(s) for s in range(1, 64)]
        assert _chi_square(counts, len(flat) / 63) < CHI2_999[62]

    @pytest.mark.parametrize("d", range(1, 7))
    def test_draw_others_matches_the_list_based_draw(self, d):
        # sample() has a pool branch (small n) and a set branch, and k
        # above n - 1 takes repeated choice(): all three are exercised
        n = 1 << d
        for home in sorted({0, 1, n // 2, n - 1}):
            others = [x for x in range(n) if x != home]
            for k in sorted({1, 2, 3, 6, n - 1, n, n + 3}):
                for seed in range(4):
                    reference, rng = random.Random(seed), random.Random(seed)
                    if k <= n - 1:
                        expected = reference.sample(others, k)
                    else:
                        expected = [reference.choice(others) for _ in range(k)]
                    assert _draw_others(rng, n, home, k) == expected, (home, k, seed)
                    assert rng.getstate() == reference.getstate()


class TestShardMemory:
    @staticmethod
    def _peak(spec):
        import tracemalloc

        run_batch(spec, start=0, count=10)  # compile and cache the schedule first
        tracemalloc.start()
        try:
            result = run_batch(spec, start=0, count=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.count == 10_000
        return peak

    def test_reachable_shard_allocates_under_a_ceiling(self):
        """A 10k-trial reachable shard at d=10 draws a few words per
        trial, never a generator state per trial."""
        spec = BatchScenarioSpec(
            dimension=10,
            strategy="visibility",
            trials=10_000,
            intruder="reachable",
            delay="random",
            rotate_homebase=True,
            rng_seed=2005,
        )
        peak = self._peak(spec)
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_long_random_delay_shard_folds_its_walls_in_blocks(self):
        """CLEAN d=8 lasts 1,199 units: 10k trials' stretches would be a
        96 MB matrix, so the walls are folded a block of units at a time."""
        spec = BatchScenarioSpec(
            dimension=8,
            strategy="clean",
            trials=10_000,
            intruder="reachable",
            delay="random",
            rotate_homebase=True,
            rng_seed=2005,
        )
        peak = self._peak(spec)
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
