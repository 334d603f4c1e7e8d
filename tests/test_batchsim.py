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
are provably captured at different times.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schedule import Move, Schedule
from repro.core.strategy import get_strategy
from repro.errors import ScheduleError, SimulationError
from repro.fastpath.batchsim import (
    INTRUDER_POLICIES,
    BatchResult,
    BatchScenarioSpec,
    BatchStats,
    ScenarioTimeline,
    _draw_others,
    _percentile,
    _run_walkers,
    _stretches,
    _trial_subseeds,
    _wall_times,
    replay_order,
    run_batch,
)
from repro.fastpath.compiled import CompiledSchedule
from repro.sim import replay as replay_mod
from repro.sim.engine import Engine
from repro.sim.scheduling import UnitDelay
from repro.topology.hypercube import Hypercube

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
        timeline = ScenarioTimeline(CompiledSchedule.from_schedule(schedule), homebase, topo)
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
        for name in ("clean", "visibility", "synchronous"):
            schedule = get_strategy(name).run(4)
            topo = Hypercube(4)
            compiled = CompiledSchedule.from_schedule(schedule)
            order = replay_order(compiled)
            rec = EngineRecorder(schedule, topo)
            engine_stream = [(src, dst) for _, src, dst, _, _ in rec.moves]
            batch_stream = [(compiled.srcs[j], compiled.dsts[j]) for j in order]
            assert batch_stream == engine_stream, name

    def test_replay_order_rejects_cloning(self):
        compiled = CompiledSchedule.from_schedule(get_strategy("cloning").run(3))
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
        timeline = ScenarioTimeline(CompiledSchedule.from_schedule(schedule), homebase, topo)

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
        timeline = ScenarioTimeline(CompiledSchedule.from_schedule(schedule), 0, topo)
        rec = EngineRecorder(schedule, topo)
        for seed in range(1, topo.n):
            index = timeline.inert_capture_index(seed)
            batch_unit = timeline.unit_times[index] if index >= 0 else -1
            assert batch_unit == _reference_inert_capture(rec, seed, topo), (name, d, seed)

    def test_two_pocket_schedule_gives_different_capture_times(self):
        timeline = ScenarioTimeline(
            CompiledSchedule.from_schedule(two_pocket_schedule()), 0, Hypercube(3)
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
            CompiledSchedule.from_schedule(get_strategy("clean").run(d)), 0, Hypercube(d)
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
            CompiledSchedule.from_schedule(get_strategy("visibility").run(3)), 0
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
    return CompiledSchedule.from_schedule(get_strategy(name).run(d))


def _relabel(mask, xor):
    """``mask`` as a node set relabelled by the automorphism ``x -> x ^ xor``."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= 1 << ((bit.bit_length() - 1) ^ xor)
        mask ^= bit
    return out


def _trial_draws(spec):
    """Each trial's ``(homebase, infection seeds, intruder seed, delay
    seed)``, re-derived draw by draw from its sub-stream in the documented
    order, with the node lists built out in full."""
    n = 1 << spec.dimension
    master = random.Random(spec.rng_seed)
    for _ in range(spec.trials):
        trial_rng = random.Random(master.getrandbits(64))
        home = trial_rng.randrange(n) if spec.rotate_homebase else 0
        seeds = []
        if spec.intruder == "inert":
            others = [x for x in range(n) if x != home]
            seeds = sorted(trial_rng.sample(others, min(spec.seeds_per_trial, n - 1)))
        yield home, seeds, trial_rng.getrandbits(64), trial_rng.getrandbits(64)


def _per_homebase_reference(spec):
    """The campaign scored one trial at a time on ``ScenarioTimeline(base,
    home)``, one translated timeline per distinct homebase — the design
    the shared homebase-relative timeline replaces."""
    base = _compiled(spec.strategy, spec.dimension)
    n = 1 << spec.dimension
    timelines = {}
    columns = {
        key: []
        for key in (
            "homebases",
            "captured",
            "capture_units",
            "capture_walls",
            "duration_walls",
            "moves_to_capture",
        )
    }
    for home, seeds, intruder_seed, delay_seed in _trial_draws(spec):
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
        units = len(timeline.unit_times)
        walls, duration = _wall_times(_stretches(spec, units, random.Random(delay_seed)), units)
        caught = cap_index >= 0
        columns["homebases"].append(home)
        columns["captured"].append(caught)
        columns["capture_units"].append(timeline.unit_times[cap_index] if caught else -1)
        columns["capture_walls"].append(walls[cap_index] if caught else -1)
        columns["duration_walls"].append(duration)
        columns["moves_to_capture"].append(moves_at)
    return columns


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
        for i, (home, _, intruder_seed, _) in enumerate(_trial_draws(spec)):
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

    @pytest.mark.parametrize(
        "policy, strategy, d",
        [
            ("reachable", "visibility", 4),
            ("reachable", "cloning", 4),
            ("inert", "visibility", 5),
            ("inert", "level-sweep", 4),
            ("inert", "cloning", 4),
            ("walker", "clean", 4),
            ("walkers", "visibility", 5),
            ("walkers", "synchronous", 3),
        ],
    )
    def test_campaign_matches_the_per_homebase_reference(self, policy, strategy, d):
        spec = BatchScenarioSpec(
            dimension=d,
            strategy=strategy,
            trials=40,
            intruder=policy,
            seeds_per_trial=2,
            intruder_count=3 if d > 3 else 9,
            delay="random",
            rotate_homebase=True,
            rng_seed=5 * d + len(strategy),
        )
        result = run_batch(spec)
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
        draws = list(_trial_draws(spec))
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
# trial draws without per-trial Python loops
# --------------------------------------------------------------------- #


class TestTrialDraws:
    @pytest.mark.parametrize("rng_seed", [0, 7, 2005, 2**70 + 3])
    def test_subseed_skip_matches_the_draw_by_draw_stream(self, rng_seed):
        master = random.Random(rng_seed)
        stream = [master.getrandbits(64) for _ in range(100_003)]
        for start in (0, 1, 5, 90_000):
            for count in (0, 1, 3, 10_000):
                spec = BatchScenarioSpec(dimension=3, trials=start + count, rng_seed=rng_seed)
                subseeds = _trial_subseeds(spec, start, count)
                assert subseeds == stream[start : start + count], (start, count)
                assert all(type(s) is int for s in subseeds)

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
    def test_reachable_shard_allocates_under_a_ceiling(self):
        """A 10k-trial reachable shard at d=10 holds two RNG states of
        (624, 10k) words (25 MB each) at most briefly: the seeding state
        is freed before the delay state exists, and the tempered output
        buffers grow only as deep as the draws go."""
        import tracemalloc

        spec = BatchScenarioSpec(
            dimension=10,
            strategy="visibility",
            trials=10_000,
            intruder="reachable",
            delay="random",
            rotate_homebase=True,
            rng_seed=2005,
        )
        run_batch(spec, start=0, count=10)  # compile and cache the schedule first
        tracemalloc.start()
        try:
            result = run_batch(spec, start=0, count=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.count == 10_000
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
