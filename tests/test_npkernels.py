"""Parity tests for the bit-plane kernels against their references.

The kernels' one contract is *byte-identity* with the per-move
reference paths they replace on the hot path: same verdicts, same error
indices and messages, same batch statistics.  Three layers of evidence:

* **plane primitives** — pack/shift/spread/popcount/connect against
  brute-force set arithmetic on node lists;
* **verifier parity** — ``batch_verify``/``batch_verify_chunks`` against
  a ``_ReplayState`` fed the same columns, on clean and deliberately
  corrupted schedules, monolithic and chunked at randomized chunk sizes,
  all strategies up to d=9: reports compare equal field-for-field.  A
  deterministic sweep of the *delayed suffix* fault (one agent's moves
  from one row on, late by k units) recontaminates often enough to pin
  the departure rule and, on cloning, the clean-ground check for clones;
  an exhaustive sweep of the eight point faults at every row pins the
  agent chains, and a stream whose header team is too small pins the
  occupancy floor;
* **declined blocks** — the kernel hands no block of a valid schedule to
  the reference replay (up to d=14), and at least one block of every
  schedule it reports non-monotone or disconnected;
* **batch-engine parity** — ``run_batch``'s one column pass per shard
  against the campaign scored one trial at a time (the per-homebase
  reference loop of ``tests/test_batchsim.py``, every draw from its
  pure-Python oracle of the draw contract, and the reference replay's
  verdict): payloads and summaries of every policy, shard for shard and
  merged against merged.  Only the work counters are left out, since
  they count what the column pass reuses (``test_one_timeline_per_shard``
  pins them).
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fastpath.npkernels as npk
from repro.analysis.sweeps import measure_cell
from repro.analysis.verify import verify_schedule
from repro.core.chunkstream import ScheduleChunk, chunks_from_schedule, concat_chunks, rechunk
from repro.core.strategy import available_strategies, get_strategy
from repro.errors import ReproError, ScheduleError
from repro.exec import parallel_sweep
from repro.fastpath import batch_verify, batch_verify_chunks, batchsim
from repro.fastpath.batchsim import BatchResult, BatchScenarioSpec, run_batch
from repro.fastpath.batchverify import _ReplayState
from repro.obs.trace import Tracer
from repro.topology.hypercube import Hypercube

ALL_STRATEGIES = sorted(available_strategies())

QUICK = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_COMPILED_CACHE = {}


def compiled_for(name: str, d: int) -> ScheduleChunk:
    """Memoized whole schedules so hypothesis reruns don't regenerate."""
    key = (name, d)
    if key not in _COMPILED_CACHE:
        _COMPILED_CACHE[key] = concat_chunks(
            chunks_from_schedule(get_strategy(name).generate(Hypercube(d)))
        )
    return _COMPILED_CACHE[key]


def with_team(whole: ScheduleChunk, team: int) -> ScheduleChunk:
    """``whole`` with its header declaring a team of ``team``."""
    return dataclasses.replace(whole, header=dataclasses.replace(whole.header, team_size=team))


def replay_verify(compiled: ScheduleChunk):
    """The reference verdict: a ``_ReplayState`` fed the whole columns."""
    header, stats = compiled.header, compiled.stats_so_far
    state = _ReplayState(
        header.dimension,
        header.strategy,
        header.homebase,
        header.uses_cloning,
        max(header.team_size, stats.agents_used, 1),
        Hypercube(header.dimension),
    )
    state.feed(
        compiled.times.tolist(),
        compiled.agents.tolist(),
        compiled.srcs.tolist(),
        compiled.dsts.tolist(),
    )
    return state.finish(
        header.team_size, stats.agents_used, stats.total_moves, stats.makespan
    )


def replay_verify_chunks(chunks):
    """The reference streaming verdict: a ``_ReplayState`` fed each chunk."""
    state = last = None
    for chunk in chunks:
        if state is None:
            header = chunk.header
            state = _ReplayState(
                header.dimension,
                header.strategy,
                header.homebase,
                header.uses_cloning,
                max(header.team_size, 1),
                Hypercube(header.dimension),
            )
        state.feed(
            chunk.times.tolist(),
            chunk.agents.tolist(),
            chunk.srcs.tolist(),
            chunk.dsts.tolist(),
        )
        if chunk.is_last:
            last = chunk
    stats = last.stats_so_far
    return state.finish(
        last.header.team_size, stats.agents_used, stats.total_moves, stats.makespan
    )


def _spec(**overrides) -> BatchScenarioSpec:
    base = dict(
        dimension=6,
        strategy="visibility",
        trials=200,
        intruder="reachable",
        delay="random",
        rotate_homebase=True,
        rng_seed=2005,
    )
    base.update(overrides)
    return BatchScenarioSpec(**base)


# --------------------------------------------------------------------- #
# the surviving ``backend=`` argument
# --------------------------------------------------------------------- #


class TestBackendArgument:
    def test_numpy_and_none_select_the_same_kernel(self):
        spec = _spec(trials=40)
        assert run_batch(spec, backend="numpy").to_payload() == run_batch(spec).to_payload()
        assert measure_cell("clean", 5, backend="numpy")[0] == measure_cell("clean", 5)[0]

    @pytest.mark.parametrize("bad", ["pure", "auto", "cuda"])
    def test_unknown_backend_raises(self, bad, tmp_path):
        with pytest.raises(ScheduleError, match="unknown kernel backend"):
            run_batch(_spec(trials=4), backend=bad)
        with pytest.raises(ScheduleError, match="unknown kernel backend"):
            measure_cell("clean", 3, backend=bad)
        with pytest.raises(ScheduleError, match="unknown kernel backend"):
            parallel_sweep(["clean"], [3], cache_dir=tmp_path, backend=bad)


# --------------------------------------------------------------------- #
# packed bit-plane primitives vs. brute-force set arithmetic
# --------------------------------------------------------------------- #


node_sets = st.integers(min_value=2, max_value=8).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.integers(min_value=0, max_value=(1 << d) - 1),
            unique=True,
            max_size=1 << d,
        ),
    )
)


class TestPlanePrimitives:
    @QUICK
    @given(case=node_sets)
    def test_pack_unpack_roundtrip(self, case):
        d, nodes = case
        n = 1 << d
        plane = npk.pack_nodes(np.array(nodes, dtype=np.int64), n)
        dense = npk.unpack_plane(plane, n)
        assert sorted(np.nonzero(dense)[0].tolist()) == sorted(nodes)
        assert npk.plane_popcount(plane) == len(nodes)

    @QUICK
    @given(case=node_sets, p=st.integers(min_value=0, max_value=7))
    def test_shift_dim_is_xor_by_single_bit(self, case, p):
        d, nodes = case
        if p >= d:
            p %= d
        n = 1 << d
        plane = npk.pack_nodes(np.array(nodes, dtype=np.int64), n)
        shifted = npk.plane_shift_dim(plane, p)
        expected = sorted(v ^ (1 << p) for v in nodes)
        assert sorted(np.nonzero(npk.unpack_plane(shifted, n))[0].tolist()) == expected

    @QUICK
    @given(case=node_sets)
    def test_spread_is_neighbourhood_union(self, case):
        d, nodes = case
        n = 1 << d
        plane = npk.pack_nodes(np.array(nodes, dtype=np.int64), n)
        spread = npk.plane_spread(plane, d)
        expected = sorted({v ^ (1 << p) for v in nodes for p in range(d)})
        assert sorted(np.nonzero(npk.unpack_plane(spread, n))[0].tolist()) == expected

    @QUICK
    @given(case=node_sets, start=st.integers(min_value=0, max_value=255))
    def test_connected_matches_bfs(self, case, start):
        d, nodes = case
        n = 1 << d
        start &= n - 1
        plane = npk.pack_nodes(np.array(nodes, dtype=np.int64), n)
        expected = True
        if nodes:
            seen = {nodes[0]}
            frontier = [nodes[0]]
            members = set(nodes)
            while frontier:
                frontier = [
                    w
                    for v in frontier
                    for p in range(d)
                    if (w := v ^ (1 << p)) in members and w not in seen
                    and not seen.add(w)
                ]
            expected = seen == members
        assert npk.plane_connected(plane, d, start) == expected


# --------------------------------------------------------------------- #
# verifier parity: verdicts, error indices, error messages
# --------------------------------------------------------------------- #


def _outcome(fn):
    """A report, or the error a malformed schedule raises instead."""
    try:
        return ("report", fn())
    except ReproError as exc:
        return ("raise", type(exc).__name__, str(exc))


def _rebuilt(base: ScheduleChunk, edit) -> ScheduleChunk:
    """``base`` with all six columns passed through ``edit`` (one list of
    rows -> another) and the aggregate block re-derived to match."""
    names = ("times", "agents", "srcs", "dsts", "kinds", "roles")
    rows = edit(list(zip(*(getattr(base, name) for name in names))))
    columns = {
        name: type(getattr(base, name))("q", (row[i] for row in rows))
        for i, name in enumerate(names)
    }
    stats = dataclasses.replace(
        base.stats_so_far,
        total_moves=len(rows),
        makespan=max((row[0] for row in rows), default=0),
        agents_used=len({row[1] for row in rows}),
    )
    return dataclasses.replace(base, stats_so_far=stats, **columns)


def _inject(base: ScheduleChunk, mode: str, idx: int) -> ScheduleChunk:
    """One fault at row ``idx``, applied to every column consistently."""
    n = 1 << base.header.dimension

    def row_edit(fn):
        return lambda rows: rows[:idx] + fn(rows[idx], rows[idx + 1 :])

    edits = {
        "teleport": row_edit(lambda r, rest: [(*r[:3], (r[3] + 3) % n, *r[4:])] + rest),
        "time_warp": row_edit(lambda r, rest: [(r[0] + 50, *r[1:])] + rest),
        "self_loop": row_edit(lambda r, rest: [(*r[:3], r[2], *r[4:])] + rest),
        "drop": row_edit(lambda r, rest: rest),
        "duplicate": row_edit(lambda r, rest: [r, r] + rest),
        "swap": row_edit(lambda r, rest: rest[:1] + [r] + rest[1:]),
        "early": row_edit(lambda r, rest: [(r[0] - 1, *r[1:])] + rest),
        "agent_bump": row_edit(lambda r, rest: [(r[0], r[1] + 1, *r[2:])] + rest),
    }
    return _rebuilt(base, edits[mode])


FAULT_MODES = [
    "teleport", "time_warp", "self_loop", "drop", "duplicate", "swap", "early", "agent_bump",
]

#: dimensions of the exhaustive point-fault sweep
FAULT_DIMENSIONS = range(2, 5)

#: strategies, dimensions and lags of the delayed-suffix sweep
DELAY_STRATEGIES = ["clean", "visibility", "synchronous", "cloning"]
DELAY_DIMENSIONS = range(2, 6)
DELAY_LAGS = (1, 2, 4)


def delayed_suffix(base: ScheduleChunk, idx: int, lag: int) -> ScheduleChunk:
    """The agent of row ``idx`` runs ``lag`` units late from that row on:
    its moves there and after are shifted, and the rows stably re-sorted
    by time.  Unlike the eight point faults, this often vacates a node
    while a neighbour is still contaminated."""

    def edit(rows):
        agent = rows[idx][1]
        late = [
            (row[0] + lag, *row[1:]) if j >= idx and row[1] == agent else row
            for j, row in enumerate(rows)
        ]
        return sorted(late, key=lambda row: row[0])

    return _rebuilt(base, edit)


def delayed_suffix_schedules(name: str):
    """Every delayed-suffix injection of one strategy, d=2..5."""
    for d in DELAY_DIMENSIONS:
        base = compiled_for(name, d)
        for idx in range(len(base.times)):
            for lag in DELAY_LAGS:
                yield (d, idx, lag), delayed_suffix(base, idx, lag)


def fault_schedules(name: str):
    """Every point fault of one strategy at every row, d=2..4."""
    for d in FAULT_DIMENSIONS:
        base = compiled_for(name, d)
        for idx in range(len(base.times) - 1):
            for mode in FAULT_MODES:
                yield (d, idx, mode), _inject(base, mode, idx)


def _failing_report_declined(outcome) -> bool:
    """A non-monotone or disconnected report must come from the
    reference replay: the kernel settles neither."""
    if outcome[0] != "report" or (outcome[1].monotone and outcome[1].contiguous):
        return True
    return outcome[1].declined >= 1


class TestVerifierParity:
    @QUICK
    @given(
        name=st.sampled_from(ALL_STRATEGIES),
        d=st.integers(min_value=0, max_value=9),
        chunk_moves=st.integers(min_value=1, max_value=5000),
    )
    def test_clean_schedules_all_strategies_d_le_9(self, name, d, chunk_moves):
        compiled = compiled_for(name, d)
        reference = replay_verify(compiled)
        assert batch_verify(compiled) == reference
        assert batch_verify_chunks(rechunk((compiled,), chunk_moves)) == reference
        assert reference.ok

    @QUICK
    @given(
        name=st.sampled_from(ALL_STRATEGIES),
        d=st.integers(min_value=2, max_value=6),
        mode=st.sampled_from(FAULT_MODES),
        data=st.data(),
    )
    def test_corrupted_schedules_same_errors(self, name, d, mode, data):
        """Inject a fault and demand the reference's outcome — a failing
        report field-for-field, or the same error class and text
        (malformed streams raise rather than report)."""
        base = compiled_for(name, d)
        total = len(base.times)
        idx = data.draw(st.integers(min_value=0, max_value=total - 2))
        compiled = _inject(base, mode, idx)
        assert _outcome(lambda: batch_verify(compiled)) == _outcome(
            lambda: replay_verify(compiled)
        )
        # the chunk stream may itself reject a time-order fault before the
        # verifier sees it ("chunk stream goes back in time"), so the
        # chunked reference is the replay fed the same chunks
        chunk_moves = data.draw(st.integers(min_value=1, max_value=total + 1))
        assert _outcome(
            lambda: batch_verify_chunks(rechunk((compiled,), chunk_moves))
        ) == _outcome(lambda: replay_verify_chunks(rechunk((compiled,), chunk_moves)))

    @pytest.mark.parametrize("name", DELAY_STRATEGIES)
    def test_delayed_suffix_every_row(self, name):
        """Every row, every lag: the kernel's departure rule must judge a
        late agent exactly as the reference does, monolithic and chunked."""
        recontaminated = 0
        for case, compiled in delayed_suffix_schedules(name):
            reference = _outcome(lambda: replay_verify(compiled))
            assert _outcome(lambda: batch_verify(compiled)) == reference, case
            assert _outcome(
                lambda: batch_verify_chunks(rechunk((compiled,), 7))
            ) == _outcome(lambda: replay_verify_chunks(rechunk((compiled,), 7))), case
            recontaminated += reference[0] == "report" and not reference[1].monotone
        assert recontaminated > 0

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_every_fault_at_every_row(self, name):
        """The eight point faults at every row of every strategy, d=2..4,
        monolithic and chunked: the kernel's outcome is the reference's,
        and every failing report was reached through a declined block."""
        for case, compiled in fault_schedules(name):
            reference = _outcome(lambda: replay_verify(compiled))
            fast = _outcome(lambda: batch_verify(compiled))
            assert fast == reference, case
            chunked = _outcome(lambda: batch_verify_chunks(rechunk((compiled,), 7)))
            assert chunked == _outcome(
                lambda: replay_verify_chunks(rechunk((compiled,), 7))
            ), case
            assert _failing_report_declined(fast), case
            assert _failing_report_declined(chunked), case

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_header_team_too_small(self, name):
        """A stream header that declares fewer agents than leave the
        homebase: the kernel's occupancy floor must decline the block
        where the homebase runs out, so the reference raises."""
        cases = 0
        for d in range(2, 6):
            base = compiled_for(name, d)
            for team in range(1, base.header.team_size):
                short = with_team(base, team)
                for chunk_moves in (1, 7, len(base.times)):
                    fast = _outcome(
                        lambda: batch_verify_chunks(rechunk((short,), chunk_moves))
                    )
                    assert fast == _outcome(
                        lambda: replay_verify_chunks(rechunk((short,), chunk_moves))
                    ), (d, team, chunk_moves)
                    if not base.header.uses_cloning:
                        # a clone adds its own guard: cloning runs out of
                        # team only at the verdict
                        homebase = base.header.homebase
                        assert fast == (
                            "raise", "SimulationError", f"no agent on {homebase} to move"
                        ), (d, team, chunk_moves)
                    cases += 1
        assert cases > 0

    def test_whole_schedule_team_too_small(self):
        """A whole schedule that declares fewer agents than its moves use:
        ``batch_verify`` seeds the homebase with the whole schedule's
        agent count, as ``verify_schedule`` does, so both raise the same
        error at the verdict, never where the homebase runs out."""
        cases = 0
        for name in ALL_STRATEGIES:
            for d in range(2, 5):
                schedule = get_strategy(name).generate(Hypercube(d))
                for team in range(1, schedule.team_size):
                    short = dataclasses.replace(schedule, team_size=team)
                    classic = _outcome(lambda: verify_schedule(short))
                    assert classic == (
                        "raise",
                        "ScheduleError",
                        f"{schedule.agents_used()} agents appear in moves but team_size={team}",
                    ), (name, d, team)
                    whole = with_team(compiled_for(name, d), team)
                    assert _outcome(lambda: batch_verify(whole)) == classic, (name, d, team)
                    cases += 1
        assert cases == 62

    def test_open_unit_structure_error_at_every_chunk_size(self):
        """A malformed row in the time unit a chunk ends on is reported
        in that chunk, before the stream's own time-order check on the
        next chunk can fire."""
        compiled = _inject(compiled_for("clean", 3), "swap", 16)
        for chunk_moves in range(1, len(compiled.times) + 1):
            fast = _outcome(lambda: batch_verify_chunks(rechunk((compiled,), chunk_moves)))
            assert fast == _outcome(
                lambda: replay_verify_chunks(rechunk((compiled,), chunk_moves))
            ), chunk_moves
        assert _outcome(lambda: batch_verify_chunks(rechunk((compiled,), 1))) == (
            "raise",
            "ScheduleError",
            "move #16: agent 0 moves from 1 but is at 5",
        )


class TestDeclinedBlocks:
    """The kernel's hand-overs to the reference replay are counted, so a
    detector that declines valid schedules shows as a failure, not only
    as lost speed."""

    @QUICK
    @given(
        name=st.sampled_from(ALL_STRATEGIES),
        d=st.integers(min_value=0, max_value=9),
        chunk_moves=st.integers(min_value=1, max_value=5000),
    )
    def test_valid_schedules_never_decline_d_le_9(self, name, d, chunk_moves):
        compiled = compiled_for(name, d)
        for report in (
            batch_verify(compiled),
            batch_verify_chunks(rechunk((compiled,), chunk_moves)),
        ):
            assert report.ok
            assert report.declined == 0

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_valid_schedules_never_decline_at_scale(self, name):
        """d=12 at chunk sizes 7 and 4,096, d=14 in 65,536-move chunks."""
        strategy = get_strategy(name)
        for d, sizes in ((12, (7, 4096)), (14, (65536,))):
            for chunk_moves in sizes:
                report = batch_verify_chunks(
                    strategy.generate_chunks(Hypercube(d), chunk_moves)
                )
                assert report.ok, (d, chunk_moves, report.violations)
                assert report.declined == 0, (d, chunk_moves)

    @pytest.mark.parametrize("name", ["clean", "level-sweep"])
    def test_monolithic_block_wider_than_a_chunk(self, name):
        """``batch_verify`` feeds a whole d=14 schedule (about 200,000
        rows) as one kernel block: the chunked stream's verdict and the
        reference's, with no decline; and a delayed suffix in the middle
        of that block reaches the reference's verdict through one."""
        compiled = concat_chunks(get_strategy(name).generate_chunks(Hypercube(14), 65536))
        assert len(compiled.times) > 65536
        whole = batch_verify(compiled)
        chunked = batch_verify_chunks(rechunk((compiled,), 65536))
        assert whole.ok
        assert whole == chunked == replay_verify(compiled)
        assert (whole.declined, chunked.declined) == (0, 0)
        late = delayed_suffix(compiled, len(compiled.times) // 2, 2)
        fast = _outcome(lambda: batch_verify(late))
        assert fast == _outcome(lambda: replay_verify(late))
        assert fast[0] == "report" and fast[1].declined == 1

    def test_decline_count_on_the_spans(self):
        """Both entry points put the count on their span."""
        compiled = compiled_for("cloning", 4)
        broken = _inject(compiled, "drop", 6)  # recontaminates nodes 1 and 0
        tracer = Tracer(run_id="t-declined")
        good = batch_verify(compiled, tracer=tracer)
        bad = batch_verify_chunks(rechunk((broken,), 4), tracer=tracer)
        assert not bad.monotone
        assert (good.declined, bad.declined) == (0, 1)
        attrs = {s.name: s.attrs for s in tracer.spans}
        assert attrs["fastpath.batch_verify"]["declined"] == 0
        assert attrs["fastpath.batch_verify_chunks"]["declined"] == 1

    def test_declined_is_left_out_of_equality(self):
        report = batch_verify(compiled_for("cloning", 5))
        assert dataclasses.replace(report, declined=3) == report


# --------------------------------------------------------------------- #
# batch-engine parity: payloads, shards, merge statistics
# --------------------------------------------------------------------- #


def scalar_run_batch(spec, start=0, count=None) -> BatchResult:
    """Trials ``[start, start+count)`` scored one trial at a time: the
    reference replay's verdict, the per-homebase reference loop's
    columns, and the outcome counters those columns imply."""
    # imported here, not at the top: tests/test_batchsim.py imports this module
    from .test_batchsim import _per_homebase_reference

    count = spec.trials - start if count is None else count
    report = replay_verify(compiled_for(spec.strategy, spec.dimension))
    result = BatchResult(
        spec=spec,
        start=start,
        verdict={
            "monotone": report.monotone,
            "contiguous": report.contiguous,
            "complete": report.complete,
            "total_moves": report.total_moves,
            "makespan": report.makespan,
            "team_size": report.team_size,
        },
        **_per_homebase_reference(spec, start, count),
    )
    captures = sum(result.captured)
    result.counters = {"trials": count, "captures": captures, "escapes": count - captures}
    return result


def assert_payload_identity(fast: BatchResult, scalar: BatchResult) -> None:
    """Equal payloads and summaries, on the counters the trial loop keeps."""
    for got, want in (
        (fast.to_payload(), scalar.to_payload()),
        (fast.summary(), scalar.summary()),
    ):
        got["counters"] = {key: got["counters"][key] for key in want["counters"]}
        assert got == want


class TestBatchEngineParity:
    @pytest.mark.parametrize("delay", ["unit", "random", "adversarial"])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_payload_identity_reachable(self, delay, rotate):
        spec = _spec(delay=delay, rotate_homebase=rotate)
        assert_payload_identity(run_batch(spec), scalar_run_batch(spec))

    @pytest.mark.parametrize("strategy", ["clean", "visibility"])
    def test_payload_identity_across_strategies(self, strategy):
        spec = _spec(strategy=strategy, trials=120)
        assert_payload_identity(run_batch(spec), scalar_run_batch(spec))

    @QUICK
    @given(
        trials=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
        cut=st.integers(min_value=0, max_value=59),
    )
    def test_sharded_windows_match_pure(self, trials, seed, cut):
        """Shard-for-shard and merged-vs-merged parity with the trial
        loop, an empty shard included when the cut falls on an end."""
        spec = _spec(trials=trials, rng_seed=seed)
        cut = min(cut, trials)
        fast_parts, scalar_parts = [], []
        for start, count in [(0, cut), (cut, trials - cut)]:
            fast = run_batch(spec, start=start, count=count)
            scalar = scalar_run_batch(spec, start=start, count=count)
            assert_payload_identity(fast, scalar)
            fast_parts.append(fast)
            scalar_parts.append(scalar)
        assert_payload_identity(BatchResult.merge(fast_parts), BatchResult.merge(scalar_parts))

    def test_non_reachable_policies_share_the_scalar_path(self):
        """``inert`` and walker trials have no scorer of their own: a
        shard scores them in the one ``_score_shard`` pass ``reachable``
        uses, and they match the trial loop."""
        for intruder in ("inert", "walker"):
            spec = _spec(intruder=intruder, trials=60, delay="unit")
            with mock.patch.object(
                batchsim, "_score_shard", wraps=batchsim._score_shard
            ) as scorer:
                result = run_batch(spec)
            assert scorer.call_count == 1
            assert result.count == 60
            assert_payload_identity(result, scalar_run_batch(spec))
