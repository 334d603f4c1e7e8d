"""Tests for the fast-path plane: whole-schedule chunks, cache, batch verify.

Three contracts, each exercised end to end:

* **losslessness** — ``whole chunk -> cache entry -> load -> Schedule``
  is the identity on every generator's output, metadata included;
* **verdict equivalence** — :func:`repro.fastpath.batch_verify` agrees
  with the classic :class:`~repro.analysis.verify.ScheduleVerifier` on
  clean schedules *and* on seeded violations (one move per time unit,
  where the per-move and per-unit replays are the same computation);
* **cache robustness** — a shared directory serves warm entries, counts
  hits/misses, and treats truncated or bit-flipped entries as misses to
  regenerate, never as crashes.
"""

import pytest

from repro.analysis.sweeps import measure_cell, run_sweep
from repro.analysis.verify import verify_schedule
from repro.core.chunkstream import chunks_from_schedule, chunks_to_schedule, concat_chunks
from repro.core.schedule import Move, MoveKind, Schedule
from repro.core.states import AgentRole
from repro.core.strategy import (
    available_strategies,
    get_strategy,
    set_active_cache,
)
from repro.errors import ScheduleCacheError, ScheduleError
from repro.fastpath import (
    ScheduleCache,
    batch_verify,
    decode_metadata,
    encode_metadata,
    fingerprint,
    measure_chunks,
    measure_schedule,
)
from repro.fastpath.cache import _CHUNK_PREAMBLE, _CHUNK_RECORD

ALL_STRATEGIES = sorted(available_strategies())


def mk(agent, src, dst, time):
    return Move(
        agent=agent, src=src, dst=dst, time=time,
        role=AgentRole.AGENT, kind=MoveKind.DEPLOY,
    )


def seeded(moves, team, d=2, **kwargs):
    return Schedule(dimension=d, strategy="seeded", moves=moves, team_size=team, **kwargs)


def whole(schedule):
    """``schedule`` as one whole-schedule chunk."""
    return concat_chunks(chunks_from_schedule(schedule))


# --------------------------------------------------------------------- #
# compile / decompile / cache entry
# --------------------------------------------------------------------- #


def round_trip(tmp_path, compiled):
    """``compiled`` through one cache entry: store, then load."""
    cache = ScheduleCache(tmp_path)
    fp = fingerprint(compiled.header.strategy, "probe", compiled.header.dimension)
    cache.store(fp, compiled)
    loaded = cache.load(fp)
    assert cache.stats.hits == 1 and cache.stats.corrupt == 0
    return loaded


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_exact_round_trip(self, name, d, tmp_path):
        schedule = get_strategy(name).run(d)
        compiled = whole(schedule)
        loaded = round_trip(tmp_path, compiled)
        assert loaded == compiled  # header fields, columns, stats, metadata
        back = chunks_to_schedule((loaded,))
        assert back == schedule  # moves, metadata, flags — everything
        assert back.metadata == schedule.metadata
        assert [type(m.kind) for m in back.moves] == [type(m.kind) for m in schedule.moves]

    def test_stats_block_matches_scan(self):
        schedule = get_strategy("clean").run(5)
        compiled = whole(schedule)
        assert compiled.stats_so_far == schedule.aggregates()
        assert compiled.stats_so_far.total_moves == schedule.total_moves
        assert compiled.stats_so_far.makespan == schedule.makespan

    def test_decompiled_schedule_measures_without_rescan(self):
        compiled = whole(get_strategy("visibility").run(4))
        back = chunks_to_schedule((compiled,))
        # the stats block is handed over, not recomputed
        assert back._agg is compiled.stats_so_far
        assert measure_schedule(back) == measure_chunks((compiled,))

    def test_metadata_round_trips_int_keys_and_tuples(self, tmp_path):
        payload = {"extras_per_level": {1: 2, 3: 4}, "pair": (1, "a"), "xs": [1, 2]}
        assert decode_metadata(encode_metadata(payload)) == payload
        compiled = whole(get_strategy("clean").run(3))
        compiled.metadata = payload
        loaded = round_trip(tmp_path, compiled)
        assert loaded.metadata == payload
        assert isinstance(loaded.metadata["pair"], tuple)
        assert list(loaded.metadata["extras_per_level"]) == [1, 3]

    def test_blob_rejects_garbage(self, tmp_path):
        """Every damaged entry is a corrupt miss: ``load`` returns
        ``None``, counts it and deletes the file."""
        compiled = whole(get_strategy("clean").run(3))
        fp = fingerprint("clean", "probe", 3)
        blob = ScheduleCache(tmp_path / "pristine").store(fp, compiled).read_bytes()
        header_end = _CHUNK_PREAMBLE.size + _CHUNK_PREAMBLE.unpack_from(blob)[2]
        n_rows, _ = _CHUNK_RECORD.unpack_from(blob, header_end)
        payload = header_end + _CHUNK_RECORD.size
        assert n_rows > 0 and len(blob) > payload + 6 * 8 * n_rows

        def flipped(offset):
            damaged = bytearray(blob)
            damaged[offset] ^= 0x01
            return bytes(damaged)

        damages = {
            "empty": b"",
            "bad magic": b"NOPE" + blob[4:],
            "header bit": flipped(_CHUNK_PREAMBLE.size + 2),
            "truncated record": blob[: payload + 3 * 8 * n_rows],
            "payload bit": flipped(payload + 8 * n_rows),  # agent column, row 0
            "footer bit": flipped(len(blob) - 2),  # inside the footer JSON
        }
        for damage, data in damages.items():
            cache = ScheduleCache(tmp_path / "damaged")
            path = cache.store(fp, compiled)
            path.write_bytes(data)
            assert cache.load(fp) is None, damage
            assert cache.stats.as_dict()["corrupt"] == 1, damage
            assert cache.stats.misses == 1 and cache.stats.hits == 0, damage
            assert not path.exists(), damage


# --------------------------------------------------------------------- #
# batch verifier vs the classic one
# --------------------------------------------------------------------- #

VERDICT_FIELDS = (
    "monotone", "contiguous", "complete", "intruder_captured",
    "ok", "total_moves", "makespan", "team_size",
)


def assert_same_verdict(schedule):
    classic = verify_schedule(schedule)
    batch = batch_verify(whole(schedule))
    for f in VERDICT_FIELDS:
        assert getattr(classic, f) == getattr(batch, f), f
    return classic, batch


class TestBatchVerifyEquivalence:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("d", range(1, 10))
    def test_generator_output_agrees(self, name, d):
        classic, batch = assert_same_verdict(get_strategy(name).run(d))
        assert classic.ok and batch.ok

    def test_recontamination_agrees(self):
        # H_2 sweep-and-return: vacating 1 next to contaminated 3
        _, batch = assert_same_verdict(seeded([mk(0, 0, 1, 1), mk(0, 1, 0, 2)], team=1))
        assert not batch.monotone
        assert any("recontaminated" in v for v in batch.violations)

    def test_incomplete_cleaning_agrees(self):
        _, batch = assert_same_verdict(seeded([mk(0, 0, 1, 1)], team=2))
        assert batch.monotone and not batch.complete and not batch.intruder_captured
        with pytest.raises(Exception):
            batch.raise_if_failed()

    def test_contiguity_break_agrees(self):
        # the reckless H_3 dash 0 -> 1 -> 3 -> 7 abandons the corridor
        moves = [mk(0, 0, 1, 1), mk(0, 1, 3, 2), mk(0, 3, 7, 3)]
        _, batch = assert_same_verdict(seeded(moves, team=2, d=3))
        assert not batch.monotone and not batch.contiguous

    def test_clean_seeded_schedule_agrees(self):
        classic, batch = assert_same_verdict(seeded([mk(0, 0, 1, 1)], team=1, d=1))
        assert classic.ok and batch.ok
        batch.raise_if_failed()

    def test_structure_errors_raise_like_classic(self):
        for bad in (
            seeded([mk(0, 1, 3, 1)], team=1),   # first move away from homebase
            seeded([mk(0, 0, 3, 1)], team=1),   # not an edge
            seeded([mk(0, 0, 1, 2), mk(0, 1, 0, 1)], team=1),  # time goes backward
        ):
            with pytest.raises(ScheduleError):
                verify_schedule(bad)
            with pytest.raises(ScheduleError):
                batch_verify(whole(bad))

    def test_summary_format_matches_classic(self):
        batch = batch_verify(whole(get_strategy("clean").run(3)))
        assert batch.summary().startswith("[OK] clean(d=3):")


# --------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------- #


class TestScheduleCache:
    def test_miss_store_hit_cycle(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("visibility")
        fp, compiled = cache.load_compiled(strategy, 4)
        assert compiled is None and cache.stats.misses == 1
        cache.store(fp, whole(strategy.run(4)))
        _, warm = cache.load_compiled(strategy, 4)
        assert warm is not None and cache.stats.hits == 1
        assert chunks_to_schedule((warm,)) == strategy.run(4)

    def test_fingerprint_sensitivity(self):
        base = fingerprint("clean", "1", 4, {})
        assert fingerprint("clean", "1", 5, {}) != base       # dimension
        assert fingerprint("clean", "2", 4, {}) != base       # generator version
        assert fingerprint("visibility", "1", 4, {}) != base  # strategy
        assert fingerprint("clean", "1", 4, {"k": 1}) != base # params
        assert fingerprint("clean", "1", 4, {}) == base       # deterministic

    def test_truncated_entry_regenerates(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        fp = cache.fingerprint_of(strategy, 3)
        cache.store(fp, whole(strategy.run(3)))
        path = cache.path_for(fp)
        path.write_bytes(path.read_bytes()[:10])  # torn write
        assert cache.load(fp) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        assert not path.exists()  # bad entry deleted
        # the schedule_for path regenerates transparently
        assert cache.schedule_for(strategy, 3) == strategy.run(3)
        assert cache.load(fp) is not None

    def test_bit_flipped_entry_regenerates(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("cloning")
        fp = cache.fingerprint_of(strategy, 4)
        cache.store(fp, whole(strategy.run(4)))
        path = cache.path_for(fp)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        assert cache.load(fp) is None
        assert cache.stats.corrupt == 1
        assert cache.schedule_for(strategy, 4) == strategy.run(4)

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("visibility")
        cache.schedule_for(strategy, 3)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(cache.entries())) == 1

    def test_info_and_clear(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        cache.schedule_for(get_strategy("clean"), 2)
        info = cache.info()
        assert info["entries"] == 1 and info["total_bytes"] > 0
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_malformed_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ScheduleCacheError):
            ScheduleCache(tmp_path).path_for("../../etc/passwd")

    def test_metrics_binding(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = ScheduleCache(tmp_path)
        cache.bind_metrics(registry)
        cache.schedule_for(get_strategy("clean"), 2)  # miss + store
        cache.schedule_for(get_strategy("clean"), 2)  # hit
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.cache.misses"] == 1
        assert counters["fastpath.cache.hits"] == 1
        assert counters["fastpath.cache.stores"] == 1

    def test_incomplete_cache_params_serves_stale_schedule(self, tmp_path):
        """The hazard RPR240 guards: a knob omitted from cache_params
        collapses two configurations onto one fingerprint, and the
        second instance is served the first one's schedule."""
        from repro.core.strategy import Strategy

        class Tunable(Strategy):
            name = "tunable-probe"

            def __init__(self, steps=1):
                self.steps = steps

            def generate(self, hypercube):
                moves = [mk(0, 0, 1, t) for t in range(1, self.steps + 1)]
                # named after the probe: the cache's entry reader treats
                # an entry naming another strategy as corrupt
                return Schedule(
                    dimension=hypercube.dimension, strategy=self.name,
                    moves=moves, team_size=1,
                )

        cache = ScheduleCache(tmp_path)
        short, long = Tunable(steps=1), Tunable(steps=3)
        assert cache.fingerprint_of(short, 2) == cache.fingerprint_of(long, 2)
        assert len(cache.schedule_for(short, 2).moves) == 1
        # stale: `long` wants 3 moves but warm-hits `short`'s entry
        assert len(cache.schedule_for(long, 2).moves) == 1

        class Keyed(Tunable):
            name = "keyed-probe"

            def cache_params(self):
                return {"steps": self.steps}

        short, long = Keyed(steps=1), Keyed(steps=3)
        assert cache.fingerprint_of(short, 2) != cache.fingerprint_of(long, 2)
        assert len(cache.schedule_for(short, 2).moves) == 1
        assert len(cache.schedule_for(long, 2).moves) == 3

    def test_leftover_monolithic_entry_is_never_served(self, tmp_path):
        """The older monolithic layout (``<fp>.rprc``) is never read, not
        even at the current address; ``clear()`` still removes it."""
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        fp = cache.fingerprint_of(strategy, 3)
        # the address the previous on-disk format gave this cell
        assert fp != "0b6e8684191a9273bdca4b4eb81c2d26611a454ad4acbc2201e8f7348d9a2827"
        legacy = tmp_path / f"{fp}.rprc"
        legacy.write_bytes(b"RPRC" + bytes(60))
        assert cache.load(fp) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0
        assert concat_chunks(cache.stream_chunks(strategy, 3)) == whole(strategy.run(3))
        assert cache.stats.hits == 0 and cache.stats.stores == 1
        assert legacy.exists()
        assert [p.name for p in cache.entries()] == [f"{fp}.rprk"]
        assert cache.info()["entries"] == 1
        assert cache.clear() == 2
        assert not legacy.exists() and list(tmp_path.iterdir()) == []

    def test_active_cache_serves_strategy_run(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        previous = set_active_cache(cache)
        try:
            first = get_strategy("visibility").run(3)
            second = get_strategy("visibility").run(3)
        finally:
            set_active_cache(previous)
        assert first == second
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        # with the hook uninstalled, generation is direct again
        get_strategy("visibility").run(3)
        assert cache.stats.hits == 1


# --------------------------------------------------------------------- #
# measure_cell and the sweep wiring
# --------------------------------------------------------------------- #


class TestMeasureCell:
    def test_cacheless_matches_cached_values(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        for name in ("clean", "visibility", "cloning"):
            plain, _, prov = measure_cell(name, 4)
            cold, _, cold_prov = measure_cell(name, 4, cache=cache)
            warm, _, warm_prov = measure_cell(name, 4, cache=cache)
            assert plain == cold == warm
            assert prov == {}
            assert cold_prov["source"] == "generated"
            assert warm_prov["source"] == "cache"
            assert warm_prov["fingerprint"] == cold_prov["fingerprint"]

    def test_sweep_rows_identical_with_and_without_cache(self, tmp_path):
        strategies, dims = ["clean", "visibility"], [2, 3, 4]
        _, plain = run_sweep(strategies, dims)
        cache = ScheduleCache(tmp_path)
        _, cold = run_sweep(strategies, dims, cache=cache)
        _, warm = run_sweep(strategies, dims, cache=cache)
        assert [r.as_flat_dict() for r in cold] == [r.as_flat_dict() for r in plain]
        assert [r.as_flat_dict() for r in warm] == [r.as_flat_dict() for r in plain]
        assert cache.stats.misses == len(plain) and cache.stats.hits == len(plain)

    def test_extra_metrics_decompile_on_cached_path(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        extra = {"last_time": lambda s: float(s.moves[-1].time)}
        _, rows = run_sweep(["clean"], [3], extra_metrics=extra, cache=cache)
        _, plain_rows = run_sweep(["clean"], [3], extra_metrics=extra)
        assert rows[0].values == plain_rows[0].values

    def test_measure_schedule_shared_by_both_forms(self):
        schedule = get_strategy("clean").run(4)
        compiled = whole(schedule)
        values = measure_schedule(schedule)
        assert values == measure_chunks((compiled,))
        assert values["agents"] == schedule.team_size
        assert values["moves"] == schedule.total_moves
        assert values["steps"] == schedule.makespan
        assert values["agent_moves"] + values["sync_moves"] == values["moves"]


# --------------------------------------------------------------------- #
# the CLI surface
# --------------------------------------------------------------------- #


class TestCacheCli:
    def test_sweep_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "-d", "2", "3", "-s", "clean", "--cache", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hit(s), 2 miss(es)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in warm
        # tables identical modulo the stats line
        def strip(text):
            return [l for l in text.splitlines() if "schedule cache" not in l]

        assert strip(cold) == strip(warm)

    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        main(["sweep", "-d", "2", "-s", "clean", "--cache", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        assert "entries     : 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        assert "entries     : 0" in capsys.readouterr().out

    def test_no_cache_beats_environment(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.fastpath import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert main(["sweep", "-d", "2", "-s", "clean", "--no-cache"]) == 0
        assert "schedule cache" not in capsys.readouterr().out
        assert list(tmp_path.glob("*.rprk")) == []
        # without --no-cache the environment switches the cache on
        assert main(["sweep", "-d", "2", "-s", "clean"]) == 0
        assert "schedule cache" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.rprk"))) == 1

    def test_parallel_sweep_shares_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", "-d", "2", "3", "-s", "clean", "visibility",
            "--cache", str(cache_dir), "--jobs", "2",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(list(cache_dir.glob("*.rprk"))) == 4
        # serial warm run over the directory the workers populated
        assert main(argv[:-2]) == 0
        assert "4 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_experiment_uses_cache(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["experiment", "E1", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "schedule cache" in out
        assert len(list(tmp_path.glob("*.rprk"))) > 0


# --------------------------------------------------------------------- #
# schedule aggregate memoization (the satellite)
# --------------------------------------------------------------------- #


class TestScheduleMemoization:
    def test_aggregates_cached_until_moves_change(self):
        schedule = get_strategy("clean").run(4)
        first = schedule.aggregates()
        assert schedule.aggregates() is first  # memo hit
        schedule.moves.append(
            mk(99, schedule.moves[-1].dst, schedule.moves[-1].dst ^ 1,
               schedule.moves[-1].time + 1)
        )
        second = schedule.aggregates()
        assert second is not first
        assert second.total_moves == first.total_moves + 1

    def test_invalidate_caches_forces_rescan(self):
        schedule = get_strategy("visibility").run(3)
        first = schedule.aggregates()
        schedule.invalidate_caches()
        assert schedule.aggregates() is not first
        assert schedule.aggregates() == first

    def test_peak_traveling_agents_streaming_matches_property(self):
        for name in ALL_STRATEGIES:
            schedule = get_strategy(name).run(5)
            agg = schedule.aggregates()
            assert agg.peak_traveling_agents == max(
                (len(unit) for _, unit in schedule.by_time()), default=0
            )
