"""Tests for the bounded-memory chunk-stream plane.

Four contracts:

* **equivalence** — for every strategy and any chunk size (one move, a
  prime, a power of two, larger than the whole schedule), the chunked
  pipeline is indistinguishable from the monolithic one: concatenated
  chunks assemble to an equal whole-schedule chunk (header fields,
  columns, stats and metadata), ``batch_verify_chunks`` returns the
  same report, ``measure_chunks`` the same metric columns;
* **boundedness** — a native streaming producer feeding the streaming
  verifier holds O(chunk + n) memory, never the O(moves) plane
  (``tracemalloc`` ceiling at d=14, where the move plane alone is tens
  of megabytes);
* **warm-path materialization** — columnar consumers served from a warm
  cache (``stream_chunks``, assembled or not) construct zero ``Move``
  objects, and so do a cold cell, a default ``measure_cell`` call and a
  cold ``compile_for_spec`` of a strategy with a columnar producer;
  only ``schedule_for`` materializes;
* **chunked cache robustness** — the one entry layout round-trips
  cold→warm with per-chunk counters, splices over a corrupt chunk by
  regenerating, and serves every accessor.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import measure_cell
from repro.core.chunkstream import (
    DEFAULT_CHUNK_MOVES,
    chunks_from_schedule,
    chunks_to_schedule,
    concat_chunks,
    rechunk,
)
from repro.core.schedule import Move
from repro.core.strategy import available_strategies, get_strategy, set_active_cache
from repro.fastpath import (
    ScheduleCache,
    batch_verify,
    batch_verify_chunks,
    measure_chunks,
    measure_schedule,
)
from repro.obs.trace import Tracer, set_active_tracer
from repro.topology.hypercube import Hypercube

ALL_STRATEGIES = sorted(available_strategies())

#: chunk sizes exercising every boundary shape: single-move chunks, a
#: prime (misaligned with every power-of-two time unit), a power of two,
#: and larger-than-the-whole-schedule (one chunk, immediately final).
CHUNK_SIZES = (1, 7, 64, 10**9)

QUICK = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def whole(schedule):
    """``schedule`` as one whole-schedule chunk."""
    return concat_chunks(chunks_from_schedule(schedule))


def no_moves_allowed(monkeypatch):
    """Make any ``Move`` construction fail the test."""

    def boom(self):
        raise AssertionError("columnar warm path materialized a Move")

    monkeypatch.setattr(Move, "__post_init__", boom)


# --------------------------------------------------------------------- #
# chunked == monolithic, at every chunk size
# --------------------------------------------------------------------- #


class TestChunkedEquivalence:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("chunk_moves", CHUNK_SIZES)
    def test_bytes_identical(self, name, chunk_moves):
        strategy = get_strategy(name)
        cube = Hypercube(5)
        mono = whole(strategy.generate(cube))
        chunked = concat_chunks(
            strategy.generate_chunks(cube, chunk_moves)
        )
        assert chunked == mono

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("chunk_moves", CHUNK_SIZES)
    def test_verdict_identical(self, name, chunk_moves):
        strategy = get_strategy(name)
        cube = Hypercube(4)
        classic = batch_verify(whole(strategy.generate(cube)))
        streamed = batch_verify_chunks(strategy.generate_chunks(cube, chunk_moves))
        assert streamed == classic
        assert streamed.ok

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("chunk_moves", CHUNK_SIZES)
    def test_measure_identical(self, name, chunk_moves):
        strategy = get_strategy(name)
        cube = Hypercube(4)
        assert measure_chunks(
            strategy.generate_chunks(cube, chunk_moves)
        ) == measure_schedule(strategy.generate(cube))

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_schedule_round_trip_at_d9(self, name):
        strategy = get_strategy(name)
        cube = Hypercube(9)
        assert chunks_to_schedule(strategy.generate_chunks(cube, 1009)) == strategy.generate(cube)

    @QUICK
    @given(
        chunk_moves=st.integers(min_value=1, max_value=5000),
        name=st.sampled_from(ALL_STRATEGIES),
        d=st.integers(min_value=0, max_value=6),
    )
    def test_random_chunk_sizes(self, chunk_moves, name, d):
        strategy = get_strategy(name)
        cube = Hypercube(d)
        mono = whole(strategy.generate(cube))
        chunked = concat_chunks(
            strategy.generate_chunks(cube, chunk_moves)
        )
        assert chunked == mono
        assert batch_verify_chunks(
            strategy.generate_chunks(cube, chunk_moves)
        ) == batch_verify(mono)

    @QUICK
    @given(
        source=st.integers(min_value=1, max_value=300),
        target=st.integers(min_value=1, max_value=300),
    )
    def test_rechunk_is_pure_column_surgery(self, source, target):
        strategy = get_strategy("clean")
        cube = Hypercube(5)
        mono = whole(strategy.generate(cube))
        rechunked = concat_chunks(
            rechunk(strategy.generate_chunks(cube, source), target)
        )
        assert rechunked == mono


# --------------------------------------------------------------------- #
# bounded memory
# --------------------------------------------------------------------- #


class TestBoundedMemory:
    def test_streaming_verify_peak_is_o_chunk_at_d14(self):
        """A native streaming producer + the chunk verifier must never
        hold the move plane: peak traced memory stays within a few
        chunks + the O(n) node tables, far below the materialized
        schedule (~10^5 Move objects at d=14)."""
        strategy = get_strategy("clean")
        cube = Hypercube(14)
        chunk_moves = 4096
        tracemalloc.start()
        try:
            report = batch_verify_chunks(strategy.generate_chunks(cube, chunk_moves))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        # the move plane alone would be ≥ total_moves Move objects; a
        # Move dataclass costs well over 100 bytes, so materializing
        # would blow far past this ceiling.
        assert report.total_moves > 100_000
        ceiling = 24 * chunk_moves * 6 * 8 + 64 * cube.n + 8 * 2**20
        assert peak < ceiling, f"peak {peak} exceeds O(chunk + n) ceiling {ceiling}"

    def test_numpy_packed_plane_ceiling_at_d16(self):
        """Regression pin for the bit-plane kernel's node tables.

        PR 9 showed the O(n) per-node tables — not the one-chunk stream
        window — dominate the streaming verifier's peak from d≈16 up.
        The bit-plane kernel packs them into flat int64 tables and
        ``uint64`` bit-planes; this pins that ceiling so a future change
        quietly reintroducing boxed per-node state fails loudly.
        Generation runs untraced (tracemalloc multiplies the pure-Python
        producer's cost ~7x and its allocations are not under test).
        """
        strategy = get_strategy("clean")
        cube = Hypercube(16)
        chunk_moves = 4096
        chunks = list(strategy.generate_chunks(cube, chunk_moves))
        tracemalloc.start()
        try:
            report = batch_verify_chunks(iter(chunks))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        assert report.total_moves > 800_000
        # flat tables + packed planes are a handful of 8-byte words per
        # node; a few chunk windows of six int64 columns; fixed slack.
        ceiling = 8 * 8 * cube.n + 4 * chunk_moves * 6 * 8 + 8 * 2**20
        assert peak < ceiling, f"peak {peak} exceeds packed-plane ceiling {ceiling}"

    def test_materialized_baseline_exceeds_streaming_peak(self):
        """Sanity for the ceiling above: actually materializing the d=12
        schedule costs more than the whole streaming verify at d=12."""
        strategy = get_strategy("clean")
        tracemalloc.start()
        try:
            strategy.generate(Hypercube(12))
            _, mono_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            batch_verify_chunks(strategy.generate_chunks(Hypercube(12), 1024))
            _, stream_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stream_peak < mono_peak / 4


# --------------------------------------------------------------------- #
# warm-path materialization
# --------------------------------------------------------------------- #


class TestWarmPathNoMoves:
    def test_compiled_for_warm_hit_builds_no_moves(self, tmp_path, monkeypatch):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("visibility")
        concat_chunks(cache.stream_chunks(strategy, 4))  # cold: generates, stores
        no_moves_allowed(monkeypatch)
        compiled = concat_chunks(cache.stream_chunks(strategy, 4))  # warm: bytes -> columns
        assert cache.stats.hits == 1
        assert measure_chunks((compiled,))["moves"] == compiled.stats_so_far.total_moves
        assert batch_verify(compiled).ok

    def test_stream_chunks_warm_hit_builds_no_moves(self, tmp_path, monkeypatch):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        for _ in cache.stream_chunks(strategy, 4, chunk_moves=32):
            pass  # cold: stream-to-disk
        no_moves_allowed(monkeypatch)
        report = batch_verify_chunks(cache.stream_chunks(strategy, 4, chunk_moves=32))
        assert report.ok
        assert cache.stats.hits == 1 and cache.stats.chunk_hits > 0

    @pytest.mark.parametrize("name", ["clean", "visibility", "synchronous", "cloning"])
    def test_cold_streaming_cell_builds_no_moves(self, name, tmp_path, monkeypatch):
        """The columnar producers: a cold streamed, verified and stored
        cell never builds a ``Move``, not even at the producer."""
        cache = ScheduleCache(tmp_path)
        no_moves_allowed(monkeypatch)
        values, _, provenance = measure_cell(name, 6, stream=True, cache=cache, chunk_moves=64)
        assert provenance["source"] == "generated"
        assert cache.stats.stores == 1 and values["moves"] > 0

    @pytest.mark.parametrize("name", ["clean", "visibility", "synchronous", "cloning"])
    def test_default_cell_builds_no_moves_cold_or_warm(self, name, tmp_path, monkeypatch):
        """``measure_cell`` without a ``stream`` argument streams at every
        d: neither the cold cell nor the warm one builds a ``Move``."""
        cache = ScheduleCache(tmp_path)
        no_moves_allowed(monkeypatch)
        cold, _, cold_provenance = measure_cell(name, 6, cache=cache)
        warm, _, warm_provenance = measure_cell(name, 6, cache=cache)
        assert cold_provenance["source"] == "generated"
        assert warm_provenance["source"] == "cache"
        assert cold == warm and cold["moves"] > 0
        assert cache.stats.stores == 1 and cache.stats.hits == 1

    @pytest.mark.parametrize("name", ["clean", "visibility", "synchronous", "cloning"])
    def test_cold_compile_for_spec_builds_no_moves(self, name, monkeypatch):
        from repro.fastpath.batchsim import BatchScenarioSpec, compile_for_spec

        reference = whole(get_strategy(name).generate(Hypercube(6)))
        no_moves_allowed(monkeypatch)
        assert compile_for_spec(BatchScenarioSpec(dimension=6, strategy=name)) == reference

    def test_schedule_for_does_materialize(self, tmp_path, monkeypatch):
        """The probe is real: the decompiling accessor must trip it."""
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        concat_chunks(cache.stream_chunks(strategy, 3))
        no_moves_allowed(monkeypatch)
        with pytest.raises(AssertionError, match="materialized a Move"):
            cache.schedule_for(strategy, 3)


# --------------------------------------------------------------------- #
# traced streaming runs
# --------------------------------------------------------------------- #


class TestTracedStreamingRun:
    def test_run_chunks_span_reports_from_aggregates(self, monkeypatch):
        strategy = get_strategy("clean")
        tracer = Tracer(run_id="t-stream")
        previous = set_active_tracer(tracer)
        try:
            report = batch_verify_chunks(strategy.run_chunks(4, chunk_moves=16))
        finally:
            set_active_tracer(previous)
        assert report.ok
        spans = [s for s in tracer.spans if s.name == "strategy.run_chunks"]
        assert len(spans) == 1
        span = spans[0]
        assert span.status == "ok"
        assert span.attrs["moves"] == report.total_moves
        assert span.attrs["chunk_moves"] == 16

    def test_traced_warm_streaming_run_stays_columnar(self, tmp_path, monkeypatch):
        """Tracing a warm streaming run must not force materialization:
        the span reads the final chunk's aggregate block, never moves."""
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("visibility")
        previous_cache = set_active_cache(cache)
        try:
            for _ in strategy.run_chunks(4, chunk_moves=64):
                pass  # cold pass populates the chunked blob
            no_moves_allowed(monkeypatch)
            tracer = Tracer(run_id="t-warm")
            cache.bind_tracer(tracer)
            previous_tracer = set_active_tracer(tracer)
            try:
                report = batch_verify_chunks(strategy.run_chunks(4, chunk_moves=64))
            finally:
                set_active_tracer(previous_tracer)
        finally:
            set_active_cache(previous_cache)
        assert report.ok
        names = [s.name for s in tracer.spans]
        assert "strategy.run_chunks" in names
        assert "fastpath.cache.stream" in names
        assert cache.stats.chunk_hits > 0


# --------------------------------------------------------------------- #
# chunked cache drills
# --------------------------------------------------------------------- #


class TestChunkedCache:
    def warm(self, cache, strategy, d, chunk_moves=32):
        return list(cache.stream_chunks(strategy, d, chunk_moves=chunk_moves))

    def test_store_writes_the_streamed_entry_bytes(self, tmp_path):
        """visibility d=15 is 2 x 65,536 moves: ``store`` of the whole
        schedule ends, like the streamed entry, on an empty final chunk,
        so the two entries are the same bytes."""
        strategy = get_strategy("visibility")
        streamed = ScheduleCache(tmp_path / "streamed")
        self.warm(streamed, strategy, 15, chunk_moves=DEFAULT_CHUNK_MOVES)
        whole = concat_chunks(strategy.generate_chunks(Hypercube(15)))
        assert len(whole) == 2 * DEFAULT_CHUNK_MOVES
        fp = streamed.fingerprint_of(strategy, 15)
        stored = ScheduleCache(tmp_path / "stored").store(fp, whole)
        assert stored.read_bytes() == streamed.path_for(fp).read_bytes()

    def test_cold_then_warm_counters_and_bytes(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("cloning")
        cold = self.warm(cache, strategy, 4)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        assert cache.stats.chunk_stores == len(cold)
        fp = cache.fingerprint_of(strategy, 4)
        assert list(cache.entries()) == [cache.path_for(fp)]  # one entry per cell
        warm = self.warm(cache, strategy, 4)
        assert cache.stats.hits == 1
        assert cache.stats.chunk_hits == len(warm)
        assert concat_chunks(iter(warm)) == (
            concat_chunks(iter(cold))
        )

    def test_warm_rechunk_serves_any_size(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        self.warm(cache, strategy, 4, chunk_moves=64)
        resliced = self.warm(cache, strategy, 4, chunk_moves=17)
        assert all(len(c) == 17 for c in resliced[:-1])
        assert concat_chunks(iter(resliced)) == (
            whole(strategy.generate(Hypercube(4)))
        )

    def test_corrupt_chunk_splices_regeneration(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        baseline = concat_chunks(
            iter(self.warm(cache, strategy, 5, chunk_moves=16))
        )
        path = cache.path_for(cache.fingerprint_of(strategy, 5))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        spliced = self.warm(cache, strategy, 5, chunk_moves=16)
        assert cache.stats.corrupt == 1
        assert concat_chunks(iter(spliced)) == baseline
        # the regenerated entry is republished and clean again
        self.warm(cache, strategy, 5, chunk_moves=16)
        assert cache.stats.corrupt == 1

    def test_negative_kind_code_is_corrupt(self, tmp_path):
        """A chunk record whose rows carry a kind code of -1 is malformed:
        the reader counts the entry corrupt and regenerates it, instead of
        counting the row under the last enum member and serving it."""
        strategy = get_strategy("visibility")
        chunks = list(strategy.generate_chunks(Hypercube(4), 8))
        chunks[0].kinds[0] = -1
        writer = ScheduleCache(tmp_path)
        fp = writer.fingerprint_of(strategy, 4)
        for _ in writer._write_chunk_stream(fp, rechunk(iter(chunks), 8), 8):
            pass
        assert writer.path_for(fp).exists()
        cache = ScheduleCache(tmp_path)
        served = list(cache.stream_chunks(strategy, 4, chunk_moves=8))
        assert cache.stats.corrupt == 1 and cache.stats.hits == 0
        assert concat_chunks(iter(served)) == (
            whole(strategy.generate(Hypercube(4)))
        )
        # the regenerated entry is clean
        again = ScheduleCache(tmp_path)
        list(again.stream_chunks(strategy, 4, chunk_moves=8))
        assert again.stats.corrupt == 0 and again.stats.hits == 1

    def test_v2_entry_serves_schedule_for(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        self.warm(cache, strategy, 4)  # publishes the entry
        assert cache.schedule_for(strategy, 4) == strategy.generate(Hypercube(4))
        assert cache.stats.hits == 1

    def test_abandoned_cold_stream_publishes_nothing(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        strategy = get_strategy("clean")
        stream = cache.stream_chunks(strategy, 5, chunk_moves=8)
        next(stream)
        stream.close()  # consumer walks away mid-stream
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []
        assert cache.info()["entries"] == 0
        # a fresh consumer regenerates from scratch, cleanly
        report = batch_verify_chunks(cache.stream_chunks(strategy, 5, chunk_moves=8))
        assert report.ok
        assert cache.info()["entries"] == 1

    def test_metrics_mirror_chunk_counters(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = ScheduleCache(tmp_path)
        cache.bind_metrics(registry)
        cold = self.warm(cache, get_strategy("clean"), 4)
        warm = self.warm(cache, get_strategy("clean"), 4)
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.cache.chunk_stores"] == len(cold)
        assert counters["fastpath.cache.chunk_hits"] == len(warm)


# --------------------------------------------------------------------- #
# measure_cell streaming parity
# --------------------------------------------------------------------- #


class TestStreamingMeasureCell:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_streaming_values_match_classic(self, name):
        classic, _, _ = measure_cell(name, 4, stream=False)
        streamed, _, _ = measure_cell(name, 4, stream=True, chunk_moves=32)
        assert streamed == classic

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_assembled_cell_matches_streamed_cell(self, name, tmp_path):
        """``stream=False`` assembles the same chunks into a ``Schedule``
        and checks it with the reference verifier: same values, with and
        without a cache, cold and warm."""
        cache = ScheduleCache(tmp_path)
        streamed, last, _ = measure_cell(name, 5)
        assert last.is_last
        for source in (None, cache, cache):
            assembled, schedule, _ = measure_cell(name, 5, cache=source, stream=False)
            assert assembled == streamed
            assert schedule == get_strategy(name).generate(Hypercube(5))
            assert measure_cell(name, 5, cache=source)[0] == streamed
        assert cache.stats.misses == 1 and cache.stats.hits == 3

    def test_streaming_cache_provenance(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        _, _, cold = measure_cell("clean", 4, cache=cache, stream=True, chunk_moves=32)
        assert cold["source"] == "generated"
        _, _, warm = measure_cell("clean", 4, cache=cache, stream=True, chunk_moves=32)
        assert warm["source"] == "cache"
        assert warm["fingerprint"] == cold["fingerprint"]
        assert cache.stats.chunk_hits > 0
        # a corrupt entry is regenerated, and the cell says so
        path = cache.path_for(cold["fingerprint"])
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        for stream in (True, False):
            _, _, again = measure_cell("clean", 4, cache=cache, stream=stream, chunk_moves=32)
            assert again["source"] == ("generated" if stream else "cache")
        assert cache.stats.corrupt == 1

    def test_default_chunk_size(self):
        assert DEFAULT_CHUNK_MOVES == 65536

    def test_streaming_verification_failure_raises(self, monkeypatch):
        from repro.errors import ReproError

        strategy = get_strategy("clean")
        tampered = strategy.generate(Hypercube(3))
        half = tampered.moves[: len(tampered.moves) // 2]
        broken = type(tampered)(
            dimension=3,
            strategy=tampered.strategy,
            moves=half,
            team_size=tampered.team_size,
        )
        monkeypatch.setattr(type(strategy), "generate", lambda self, cube: broken)
        # force the materialize-then-chunk fallback so the tampered
        # generate() is what feeds the stream
        monkeypatch.setattr(type(strategy), "expected_team_size", lambda self, d: None)
        with pytest.raises(ReproError, match="verification"):
            measure_cell("clean", 3, stream=True, chunk_moves=8)
