"""The columnar producers against their per-``Move`` references.

Every registered strategy — ``clean``, ``visibility`` (and so
``synchronous``), ``cloning`` and ``level-sweep`` — builds its chunk
stream as numpy row blocks (``Strategy.stream_blocks``); ``stream_moves``
stays the reference.  Four contracts:

* **producer parity** — every chunk of ``generate_chunks`` equals the
  chunk the per-``Move`` generator gives through the same assembler:
  six columns, ``stats_so_far``, ``metadata``, ``index``,
  ``start_move`` and ``is_last``;
* **fold parity** — the block-at-a-time aggregate fold equals
  ``scan_moves`` on every chunk prefix, however the rows are cut;
* **same errors, same boundaries** — a time inversion raises the same
  text before the chunk holding it is yielded, whether it sits mid-chunk
  or on a chunk's first row;
* **the paper's exact counts at scale** — the streamed final aggregate
  block matches ``analysis/formulas.py`` up to d=16, and level-sweep's
  team and move count match its closed forms there too.

A cold level-sweep cell also writes the cache entry the per-``Move``
path wrote, byte for byte.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import formulas, sweeps
from repro.core.chunkstream import (
    ChunkStreamHeader,
    ScheduleChunk,
    _reslice_blocks,
    assemble_chunks,
    chunk_move_stream,
    chunks_from_schedule,
    chunks_to_schedule,
    concat_chunks,
    rechunk,
)
from repro.core.schedule import Move, MoveKind, Schedule, scan_moves
from repro.core.states import AgentRole
from repro.core.strategy import available_strategies, get_strategy
from repro.errors import ScheduleError
from repro.fastpath import ScheduleCache, batch_verify_chunks
from repro.search.level_sweep import LevelSweepStrategy, level_sweep_peak_agents
from repro.topology.hypercube import Hypercube

COLUMNAR = ("clean", "visibility", "synchronous", "cloning", "level-sweep")

#: chunk size -> largest d it is checked at: a chunk of one move costs a
#: fold per move on both sides, so the small sizes stop earlier
PARITY_SIZES = {1: 8, 7: 10, 64: 12, 65536: 12, 10**9: 12}

QUICK = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_chunks(strategy, cube, chunk_moves):
    """The per-``Move`` generator through the one chunk assembler."""
    header = ChunkStreamHeader(
        dimension=cube.d,
        strategy=strategy.name,
        homebase=0,
        uses_cloning=strategy.uses_cloning,
        team_size=strategy.expected_team_size(cube.d),
    )
    return chunk_move_stream(header, strategy.stream_moves(cube), chunk_moves)


def assert_same_chunks(got, want):
    count = 0
    for a, b in itertools.zip_longest(got, want):
        assert a is not None and b is not None, f"stream lengths differ at chunk {count}"
        assert (a.index, a.start_move, a.is_last) == (b.index, b.start_move, b.is_last)
        assert a.columns() == b.columns(), f"chunk {a.index} rows differ"
        assert a.stats_so_far == b.stats_so_far, f"chunk {a.index} stats differ"
        assert a.metadata == b.metadata
        assert a.header == b.header
        count += 1
    return count


def assert_same_chunks_at_d14(name, chunk_moves):
    strategy = get_strategy(name)
    cube = Hypercube(14)
    chunks = assert_same_chunks(
        strategy.generate_chunks(cube, chunk_moves),
        reference_chunks(strategy, cube, chunk_moves),
    )
    assert chunks > 1


class TestProducerParity:
    @pytest.mark.parametrize("name", COLUMNAR)
    @pytest.mark.parametrize("chunk_moves", sorted(PARITY_SIZES))
    def test_chunks_equal_per_move_reference(self, name, chunk_moves):
        strategy = get_strategy(name)
        assert strategy.stream_blocks(Hypercube(2), 1024) is not None
        for d in range(PARITY_SIZES[chunk_moves] + 1):
            cube = Hypercube(d)
            assert_same_chunks(
                strategy.generate_chunks(cube, chunk_moves),
                reference_chunks(strategy, cube, chunk_moves),
            )

    @pytest.mark.parametrize("chunk_moves", [4096, 65536])
    def test_clean_d14(self, chunk_moves):
        assert_same_chunks_at_d14("clean", chunk_moves)

    @pytest.mark.parametrize("chunk_moves", [4096, 65536])
    def test_level_sweep_d14(self, chunk_moves):
        assert_same_chunks_at_d14("level-sweep", chunk_moves)

    @QUICK
    @given(
        name=st.sampled_from(COLUMNAR),
        d=st.integers(min_value=0, max_value=9),
        chunk_moves=st.integers(min_value=1, max_value=3000),
    )
    def test_random_chunk_sizes(self, name, d, chunk_moves):
        strategy = get_strategy(name)
        cube = Hypercube(d)
        assert_same_chunks(
            strategy.generate_chunks(cube, chunk_moves),
            reference_chunks(strategy, cube, chunk_moves),
        )

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_final_block_equals_materialized_aggregates(self, name):
        strategy = get_strategy(name)
        for d in range(9):
            cube = Hypercube(d)
            *_, last = strategy.generate_chunks(cube, 50)
            schedule = strategy.generate(cube)
            assert last.stats_so_far == scan_moves(schedule.moves)
            assert last.metadata == schedule.metadata

    def test_exact_multiple_ends_in_an_empty_chunk(self):
        """visibility at d=6 has 112 = 7 x 16 moves (at d=18, 19 x 65,536)."""
        strategy = get_strategy("visibility")
        assert formulas.visibility_moves_exact(6) == 7 * 16
        chunks = list(strategy.generate_chunks(Hypercube(6), 16))
        assert [len(c) for c in chunks] == [16] * 7 + [0]
        assert chunks[-1].is_last and chunks[-1].stats_so_far.total_moves == 112
        assert_same_chunks(iter(chunks), reference_chunks(strategy, Hypercube(6), 16))
        assert_prefix_stats(chunks, strategy.generate(Hypercube(6)).moves)

    def test_cold_stream_builds_no_moves(self, monkeypatch):
        def boom(self):
            raise AssertionError("columnar producer materialized a Move")

        monkeypatch.setattr(Move, "__post_init__", boom)
        for name in COLUMNAR:
            *_, last = get_strategy(name).generate_chunks(Hypercube(7), 64)
            assert last.stats_so_far.total_moves > 0


# --------------------------------------------------------------------- #
# the block fold against scan_moves
# --------------------------------------------------------------------- #


def assert_prefix_stats(chunks, moves):
    end = 0
    for chunk in chunks:
        end += len(chunk)
        assert chunk.stats_so_far == scan_moves(moves[:end]), f"prefix {end}"
    assert end == len(moves)


class TestAggregateFold:
    @pytest.mark.parametrize("name", COLUMNAR)
    @pytest.mark.parametrize("chunk_moves", [1, 3, 16, 1000])
    def test_every_chunk_prefix(self, name, chunk_moves):
        schedule = get_strategy(name).generate(Hypercube(5))
        compiled = concat_chunks(chunks_from_schedule(schedule))
        assert_prefix_stats(rechunk((compiled,), chunk_moves), schedule.moves)
        assert_prefix_stats(chunks_from_schedule(schedule, chunk_moves), schedule.moves)
        resliced = rechunk(rechunk((compiled,), 7), chunk_moves)
        assert_prefix_stats(resliced, schedule.moves)

    def test_time_run_split_across_chunks(self):
        """visibility's last wave is one time unit of 2**(d-2) moves; at
        chunk size 3 it spans many chunks, so the open run's agents carry."""
        schedule = get_strategy("visibility").generate(Hypercube(6))
        last_wave = [m for m in schedule.moves if m.time == 6]
        assert len(last_wave) == 16
        assert_prefix_stats(get_strategy("visibility").generate_chunks(Hypercube(6), 3), schedule.moves)

    @QUICK
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.one_of(
                    st.integers(min_value=0, max_value=6),
                    st.sampled_from([-3, 2**40]),
                ),
                st.sampled_from(list(MoveKind)),
                st.sampled_from(list(AgentRole)),
            ),
            max_size=40,
        ),
        chunk_moves=st.integers(min_value=1, max_value=12),
    )
    def test_arbitrary_rows(self, rows, chunk_moves):
        """Repeated agents inside a run, runs of any length, agent ids
        outside the seen-agent bitmap: every prefix still matches."""
        moves = [
            Move(agent=abs(agent), src=0, dst=1, time=time, kind=kind, role=role)
            for time, agent, kind, role in sorted(rows, key=lambda r: r[0])
        ]
        schedule = Schedule(dimension=1, strategy="rows", moves=moves, team_size=1)
        compiled = concat_chunks(chunks_from_schedule(schedule))
        assert_prefix_stats(rechunk((compiled,), chunk_moves), moves)
        # negative ids never come from a Move; feed them as raw columns
        if any(agent < 0 for _, agent, _, _ in rows):
            compiled.agents[0] = -3
            *_, last = refolded(compiled, chunk_moves)
            distinct = {compiled.agents[i] for i in range(len(compiled.agents))}
            assert last.stats_so_far.agents_used == len(distinct)


class TestRechunkPassThrough:
    def test_aligned_chunks_come_out_unchanged(self):
        chunks = list(get_strategy("clean").generate_chunks(Hypercube(5), 16))
        out = list(rechunk(iter(chunks), 16))
        assert len(out) == len(chunks)
        assert all(a is b for a, b in zip(out, chunks))

    def test_full_final_chunk_is_followed_by_an_empty_one(self):
        """One 10^9-move chunk cut at its own length: the output matches
        ``generate_chunks`` at that size, an empty final chunk included."""
        strategy = get_strategy("visibility")
        (whole,) = strategy.generate_chunks(Hypercube(6), 10**9)
        out = list(rechunk(iter([whole]), len(whole)))
        assert_same_chunks(iter(out), strategy.generate_chunks(Hypercube(6), len(whole)))


class TestWholeScheduleChunker:
    @pytest.mark.parametrize("name", sorted(available_strategies()))
    @pytest.mark.parametrize("d", range(1, 9))
    def test_rechunk_of_the_whole_is_the_producer_stream(self, name, d):
        """The whole schedule, sliced at any size — one move, a prime,
        one short of, exactly and one past its length, the default — is
        the producer's stream at that size, chunk for chunk: a length
        that is a multiple of the size ends on an empty final chunk."""
        strategy = get_strategy(name)
        cube = Hypercube(d)
        whole = concat_chunks(chunks_from_schedule(strategy.generate(cube)))
        total = len(whole)
        for chunk_moves in (1, 7, max(total - 1, 1), total, total + 1, 65536):
            assert_same_chunks(
                rechunk((whole,), chunk_moves), strategy.generate_chunks(cube, chunk_moves)
            )


# --------------------------------------------------------------------- #
# same errors at the same point of the stream
# --------------------------------------------------------------------- #


def refolded(whole: ScheduleChunk, chunk_moves: int):
    """The rows of ``whole`` through the one chunk assembler, which
    folds every slice afresh (``rechunk`` would pass a whole chunk no
    longer than ``chunk_moves`` through as it is)."""
    return assemble_chunks(whole.header, _reslice_blocks(iter([whole])), chunk_moves)


def _inverted(at: int) -> ScheduleChunk:
    """visibility d=4 with row ``at`` moved one time unit back."""
    compiled = concat_chunks(
        chunks_from_schedule(get_strategy("visibility").generate(Hypercube(4)))
    )
    assert compiled.times[at] > compiled.times[at - 1]
    compiled.times[at] = compiled.times[at - 1] - 1
    return compiled


def _drain(chunks):
    yielded = []
    with pytest.raises(ScheduleError) as info:
        for chunk in chunks:
            yielded.append(chunk)
    return sum(len(c) for c in yielded), str(info.value)


class TestTimeInversion:
    """visibility d=4 runs its waves at times 1, 2, 3, 4 over rows 0-7,
    8-11, 12-15 and 16-19; moving row 12 back to time 1 is an inversion
    "1 < 2" on the first row of wave 3.  At chunk size 4 or 12 it is a
    chunk's first row, at 5 or 7 it is mid-chunk: either way every chunk
    before the one holding it is yielded, and that one is not."""

    AT = 12
    SIZES = [1, 4, 5, 7, 12, 64]

    @pytest.mark.parametrize("chunk_moves", SIZES)
    def test_compiled_chunks(self, chunk_moves):
        delivered, text = _drain(refolded(_inverted(self.AT), chunk_moves))
        assert text == "chunk stream goes back in time (1 < 2)"
        assert delivered == self.AT // chunk_moves * chunk_moves

    @pytest.mark.parametrize("chunk_moves", SIZES)
    def test_move_stream(self, chunk_moves):
        compiled = _inverted(self.AT)
        moves = chunks_to_schedule((compiled,)).moves
        delivered, text = _drain(chunk_move_stream(compiled.header, iter(moves), chunk_moves))
        assert text == "chunk stream goes back in time (1 < 2)"
        assert delivered == self.AT // chunk_moves * chunk_moves

    @pytest.mark.parametrize("chunk_moves", SIZES)
    def test_rechunk(self, chunk_moves):
        inverted = _inverted(self.AT)
        blocks = list(get_strategy("visibility").generate_chunks(Hypercube(4), 3))
        for chunk in blocks:  # the inverted rows, cut at 3, for rechunk to re-cut
            for i in range(len(chunk)):
                chunk.times[i] = inverted.times[chunk.start_move + i]
        delivered, text = _drain(rechunk(iter(blocks), chunk_moves))
        assert text == "chunk stream goes back in time (1 < 2)"
        assert delivered == self.AT // chunk_moves * chunk_moves

    def test_rechunk_refuses_a_stream_not_cut_evenly(self):
        chunks = list(get_strategy("clean").generate_chunks(Hypercube(4), 8))
        chunks[1] = rechunk_slice(chunks[1], 5)
        with pytest.raises(ScheduleError, match="not cut at 8"):
            list(rechunk(iter(chunks), 8))


def rechunk_slice(chunk, rows):
    """``chunk`` cut down to its first ``rows`` rows (a malformed stream)."""
    return dataclasses.replace(
        chunk, **{name: getattr(chunk, name)[:rows] for name in
                  ("times", "agents", "srcs", "dsts", "kinds", "roles")}
    )


# --------------------------------------------------------------------- #
# the paper's exact counts, streamed up to d=16
# --------------------------------------------------------------------- #


def final_block(name, d):
    *_, last = get_strategy(name).generate_chunks(Hypercube(d))
    return last.stats_so_far


class TestPaperCountsAtScale:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_clean(self, d):
        stats = final_block("clean", d)
        assert stats.agents_used == formulas.clean_peak_agents(d)  # Theorem 2
        assert stats.role_counts[AgentRole.AGENT] == formulas.clean_agent_moves_exact(d)  # Theorem 3
        assert stats.kind_counts[MoveKind.ESCORT] == formulas.clean_sync_escort_moves(d)
        assert stats.role_counts[AgentRole.SYNCHRONIZER] <= formulas.clean_sync_moves_upper_bound(d)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_visibility(self, d):
        stats = final_block("visibility", d)
        assert stats.agents_used == formulas.visibility_agents(d)  # Theorem 5
        assert stats.total_moves == formulas.visibility_moves_exact(d)  # Theorem 8
        assert stats.makespan == d == formulas.visibility_time_steps(d)  # Theorem 7

    @pytest.mark.parametrize("d", range(2, 17))
    def test_cloning(self, d):
        stats = final_block("cloning", d)
        assert stats.agents_used == formulas.cloning_agents(d)
        assert stats.total_moves == (1 << d) - 1 == formulas.cloning_moves(d)
        assert stats.makespan == d == formulas.cloning_time_steps(d)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_level_sweep(self, d):
        """Team ``max C(d,l) + C(d,l+1)`` and ``d 2^d`` moves: each
        level-k node is entered by one k-move dispatch walk and left by one
        k-move return walk.  The streamed schedule verifies on the
        bit-plane kernel without a declined block."""
        strategy = get_strategy("level-sweep")
        final = []

        def tapped(chunks):
            for chunk in chunks:
                final.append(chunk.stats_so_far)
                yield chunk

        report = batch_verify_chunks(tapped(strategy.generate_chunks(Hypercube(d))))
        assert report.ok and report.declined == 0
        assert final[-1].agents_used == report.team_size == level_sweep_peak_agents(d)
        assert final[-1].total_moves == d << d == strategy.expected_total_moves(d)


# --------------------------------------------------------------------- #
# the cache entry of a cold cell
# --------------------------------------------------------------------- #


class PerMoveLevelSweep(LevelSweepStrategy):
    """level-sweep without its columnar producer (unregistered): its
    chunks come from ``chunk_move_stream`` over ``stream_moves``, under
    the same cache fingerprint."""

    def stream_blocks(self, hypercube, block_rows):
        return None


@pytest.mark.parametrize("d", [5, 13])
def test_cold_level_sweep_cell_writes_the_per_move_entry(tmp_path, d):
    """d=13 holds 106,496 moves: two chunks of the cache's block size."""
    columnar, per_move = ScheduleCache(tmp_path / "columnar"), ScheduleCache(tmp_path / "per-move")
    _, _, provenance = sweeps.measure_cell("level-sweep", d, cache=columnar)
    assert provenance["source"] == "generated"
    reference = PerMoveLevelSweep()
    *_, last = per_move.stream_chunks(reference, d)
    assert last.is_last and per_move.stats.stores == 1
    fp = per_move.fingerprint_of(reference, d)
    assert provenance["fingerprint"] == fp
    (entry,) = columnar.entries()
    assert entry.name == per_move.path_for(fp).name
    assert entry.read_bytes() == per_move.path_for(fp).read_bytes()
