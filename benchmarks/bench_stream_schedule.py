"""Perf — the bounded-memory chunk-stream pipeline at paper scale.

Not a paper artifact: quantifies what the chunk plane buys.  Three
measurements, one JSON artifact:

* ``stream_verify`` — the headline number: a CLEAN schedule at d=18
  (262144 nodes, ~3.7M moves) generated, streamed and batch-verified in
  one pass without ever materializing the move plane; reports wall time
  and peak RSS.  Materialized, the same schedule is millions of ``Move``
  objects — more memory than the whole streaming run by orders of
  magnitude;
* ``memory``       — ``tracemalloc`` peaks of the monolithic pipeline
  (generate → assemble the whole chunk → verify) vs. the streaming one at a mid
  dimension, asserting the streaming peak is a fraction of the
  monolithic one;
* ``chunked_cache`` — cold (generate + stream-to-disk) vs. warm (stream
  off the chunked cache entry) wall time with the per-chunk hit/store
  counters, asserting the warm stream assembles to a whole-schedule
  chunk equal to the cold one.

Run ``python benchmarks/bench_stream_schedule.py`` to measure and write
``BENCH_stream_schedule.json`` at the repo root.  Set
``STREAM_SCHEDULE_SMOKE=1`` for the CI smoke mode (small dimensions, no
timing thresholds — shared runners jitter too much for hard perf gates
there; the full mode asserts the memory ratio and warm speedup floors),
which writes the git-ignored ``BENCH_stream_schedule.smoke.json`` instead.
"""

import json
import os
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path


SMOKE = bool(os.environ.get("STREAM_SCHEDULE_SMOKE"))
#: a smoke run writes a git-ignored sibling, never the committed full-mode result
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_stream_schedule.smoke.json" if SMOKE else "BENCH_stream_schedule.json"
)

STREAM_STRATEGY = "clean"
STREAM_DIMENSION = 8 if SMOKE else 18
MEMORY_DIMENSION = 8 if SMOKE else 12
CACHE_DIMENSION = 6 if SMOKE else 12
CHUNK_MOVES = 4096 if SMOKE else 65536

#: full-mode acceptance floors (smoke mode only checks correctness)
MIN_MEMORY_RATIO = 3.0
MIN_WARM_SPEEDUP = 1.5


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (Linux ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stream_verify():
    """The headline: generate + verify at d=18, never the move plane."""
    from repro.core.strategy import get_strategy
    from repro.fastpath import batch_verify_chunks
    from repro.topology.hypercube import Hypercube

    strategy = get_strategy(STREAM_STRATEGY)
    start = time.perf_counter()
    report = batch_verify_chunks(
        strategy.generate_chunks(Hypercube(STREAM_DIMENSION), CHUNK_MOVES)
    )
    seconds = time.perf_counter() - start
    assert report.ok, report.violations
    return {
        "strategy": STREAM_STRATEGY,
        "dimension": STREAM_DIMENSION,
        "nodes": 1 << STREAM_DIMENSION,
        "moves": report.total_moves,
        "makespan": report.makespan,
        "team_size": report.team_size,
        "chunk_moves": CHUNK_MOVES,
        "seconds": round(seconds, 3),
        "moves_per_second": round(report.total_moves / seconds),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def memory_comparison():
    """tracemalloc peaks: monolithic vs. streaming pipeline."""
    from repro.core.chunkstream import chunks_from_schedule, concat_chunks
    from repro.core.strategy import get_strategy
    from repro.fastpath import batch_verify, batch_verify_chunks
    from repro.topology.hypercube import Hypercube

    strategy = get_strategy(STREAM_STRATEGY)
    cube = Hypercube(MEMORY_DIMENSION)

    tracemalloc.start()
    mono_report = batch_verify(
        concat_chunks(chunks_from_schedule(strategy.generate(cube)))
    )
    _, mono_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    stream_report = batch_verify_chunks(strategy.generate_chunks(cube, CHUNK_MOVES))
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert stream_report == mono_report, "streaming verdict diverged"
    return {
        "dimension": MEMORY_DIMENSION,
        "moves": mono_report.total_moves,
        "chunk_moves": CHUNK_MOVES,
        "monolithic_peak_bytes": mono_peak,
        "streaming_peak_bytes": stream_peak,
        "ratio": round(mono_peak / max(stream_peak, 1), 2),
    }


def chunked_cache():
    """Cold stream-to-disk vs. warm stream-off-disk, with counters."""
    from repro.core.chunkstream import concat_chunks
    from repro.core.strategy import get_strategy
    from repro.fastpath import ScheduleCache

    strategy = get_strategy(STREAM_STRATEGY)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ScheduleCache(Path(tmp))
        start = time.perf_counter()
        cold = list(cache.stream_chunks(strategy, CACHE_DIMENSION, chunk_moves=CHUNK_MOVES))
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = list(cache.stream_chunks(strategy, CACHE_DIMENSION, chunk_moves=CHUNK_MOVES))
        warm_seconds = time.perf_counter() - start
        stats = cache.stats.as_dict()
    assert concat_chunks(warm) == concat_chunks(cold), "warm chunk stream diverged from cold"
    assert stats["chunk_stores"] == len(cold) and stats["chunk_hits"] == len(warm)
    return {
        "dimension": CACHE_DIMENSION,
        "chunk_moves": CHUNK_MOVES,
        "chunks": len(cold),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        "stats": stats,
    }


def main() -> None:
    """Measure everything and write the JSON artifact."""
    from repro.obs import build_manifest

    memory = memory_comparison()
    cache = chunked_cache()
    stream = stream_verify()  # last: its RSS high-water mark is the headline

    print(
        f"stream verify {STREAM_STRATEGY} d={stream['dimension']}: "
        f"{stream['moves']} moves in {stream['seconds']}s "
        f"({stream['moves_per_second']}/s), peak RSS {stream['peak_rss_mb']} MiB"
    )
    print(
        f"memory d={memory['dimension']}: monolithic {memory['monolithic_peak_bytes']} B "
        f"vs streaming {memory['streaming_peak_bytes']} B ({memory['ratio']}x)"
    )
    print(
        f"chunked cache d={cache['dimension']}: cold {cache['cold_seconds'] * 1000:.1f} ms, "
        f"warm {cache['warm_seconds'] * 1000:.1f} ms ({cache['warm_speedup']}x), "
        f"{cache['chunks']} chunk(s)"
    )

    if not SMOKE:
        assert memory["ratio"] >= MIN_MEMORY_RATIO, (
            f"streaming peak only {memory['ratio']}x below monolithic "
            f"(floor {MIN_MEMORY_RATIO}x)"
        )
        assert cache["warm_speedup"] >= MIN_WARM_SPEEDUP, (
            f"warm chunk stream only {cache['warm_speedup']}x cold "
            f"(floor {MIN_WARM_SPEEDUP}x)"
        )

    payload = {
        "benchmark": "stream_schedule",
        "description": (
            "bounded-memory chunk pipeline: one-pass generate+verify at d=18 "
            "without materializing the move plane, monolithic vs streaming "
            "tracemalloc peaks, and cold vs warm chunked-cache streaming"
        ),
        "smoke": SMOKE,
        "manifest": build_manifest(extra={"benchmark": "stream_schedule"}),
        "results": {
            "stream_verify": stream,
            "memory": memory,
            "chunked_cache": cache,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
