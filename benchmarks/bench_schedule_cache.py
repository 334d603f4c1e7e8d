"""Perf — columnar schedules, the schedule cache, and the batch verifier.

Not a paper artifact: quantifies what the ``repro.fastpath`` plane buys.
Three measurements, one JSON artifact:

* ``compile``   — size on disk of the cache entry (the chunked columnar
  layout, the cache's only one) vs. the schedule's JSON form, per
  strategy;
* ``sweep``     — wall time of the full sweep grid against an empty
  cache directory (*cold*: stream the producer + store while streaming
  + verify the chunks) and again against the populated one (*warm*:
  stream off disk + verify + measure), asserting the warm rows match a
  cache-less serial sweep cell-for-cell;
* ``verify``    — one large schedule replayed by the classic
  :class:`~repro.analysis.verify.ScheduleVerifier` and by
  :func:`~repro.fastpath.batch_verify`, asserting identical verdicts.

Run ``python benchmarks/bench_schedule_cache.py`` to measure and write
``BENCH_schedule_cache.json`` at the repo root.  Set
``SCHEDULE_CACHE_SMOKE=1`` for the CI smoke mode (small grid, no timing
thresholds — shared runners jitter too much for hard perf gates there;
the full mode asserts warm >= 5x cold and batch >= 10x classic), which
writes the git-ignored ``BENCH_schedule_cache.smoke.json`` instead.
"""

import json
import os
import tempfile
import time
from pathlib import Path


SMOKE = bool(os.environ.get("SCHEDULE_CACHE_SMOKE"))
#: a smoke run writes a git-ignored sibling, never the committed full-mode result
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_schedule_cache.smoke.json" if SMOKE else "BENCH_schedule_cache.json"
)

STRATEGIES = ["clean", "visibility", "cloning"]
DIMENSIONS = [4, 5] if SMOKE else [8, 10, 12]
VERIFY_STRATEGY = "clean"
VERIFY_DIMENSION = 6 if SMOKE else 13
REPEATS = 1 if SMOKE else 3

#: full-mode acceptance floors (smoke mode only checks correctness)
MIN_WARM_SPEEDUP = 5.0
MIN_VERIFY_SPEEDUP = 10.0


def _flat(rows):
    return [row.as_flat_dict() for row in rows]


def compile_ratios():
    """Per-strategy cache-entry-vs-JSON sizes at the largest grid dimension."""
    from repro.core.chunkstream import chunks_from_schedule, concat_chunks
    from repro.core.strategy import get_strategy
    from repro.fastpath import ScheduleCache

    d = max(DIMENSIONS)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = ScheduleCache(Path(tmp))
        for name in STRATEGIES:
            strategy = get_strategy(name)
            schedule = strategy.run(d)
            whole = concat_chunks(chunks_from_schedule(schedule))
            entry_bytes = cache.store(
                cache.fingerprint_of(strategy, d), whole
            ).stat().st_size
            json_bytes = len(schedule.to_json().encode("utf-8"))
            out[name] = {
                "dimension": d,
                "moves": len(whole),
                "entry_bytes": entry_bytes,
                "json_bytes": json_bytes,
                "bytes_per_move": round(entry_bytes / max(len(whole), 1), 2),
                "json_over_entry": round(json_bytes / entry_bytes, 2),
            }
    return out


def timed_sweep(cache_dir):
    """One full grid against ``cache_dir``; returns (seconds, rows, stats)."""
    from repro.analysis.sweeps import run_sweep
    from repro.fastpath import ScheduleCache

    cache = ScheduleCache(Path(cache_dir))
    start = time.perf_counter()
    _, rows = run_sweep(STRATEGIES, DIMENSIONS, cache=cache)
    return time.perf_counter() - start, _flat(rows), cache.stats.as_dict()


def timed_verify():
    """Classic vs. batch verification of one large schedule."""
    from repro.analysis.verify import verify_schedule
    from repro.core.chunkstream import chunks_from_schedule, concat_chunks
    from repro.core.strategy import get_strategy
    from repro.fastpath import batch_verify

    schedule = get_strategy(VERIFY_STRATEGY).run(VERIFY_DIMENSION)
    whole = concat_chunks(chunks_from_schedule(schedule))

    classic_best = batch_best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        classic = verify_schedule(schedule)
        classic_best = min(classic_best, time.perf_counter() - start)
        start = time.perf_counter()
        batch = batch_verify(whole)
        batch_best = min(batch_best, time.perf_counter() - start)

    for field in ("monotone", "contiguous", "complete", "intruder_captured", "ok"):
        assert getattr(classic, field) == getattr(batch, field), field
    return classic_best, batch_best, len(whole)


def test_warm_rows_match_cacheless():
    """Whatever the timings say, the cached tables must agree."""
    global DIMENSIONS
    saved = DIMENSIONS
    DIMENSIONS = [3, 4]  # keep the correctness check fast
    try:
        from repro.analysis.sweeps import run_sweep

        _, plain_rows = run_sweep(STRATEGIES, DIMENSIONS)
        with tempfile.TemporaryDirectory() as tmp:
            _, cold_rows, cold_stats = timed_sweep(tmp)
            _, warm_rows, warm_stats = timed_sweep(tmp)
        assert cold_rows == _flat(plain_rows)
        assert warm_rows == _flat(plain_rows)
        assert cold_stats["misses"] == len(cold_rows)
        assert warm_stats["hits"] == len(warm_rows)
    finally:
        DIMENSIONS = saved


def main() -> None:
    """Measure everything and write the JSON artifact."""
    from repro.obs import build_manifest

    ratios = compile_ratios()

    with tempfile.TemporaryDirectory() as tmp:
        cold_seconds, cold_rows, cold_stats = timed_sweep(tmp)
        warm_seconds, warm_rows, warm_stats = timed_sweep(tmp)
        for _ in range(REPEATS - 1):
            seconds, rows, _ = timed_sweep(tmp)
            warm_seconds = min(warm_seconds, seconds)
            assert rows == warm_rows
    assert warm_rows == cold_rows, "warm table diverged from cold"
    assert cold_stats["misses"] == len(cold_rows) and cold_stats["hits"] == 0
    assert warm_stats["hits"] == len(warm_rows) and warm_stats["misses"] == 0

    classic_seconds, batch_seconds, verify_moves = timed_verify()

    warm_speedup = cold_seconds / warm_seconds if warm_seconds else None
    verify_speedup = classic_seconds / batch_seconds if batch_seconds else None
    print(f"grid: {len(STRATEGIES)} strategies x d={DIMENSIONS}")
    print(f"cold sweep    {cold_seconds * 1000:9.1f} ms  ({cold_stats})")
    print(f"warm sweep    {warm_seconds * 1000:9.1f} ms  (speedup {warm_speedup:.1f}x)")
    print(
        f"verify d={VERIFY_DIMENSION} ({verify_moves} moves): "
        f"classic {classic_seconds * 1000:.1f} ms, "
        f"batch {batch_seconds * 1000:.1f} ms  (speedup {verify_speedup:.1f}x)"
    )
    for name, ratio in ratios.items():
        print(
            f"compile {name:<12} d={ratio['dimension']}: "
            f"{ratio['entry_bytes']} B entry vs {ratio['json_bytes']} B JSON "
            f"({ratio['json_over_entry']}x)"
        )

    if not SMOKE:
        assert warm_speedup >= MIN_WARM_SPEEDUP, (
            f"warm sweep only {warm_speedup:.1f}x cold (floor {MIN_WARM_SPEEDUP}x)"
        )
        assert verify_speedup >= MIN_VERIFY_SPEEDUP, (
            f"batch verify only {verify_speedup:.1f}x classic "
            f"(floor {MIN_VERIFY_SPEEDUP}x)"
        )

    payload = {
        "benchmark": "schedule_cache",
        "description": (
            "chunked cache-entry sizes, cold vs warm sweep wall time "
            "against a content-addressed schedule cache, and the mask-kernel "
            "batch verifier vs the classic replay verifier"
        ),
        "smoke": SMOKE,
        "strategies": STRATEGIES,
        "dimensions": DIMENSIONS,
        "repeats": REPEATS,
        "manifest": build_manifest(extra={"benchmark": "schedule_cache"}),
        "results": {
            "compile": ratios,
            "sweep": {
                "cold_seconds": round(cold_seconds, 6),
                "warm_seconds": round(warm_seconds, 6),
                "warm_speedup": round(warm_speedup, 3),
                "cold_stats": cold_stats,
                "warm_stats": warm_stats,
            },
            "verify": {
                "strategy": VERIFY_STRATEGY,
                "dimension": VERIFY_DIMENSION,
                "moves": verify_moves,
                "classic_seconds": round(classic_seconds, 6),
                "batch_seconds": round(batch_seconds, 6),
                "batch_speedup": round(verify_speedup, 3),
            },
            "rows": cold_rows,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
