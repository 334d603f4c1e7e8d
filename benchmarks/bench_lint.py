"""Perf — the incremental lint cache: cold vs warm whole-tree analysis.

Not a paper artifact: quantifies what the content-addressed lint cache
(:class:`repro.lint.LintCache`) buys on the repo's own tree.  Two
measurements, one JSON artifact:

* ``cold`` — full ``repro-lint --self`` analysis into an empty cache
  directory (parse + per-file rules + call-graph walk + store);
* ``warm`` — the same analysis again: every per-file entry and the
  whole-program tree entry must be served from the cache, so the run
  analyzes **0** files and must report the identical findings.

Run ``python benchmarks/bench_lint.py`` to measure and write
``BENCH_lint.json`` at the repo root.  Set ``LINT_BENCH_SMOKE=1`` for
the CI smoke mode (single repeat, no timing floor — shared runners
jitter too much for hard perf gates; the full mode asserts warm >= 2x
cold), which writes the git-ignored ``BENCH_lint.smoke.json`` instead.
"""

import json
import os
import tempfile
import time
from pathlib import Path


SMOKE = bool(os.environ.get("LINT_BENCH_SMOKE"))
#: a smoke run writes a git-ignored sibling, never the committed full-mode result
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_lint.smoke.json" if SMOKE else "BENCH_lint.json"
)

REPEATS = 1 if SMOKE else 3

#: full-mode acceptance floor (smoke mode only checks correctness)
MIN_WARM_SPEEDUP = 2.0


def _finding_key(finding):
    return (finding.code, finding.path, finding.line, finding.column, finding.message)


def _run_once(paths, cache_dir):
    from repro.lint import LintCache, run_analysis

    start = time.perf_counter()
    run = run_analysis(paths, cache=LintCache(cache_dir))
    return time.perf_counter() - start, run


def main():
    from repro.lint import self_paths
    from repro.obs import build_manifest

    paths = self_paths()

    cold_seconds = []
    warm_seconds = []
    cold_run = warm_run = None
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory(prefix="lint-bench-") as tmp:
            cache_dir = Path(tmp) / "cache"
            elapsed, cold_run = _run_once(paths, cache_dir)
            cold_seconds.append(elapsed)
            elapsed, warm_run = _run_once(paths, cache_dir)
            warm_seconds.append(elapsed)

    assert cold_run is not None and warm_run is not None
    assert warm_run.files_analyzed == 0, (
        f"warm run re-analyzed {warm_run.files_analyzed} files — the cache leaks"
    )
    assert warm_run.files_cached == cold_run.files_scanned - len(cold_run.errors)
    assert warm_run.tree_cache_hit, "whole-program results were recomputed"
    assert list(map(_finding_key, warm_run.findings)) == list(
        map(_finding_key, cold_run.findings)
    ), "warm findings differ from cold — the cache is unsound"

    cold = min(cold_seconds)
    warm = min(warm_seconds)
    speedup = cold / warm if warm > 0 else float("inf")

    print(f"files scanned  {cold_run.files_scanned}")
    print(f"cold analysis  {cold * 1000:9.1f} ms  ({cold_run.files_analyzed} analyzed)")
    print(
        f"warm analysis  {warm * 1000:9.1f} ms  "
        f"({warm_run.files_cached} from cache, speedup {speedup:.1f}x)"
    )

    if not SMOKE:
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm lint only {speedup:.1f}x cold (floor {MIN_WARM_SPEEDUP}x)"
        )

    payload = {
        "benchmark": "lint",
        "description": (
            "cold vs warm whole-tree `repro-lint --self` wall time against "
            "the content-addressed incremental lint cache"
        ),
        "smoke": SMOKE,
        "repeats": REPEATS,
        "manifest": build_manifest(extra={"benchmark": "lint"}),
        "results": {
            "files_scanned": cold_run.files_scanned,
            "cold": {
                "seconds": round(cold, 6),
                "files_analyzed": cold_run.files_analyzed,
                "files_cached": cold_run.files_cached,
            },
            "warm": {
                "seconds": round(warm, 6),
                "files_analyzed": warm_run.files_analyzed,
                "files_cached": warm_run.files_cached,
                "tree_cache_hit": warm_run.tree_cache_hit,
            },
            "warm_speedup": round(speedup, 3),
            "findings": len(cold_run.findings),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
