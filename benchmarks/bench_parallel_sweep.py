"""Perf — parallel sweep executor vs. the serial sweep loop.

Not a paper artifact: quantifies what the ``repro.exec`` worker pool
buys (and costs).  The same sweep grid — every strategy over
``d = [8, 10, 12]`` — is timed three ways:

* ``serial``    — the in-process :func:`repro.analysis.sweeps.run_sweep`
  loop the CLI uses at ``--jobs 1``,
* ``jobs=1``    — the executor with a single worker (measures the
  process-per-job overhead in isolation),
* ``jobs=N``    — the executor at the requested width (default 4, or
  ``PARALLEL_SWEEP_JOBS``).

Speedup is wall-clock ``serial / jobs=N``.  The artifact records
``cpu_count`` and ``cpus_available`` because the achievable speedup is
bounded by the scheduler: on a single-CPU container the pool can only
interleave, so ``speedup <= 1`` there, while the same grid on a 4-core
CI runner shows the real fan-out.  Every configuration asserts that the
merged rows are identical to the serial table — a benchmark that
changed the numbers would be measuring a bug.

Run ``python benchmarks/bench_parallel_sweep.py`` to measure and write
``BENCH_parallel_sweep.json`` at the repo root.  Set
``PARALLEL_SWEEP_SMOKE=1`` for the CI smoke mode (small grid, single
repeat), which writes the git-ignored ``BENCH_parallel_sweep.smoke.json``
instead.
"""

import json
import os
import time
from pathlib import Path


SMOKE = bool(os.environ.get("PARALLEL_SWEEP_SMOKE"))
#: a smoke run writes a git-ignored sibling, never the committed full-mode result
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_parallel_sweep.smoke.json" if SMOKE else "BENCH_parallel_sweep.json"
)
JOBS = int(os.environ.get("PARALLEL_SWEEP_JOBS", "4"))

STRATEGIES = ["clean", "visibility", "cloning"]
DIMENSIONS = [4, 5] if SMOKE else [8, 10, 12]
REPEATS = 1 if SMOKE else 3


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _flat(rows):
    return [row.as_flat_dict() for row in rows]


def timed_serial():
    from repro.analysis.sweeps import run_sweep

    best, flat = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, rows = run_sweep(STRATEGIES, DIMENSIONS)
        best = min(best, time.perf_counter() - start)
        flat = _flat(rows)
    return best, flat


def timed_parallel(jobs: int):
    from repro.exec import ExecutorConfig, parallel_sweep

    config = ExecutorConfig(jobs=jobs)
    best, flat = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, rows, outcomes = parallel_sweep(STRATEGIES, DIMENSIONS, config)
        best = min(best, time.perf_counter() - start)
        assert all(o.ok for o in outcomes)
        flat = _flat(rows)
    return best, flat


def test_parallel_rows_match_serial():
    """Whatever the timings say, the tables must agree cell-for-cell."""
    global DIMENSIONS, REPEATS
    saved = DIMENSIONS, REPEATS
    DIMENSIONS, REPEATS = [3, 4], 1  # keep the correctness check fast
    try:
        _, serial_rows = timed_serial()
        _, parallel_rows = timed_parallel(jobs=2)
        assert parallel_rows == serial_rows
    finally:
        DIMENSIONS, REPEATS = saved


def main() -> None:
    """Measure all three configurations and write the JSON artifact."""
    from repro.obs import build_manifest

    serial_seconds, serial_rows = timed_serial()
    one_seconds, one_rows = timed_parallel(jobs=1)
    n_seconds, n_rows = timed_parallel(jobs=JOBS)
    assert one_rows == serial_rows, "jobs=1 table diverged from serial"
    assert n_rows == serial_rows, f"jobs={JOBS} table diverged from serial"

    speedup = serial_seconds / n_seconds if n_seconds else None
    overhead = one_seconds / serial_seconds if serial_seconds else None
    cpus = _cpus_available()
    print(f"grid: {len(STRATEGIES)} strategies x d={DIMENSIONS}")
    print(f"serial        {serial_seconds * 1000:9.1f} ms")
    print(f"executor x1   {one_seconds * 1000:9.1f} ms  ({overhead:.2f}x serial)")
    print(f"executor x{JOBS}   {n_seconds * 1000:9.1f} ms  (speedup {speedup:.2f}x)")
    print(f"cpus: {cpus} available / {os.cpu_count()} online")

    # On a single-CPU box the pool can only interleave, so speedup <= 1
    # is expected, not a regression — say so loudly in both the console
    # output and the artifact so perf trajectories aren't misread.
    warning = None
    if cpus <= 1:
        warning = (
            f"cpus_available == {cpus}: the worker pool cannot fan out, so "
            f"speedup_vs_serial ({speedup:.2f}x) measures scheduling "
            "overhead, not parallel throughput; do not read this run as a "
            "perf regression"
        )
        print(f"WARNING: {warning}")

    payload = {
        "benchmark": "parallel_sweep",
        "description": (
            "wall time of the full strategy sweep grid: serial in-process "
            "loop vs. the fault-tolerant executor at one and at N workers; "
            "speedup is bounded above by cpus_available"
        ),
        "smoke": SMOKE,
        "strategies": STRATEGIES,
        "dimensions": DIMENSIONS,
        "repeats": REPEATS,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "cpus_available": cpus,
        "warning": warning,
        "manifest": build_manifest(extra={"benchmark": "parallel_sweep"}),
        "results": {
            "serial_seconds": round(serial_seconds, 6),
            "executor_1_seconds": round(one_seconds, 6),
            f"executor_{JOBS}_seconds": round(n_seconds, 6),
            "executor_overhead_vs_serial": round(overhead, 3),
            "speedup_vs_serial": round(speedup, 3),
            "rows": serial_rows,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
