"""Perf — the bit-plane kernel at d=20 on a clean and a corrupt stream.

Not a paper artifact: pins what `repro.fastpath.npkernels` carries at
the largest dimension it claims.  Two stages, one JSON artifact; each
stage runs in a fresh interpreter (so its peak RSS is its own) under a
768 MiB address-space cap (``RLIMIT_AS``) armed before its first chunk:

* ``stream_verify_d20`` — a CLEAN schedule at d=20 (1,048,576 nodes)
  generated, streamed and batch-verified in one pass with the packed
  bit-plane verifier;
* ``corrupt_stream_d20`` — the same stream with one non-edge move
  injected mid-way through the final chunk.  The verifier must reject it
  with :class:`~repro.errors.ScheduleError` at the injected move's global
  index.  The kernel declines that block and the reference replay,
  rebuilt from the kernel's state, reports the error — so this stage
  shows the rejection path fits the same cap.

Monte Carlo throughput is measured by the end-to-end benchmark's
``montecarlo-mix`` workload, and verifier parity by
``tests/test_npkernels.py``.

Run ``python benchmarks/bench_npkernels.py`` to measure and write
``BENCH_npkernels.json`` at the repo root.  Set ``NPKERNELS_SMOKE=1``
for the CI smoke mode (d=10, same assertions, same cap).
"""

import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_npkernels.json"

SMOKE = bool(os.environ.get("NPKERNELS_SMOKE"))

VERIFY_STRATEGY = "clean"
VERIFY_DIMENSION = 10 if SMOKE else 20
VERIFY_CHUNK_MOVES = 4096 if SMOKE else 65536

ADDRESS_SPACE_CAP_MIB = 768


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (Linux ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextmanager
def address_space_cap(mib: int):
    """Clamp ``RLIMIT_AS`` to ``mib`` for the duration of the block."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mib * 2**20, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _chunks():
    from repro.core.strategy import get_strategy
    from repro.topology.hypercube import Hypercube

    strategy = get_strategy(VERIFY_STRATEGY)
    return strategy.generate_chunks(Hypercube(VERIFY_DIMENSION), VERIFY_CHUNK_MOVES)


def _stage_fields(seconds: float) -> dict:
    return {
        "strategy": VERIFY_STRATEGY,
        "dimension": VERIFY_DIMENSION,
        "nodes": 1 << VERIFY_DIMENSION,
        "chunk_moves": VERIFY_CHUNK_MOVES,
        "address_space_cap_mib": ADDRESS_SPACE_CAP_MIB,
        "one_pass": True,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def stream_verify_d20():
    """The headline: one-pass generate + verify inside the memory cap.

    The cap is armed before the first chunk is produced, so the whole
    stage — pure-Python producer, packed-plane verifier, every scratch
    allocation — must fit the same budget the CI streaming smoke
    enforces with ``ulimit -v``.
    """
    from repro.fastpath import batch_verify_chunks

    start = time.perf_counter()
    with address_space_cap(ADDRESS_SPACE_CAP_MIB):
        report = batch_verify_chunks(_chunks())
    seconds = time.perf_counter() - start
    assert report.ok, report.violations
    return {
        **_stage_fields(seconds),
        "moves": report.total_moves,
        "makespan": report.makespan,
        "team_size": report.team_size,
        "moves_per_second": round(report.total_moves / seconds),
    }


def corrupt_stream_d20():
    """The same stream with one non-edge move in the final chunk: it must
    be rejected at that move's global index, inside the same cap."""
    from repro.errors import ScheduleError
    from repro.fastpath import batch_verify_chunks

    injected = {}

    def corrupted(chunks):
        for chunk in chunks:
            if chunk.is_last:
                i = len(chunk) // 2
                # two coordinates away from the source: a node, not a neighbour
                chunk.dsts[i] = chunk.srcs[i] ^ 3
                injected["move"] = chunk.start_move + i
            yield chunk

    start = time.perf_counter()
    with address_space_cap(ADDRESS_SPACE_CAP_MIB):
        try:
            batch_verify_chunks(corrupted(_chunks()))
        except ScheduleError as exc:
            error = str(exc)
        else:
            raise AssertionError("the corrupt stream was accepted")
    seconds = time.perf_counter() - start
    assert error.startswith(f"move #{injected['move']} ") and "is not an edge" in error, error
    return {**_stage_fields(seconds), "injected_move": injected["move"], "error": error}


STAGES = {
    "stream_verify_d20": stream_verify_d20,
    "corrupt_stream_d20": corrupt_stream_d20,
}


def run_stage(name: str) -> dict:
    """One stage in a fresh interpreter; its result is the last stdout line."""
    done = subprocess.run(
        [sys.executable, __file__, name], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    """Measure both stages and write the JSON artifact."""
    if len(sys.argv) > 1:
        print(json.dumps(STAGES[sys.argv[1]]()))
        return
    from repro.obs import build_manifest

    stream = run_stage("stream_verify_d20")
    corrupt = run_stage("corrupt_stream_d20")
    print(
        f"stream verify {VERIFY_STRATEGY} d={stream['dimension']}: "
        f"{stream['moves']} moves in {stream['seconds']}s "
        f"({stream['moves_per_second']}/s), peak RSS {stream['peak_rss_mb']} MiB "
        f"under a {ADDRESS_SPACE_CAP_MIB} MiB address-space cap"
    )
    print(
        f"corrupt stream d={corrupt['dimension']}: rejected at move "
        f"#{corrupt['injected_move']} in {corrupt['seconds']}s, peak RSS "
        f"{corrupt['peak_rss_mb']} MiB under the same cap"
    )
    payload = {
        "benchmark": "npkernels",
        "description": (
            "Bit-plane kernel at d=20 under a 768 MiB address-space cap: "
            "one-pass generate + verify of the CLEAN stream, and rejection "
            "of the same stream with one non-edge move in its final chunk"
        ),
        "smoke": SMOKE,
        "manifest": build_manifest(extra={"benchmark": "npkernels"}),
        "results": {
            "stream_verify_d20": stream,
            "corrupt_stream_d20": corrupt,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
