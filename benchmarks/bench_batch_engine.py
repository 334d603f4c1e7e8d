"""Perf — the scenario-batch Monte Carlo engine vs. looped engine runs.

Not a paper artifact: quantifies what ``repro.fastpath.batchsim`` buys.
A Monte Carlo campaign over (homebase x delay x intruder) scenarios used
to mean one full discrete-event :class:`~repro.sim.engine.Engine` run
per trial; the batch engine replays the compiled schedule once per
shard and scores every scenario against that shared per-time-unit mask
timeline, a trial launched from another homebase in coordinates
relative to it (the XOR automorphism).

Two measurements, one JSON artifact:

* ``campaign`` — a 10k-trial visibility d=10 campaign with rotating
  homebases through :func:`~repro.fastpath.batchsim.run_batch`, against
  the scalar baseline extrapolated from timed scripted
  :func:`~repro.sim.replay.execute_schedule_on_engine` runs (the engine
  cannot realistically loop 10k times, which is the point);
* ``crosscheck`` — a seed-randomized sample of trials replayed on the
  real engine, asserting identical capture verdicts and capture times:
  trials of that campaign, and trials of a ``walker`` campaign with
  rotating homebases (d=8), each replayed on
  ``Engine(intruder="walker", intruder_seed=...)`` at its homebase —
  which exercises the walker's tie-breaking draw in a frame relative to
  the shared timeline.

Run ``python benchmarks/bench_batch_engine.py`` to measure and write
``BENCH_batch_engine.json`` at the repo root.  Set
``BATCH_ENGINE_SMOKE=1`` for the CI smoke mode (d=5 for both campaigns,
few trials, no timing floor — shared runners jitter; the full mode
asserts the batch path is >= 50x the scalar baseline), which writes the
git-ignored ``BENCH_batch_engine.smoke.json`` instead.
"""

import json
import os
import random
import time
from pathlib import Path


SMOKE = bool(os.environ.get("BATCH_ENGINE_SMOKE"))
#: a smoke run writes a git-ignored sibling, never the committed full-mode result
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_batch_engine.smoke.json" if SMOKE else "BENCH_batch_engine.json"
)

STRATEGY = "visibility"
DIMENSION = 5 if SMOKE else 10
TRIALS = 200 if SMOKE else 10_000
SCALAR_SAMPLE = 5 if SMOKE else 20
CROSSCHECK_SAMPLE = 5 if SMOKE else 10
WALKER_DIMENSION = 5 if SMOKE else 8
WALKER_TRIALS = 40 if SMOKE else 200

#: full-mode acceptance floor (smoke mode only checks correctness)
MIN_SPEEDUP = 50.0


def _spec(dimension=None, trials=None, intruder="reachable"):
    from repro.fastpath.batchsim import BatchScenarioSpec

    return BatchScenarioSpec(
        dimension=DIMENSION if dimension is None else dimension,
        strategy=STRATEGY,
        trials=TRIALS if trials is None else trials,
        intruder=intruder,
        delay="random",
        rotate_homebase=True,
        rng_seed=2005,
    )


_M64, _GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def _mix(z):
    """The SplitMix64 finalizer on a Python int."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _intruder_seeds(spec):
    """Each trial's intruder seed, re-derived from the documented draw
    contract (``repro.fastpath.batchsim``, "Determinism"): slot 1 of
    trial ``t``, ``mix(key_t + 2γ)`` with ``key_t = mix(fold(seed) ^ mix(t))``."""
    key, mag = int(spec.rng_seed < 0), abs(spec.rng_seed)
    while True:  # fold the seed, one 64-bit limb at a time
        key, mag = _mix((key + _GAMMA & _M64) ^ (mag & _M64)), mag >> 64
        if not mag:
            break
    return [_mix(_mix(key ^ _mix(t)) + 2 * _GAMMA & _M64) for t in range(spec.trials)]


def _scalar_capture(schedule, topology, intruder="reachable", intruder_seed=0):
    """One scripted engine run; returns (captured, capture_time)."""
    from repro.sim import replay as replay_mod
    from repro.sim.engine import Engine
    from repro.sim.scheduling import UnitDelay

    per_agent = {}
    for m in schedule.moves:
        per_agent.setdefault(m.agent, []).append(m)
    for moves in per_agent.values():
        moves.sort(key=lambda m: m.time)
    behaviors = [replay_mod._scripted(mv) for _, mv in sorted(per_agent.items())]
    behaviors += [replay_mod._terminator] * max(schedule.team_size - len(per_agent), 0)
    engine = Engine(
        topology,
        behaviors,
        homebase=schedule.homebase,
        delay=UnitDelay(),
        global_clock=True,
        intruder=intruder,
        intruder_seed=intruder_seed,
    )
    capture = []

    def record(event):
        if event.kind == "move" and not capture and engine.intruder.captured:
            capture.append(int(event.time))

    engine.subscribe(record)
    result = engine.run()
    return result.intruder_captured, capture[0] if capture else -1


def timed_campaign():
    """(batch_seconds, result) for the full campaign."""
    from repro.fastpath.batchsim import compile_for_spec, run_batch

    spec = _spec()
    compiled = compile_for_spec(spec)  # timing excludes schedule generation
    start = time.perf_counter()
    result = run_batch(spec, compiled=compiled)
    return time.perf_counter() - start, result


def timed_scalar_baseline(homebases):
    """Best per-trial seconds over sample engine runs of the campaign's
    own homebases (translation included — the scalar path pays it too)."""
    from repro.core.strategy import get_strategy
    from repro.topology.hypercube import Hypercube

    base = get_strategy(STRATEGY).run(DIMENSION)
    topology = Hypercube(DIMENSION)
    per_trial = float("inf")
    for homebase in homebases[:SCALAR_SAMPLE]:
        start = time.perf_counter()
        schedule = base.translated(homebase) if homebase else base
        captured, _ = _scalar_capture(schedule, topology)
        per_trial = min(per_trial, time.perf_counter() - start)
        assert captured
    return per_trial


def timed_walker_campaign():
    """(batch_seconds, result) for the rotating-homebase walker campaign."""
    from repro.fastpath.batchsim import compile_for_spec, run_batch

    spec = _spec(dimension=WALKER_DIMENSION, trials=WALKER_TRIALS, intruder="walker")
    compiled = compile_for_spec(spec)
    start = time.perf_counter()
    result = run_batch(spec, compiled=compiled)
    return time.perf_counter() - start, result


def crosscheck(result, sample_seed=0):
    """Replay sampled trials on the real engine, each at its homebase
    with its intruder seed; verdicts and capture times must agree."""
    from repro.core.strategy import get_strategy
    from repro.topology.hypercube import Hypercube

    spec = result.spec
    base = get_strategy(STRATEGY).run(spec.dimension)
    topology = Hypercube(spec.dimension)
    intruder_seeds = _intruder_seeds(spec)
    rng = random.Random(sample_seed)
    indices = rng.sample(range(result.count), min(CROSSCHECK_SAMPLE, result.count))
    for i in indices:
        homebase = result.homebases[i]
        schedule = base.translated(homebase) if homebase else base
        captured, capture_time = _scalar_capture(
            schedule, topology, spec.intruder, intruder_seeds[result.start + i]
        )
        assert captured == result.captured[i], f"trial {i}: verdict diverged"
        assert capture_time == result.capture_units[i], (
            f"trial {i}: engine captured at {capture_time}, "
            f"batch said {result.capture_units[i]}"
        )
    return len(indices)


def test_batch_matches_scalar_on_sample():
    """Whatever the timings say, batch and engine verdicts must agree."""
    from repro.fastpath.batchsim import run_batch

    result = run_batch(_spec(dimension=4, trials=12))
    from repro.core.strategy import get_strategy
    from repro.topology.hypercube import Hypercube

    base = get_strategy(STRATEGY).run(4)
    topology = Hypercube(4)
    for i in range(result.count):
        schedule = base.translated(result.homebases[i])
        captured, capture_time = _scalar_capture(schedule, topology)
        assert captured == result.captured[i]
        assert capture_time == result.capture_units[i]


def main() -> None:
    """Measure everything and write the JSON artifact."""
    from repro.obs import build_manifest

    batch_seconds, result = timed_campaign()
    scalar_per_trial = timed_scalar_baseline(result.homebases)
    scalar_seconds = scalar_per_trial * result.count
    speedup = scalar_seconds / batch_seconds if batch_seconds else None
    checked = crosscheck(result)
    walker_seconds, walker = timed_walker_campaign()
    walker_checked = crosscheck(walker)

    per_trial_us = batch_seconds / result.count * 1e6
    print(
        f"campaign: {STRATEGY} d={DIMENSION}, {result.count} trials, "
        f"{len(set(result.homebases))} distinct homebases"
    )
    print(f"batch engine  {batch_seconds * 1000:9.1f} ms  ({per_trial_us:.1f} us/trial)")
    print(
        f"scalar loop   {scalar_seconds * 1000:9.1f} ms  "
        f"(extrapolated from {SCALAR_SAMPLE} runs at "
        f"{scalar_per_trial * 1000:.1f} ms/trial)"
    )
    print(f"speedup       {speedup:9.1f}x  (floor {MIN_SPEEDUP}x, smoke={SMOKE})")
    print(f"crosscheck    {checked} sampled trials match the engine exactly")
    print(
        f"walkers       {STRATEGY} d={WALKER_DIMENSION}, {walker.count} trials, "
        f"{len(set(walker.homebases))} distinct homebases, "
        f"{walker_seconds * 1000:.1f} ms; {walker_checked} sampled trials match "
        "Engine(intruder='walker') exactly"
    )

    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"batch engine only {speedup:.1f}x the scalar loop (floor {MIN_SPEEDUP}x)"
        )

    payload = {
        "benchmark": "batch_engine",
        "description": (
            "scenario-batch Monte Carlo campaign on one shared mask timeline "
            "per shard, trials scored in homebase-relative coordinates, vs. "
            "one scripted discrete-event engine run per trial, with an engine "
            "cross-check on sampled trials of it and of a rotating-homebase "
            "walker campaign"
        ),
        "smoke": SMOKE,
        "strategy": STRATEGY,
        "dimension": DIMENSION,
        "trials": TRIALS,
        "manifest": build_manifest(extra={"benchmark": "batch_engine"}),
        "results": {
            "campaign": {
                "batch_seconds": round(batch_seconds, 6),
                "per_trial_us": round(per_trial_us, 3),
                "scalar_per_trial_seconds": round(scalar_per_trial, 6),
                "scalar_seconds_extrapolated": round(scalar_seconds, 6),
                "speedup": round(speedup, 1),
                "distinct_homebases": len(set(result.homebases)),
                "capture_rate": result.capture_rate(),
                "counters": result.counters,
            },
            "crosscheck": {"sampled_trials": checked, "passed": True},
            "walker_crosscheck": {
                "dimension": WALKER_DIMENSION,
                "trials": walker.count,
                "distinct_homebases": len(set(walker.homebases)),
                "batch_seconds": round(walker_seconds, 6),
                "sampled_trials": walker_checked,
                "passed": True,
                "counters": walker.counters,
            },
            "summary": result.summary(),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
