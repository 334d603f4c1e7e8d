"""The four workloads of the end-to-end benchmark.

Each workload is a closed loop with one client: one repetition runs to
completion before the next starts.  A workload object has five hooks:

* ``setup(work)`` — the preparation repetitions need.  ``run.py`` runs it
  in a fresh interpreter, so its cost, imports included, is the
  ``setup_s`` metric.  Only ``warm-sweep`` has real work here: the cold
  cache fill.
* ``open(work)`` — point the workload at what ``setup`` left in ``work``.
* ``before_rep()`` — untimed housekeeping between repetitions.
* ``rep(tracer)`` — one timed repetition, returning the program's raw
  outputs.
* ``judge(raw)`` — the untimed output checks of one repetition, as a
  :class:`RepOutcome` that says how much work was done and which
  operations failed.

Workloads call into the program through module attributes
(``sweeps.measure_cell``, ``batchsim.run_batch``, ...) so that the traced
run can wrap those public calls from outside (see ``tracing.py``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import formulas, sweeps
from repro.core.strategy import get_strategy
from repro.exec import runner
from repro.exec.pool import ExecutorConfig
from repro.fastpath import ScheduleCache, batchsim
from repro.obs import SimMetricsCollector, standard_probes
from repro.protocols import clean_protocol, cloning_protocol, visibility_protocol
from repro.sim.scheduling import RandomDelay

#: every cell is verified with the bit-plane kernel, the backend the
#: program uses at large d
BACKEND = "numpy"

#: trials per ``run_batch`` call: the vectorized reachable-intruder path
#: holds one RNG state row per trial (about 5 KiB each), so one 100k-trial
#: call peaks near 800 MiB
SHARD_TRIALS = 10_000

#: executor workers of ``warm-sweep``: the container's CPU count, so the
#: benchmark never oversubscribes the machine it measures
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one preset."""

    cold_dimension: int
    warm_dimensions: Tuple[int, ...]
    #: (intruder policy, dimension, trials) per Monte Carlo campaign
    campaigns: Tuple[Tuple[str, int, int], ...]
    #: (protocol, dimension) per engine run
    protocols: Tuple[Tuple[str, int], ...]


PRESETS: Dict[str, Sizes] = {
    # one repetition takes about 2 s on a 2-CPU container, so a 15 s
    # window holds several and its median is steady
    "full": Sizes(
        cold_dimension=15,
        warm_dimensions=(10, 12, 14, 16),
        campaigns=(("reachable", 10, 100_000), ("inert", 10, 1_000), ("walker", 8, 10)),
        protocols=(("clean", 7), ("visibility", 8), ("cloning", 9)),
    ),
    # d <= 12 everywhere: all four workloads, traced and untraced, in
    # well under a minute
    "smoke": Sizes(
        cold_dimension=11,
        warm_dimensions=(8, 10, 12),
        campaigns=(("reachable", 8, 5_000), ("inert", 8, 200), ("walker", 6, 5)),
        protocols=(("clean", 5), ("visibility", 6), ("cloning", 7)),
    ),
}


@dataclass
class RepOutcome:
    """What one repetition did and whether its outputs were right."""

    #: schedule moves generated+verified or simulated, or Monte Carlo trials
    work: int = 0
    #: operations attempted: one cell, one campaign or one protocol run each
    ops: int = 0
    #: operations whose output failed a check (or that raised)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: seconds per named part of the repetition (one per Monte Carlo policy)
    parts: Dict[str, float] = field(default_factory=dict)
    #: exact per-repetition counters (cache hits, batchsim counters, ...)
    counters: Dict[str, int] = field(default_factory=dict)

    def judge(self, problems: List[str]) -> None:
        """Count one operation, failed when ``problems`` is non-empty."""
        self.ops += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def check_cell(name: str, dimension: int, values: Dict[str, Any]) -> List[str]:
    """The paper's closed forms for one measured (strategy, d) cell."""
    strategy = get_strategy(name)
    expected = {
        "agents": strategy.expected_team_size(dimension),
        "moves": strategy.expected_total_moves(dimension),
        "steps": strategy.expected_makespan(dimension),
    }
    problems = [
        f"{name} d={dimension}: {key}={values.get(key)}, expected {want}"
        for key, want in expected.items()
        if want is not None and values.get(key) != want
    ]
    if name == "clean":
        exact = formulas.clean_agent_moves_exact(dimension)
        if values.get("agent_moves") != exact:
            problems.append(
                f"clean d={dimension}: agent_moves={values.get('agent_moves')}, "
                f"expected {exact} (Theorem 3)"
            )
        bound = formulas.clean_total_moves_upper_bound(dimension)
        if not values.get("moves", bound + 1) <= bound:
            problems.append(f"clean d={dimension}: moves={values.get('moves')} above {bound}")
    return problems


def _attempt(call: Callable[[], Any]) -> Any:
    """``call()``, or the exception it raised: a raising operation is a
    failed operation, judged after the repetition like any other."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - reported by the judge, never swallowed
        return exc


def _failure(label: str, exc: Exception) -> List[str]:
    return [f"{label}: {type(exc).__name__}: {exc}"]


def _empty(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


class Workload:
    """The hooks' defaults: no set-up, no housekeeping, 3 repetitions."""

    name = ""
    min_reps = 3

    def setup(self, work: Path) -> None:
        pass

    def open(self, work: Path) -> None:
        pass

    def before_rep(self) -> None:
        pass

    def rep(self, tracer: Optional[Any] = None) -> Any:
        raise NotImplementedError

    def judge(self, raw: Any) -> RepOutcome:
        raise NotImplementedError


class ColdStream(Workload):
    """Producer-bound: stream d-dimensional schedules through the verifier
    while the cache stores them."""

    name = "cold-stream"
    strategies = ("clean", "visibility", "cloning")

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.dimension = sizes.cold_dimension
        self.cache_dir = Path()

    def setup(self, work: Path) -> None:
        _empty(work / "cache")

    def open(self, work: Path) -> None:
        self.cache_dir = work / "cache"

    def before_rep(self) -> None:
        _empty(self.cache_dir)

    def rep(self, tracer: Optional[Any] = None) -> Any:
        cache = ScheduleCache(self.cache_dir)
        cells = [
            (name, _attempt(lambda: sweeps.measure_cell(
                name, self.dimension, stream=True, cache=cache, backend=BACKEND
            )))
            for name in self.strategies
        ]
        return cells, cache

    def judge(self, raw: Any) -> RepOutcome:
        cells, cache = raw
        out = RepOutcome()
        for name, cell in cells:
            label = f"{name} d={self.dimension}"
            if isinstance(cell, Exception):
                out.judge(_failure(label, cell))
                continue
            values, _, provenance = cell
            problems = check_cell(name, self.dimension, values)
            if provenance.get("source") != "generated":
                problems.append(f"{label}: served warm from an emptied cache")
            out.judge(problems)
            out.work += int(values["moves"])
        out.counters = {f"cache.{k}": v for k, v in cache.stats.as_dict().items()}
        return out


class WarmSweep(Workload):
    """Cache-read-bound: every strategy over a grid of dimensions on the
    executor, served from the cache that setup filled."""

    name = "warm-sweep"
    min_reps = 5

    #: every registered strategy, costliest first: with the dimensions
    #: also descending, the executor starts the longest cells first and
    #: the sweep's makespan depends little on how the small ones pair up
    strategies = ("clean", "level-sweep", "synchronous", "visibility", "cloning")

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.dimensions = tuple(sorted(sizes.warm_dimensions, reverse=True))
        self.cache_dir = Path()

    def setup(self, work: Path) -> None:
        self.open(work)
        _empty(self.cache_dir)
        rows, _ = self.rep()
        failed = [f"{row.strategy} d={row.dimension}" for row in rows if not row.ok]
        if failed:
            raise RuntimeError(f"cold cache fill failed for {', '.join(failed)}")

    def open(self, work: Path) -> None:
        self.cache_dir = work / "cache"

    def rep(self, tracer: Optional[Any] = None) -> Any:
        _, rows, outcomes = runner.parallel_sweep(
            self.strategies,
            self.dimensions,
            ExecutorConfig(jobs=SWEEP_JOBS),
            cache_dir=self.cache_dir,
            backend=BACKEND,
            tracer=tracer,
        )
        return rows, outcomes

    def judge(self, raw: Any) -> RepOutcome:
        rows, outcomes = raw
        out = RepOutcome()
        totals: Dict[str, int] = {}
        for row, outcome in zip(rows, outcomes):
            label = f"{row.strategy} d={row.dimension}"
            if not row.ok:
                out.judge([f"{label}: {outcome.error or 'cell failed'}"])
                continue
            problems = check_cell(row.strategy, row.dimension, row.values)
            stats = (outcome.value or {}).get("cache", {}).get("stats", {})
            if stats.get("misses", 1) != 0 or stats.get("hits") != 1:
                problems.append(f"{label}: not served warm ({stats})")
            out.judge(problems)
            out.work += int(row.values["moves"])
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + int(value)
        out.counters = {f"cache.{k}": v for k, v in totals.items()}
        out.counters["cells"] = len(rows)
        return out


class MonteCarloMix(Workload):
    """batchsim-bound: one campaign per intruder policy on the visibility
    sweep, with random delays and a rotating homebase."""

    name = "montecarlo-mix"

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.specs = [
            batchsim.BatchScenarioSpec(
                dimension=dimension,
                strategy="visibility",
                trials=trials,
                intruder=policy,
                delay="random",
                rotate_homebase=True,
                rng_seed=seed,
            )
            for policy, dimension, trials in sizes.campaigns
        ]
        #: payload digest of each campaign's first repetition; every later
        #: repetition of the same spec must reproduce it byte for byte
        self.digests: Dict[str, str] = {}

    def rep(self, tracer: Optional[Any] = None) -> Any:
        campaigns = []
        for spec in self.specs:
            started = perf_counter()
            result = _attempt(lambda: self._campaign(spec))
            campaigns.append((spec, result, perf_counter() - started))
        return campaigns

    @staticmethod
    def _campaign(spec: Any) -> Any:
        """The campaign in windows of at most :data:`SHARD_TRIALS` trials,
        merged: what a sharded ``repro-search montecarlo`` run computes."""
        shards = [
            batchsim.run_batch(
                spec, start=start, count=min(SHARD_TRIALS, spec.trials - start), backend=BACKEND
            )
            for start in range(0, spec.trials, SHARD_TRIALS)
        ]
        return batchsim.BatchResult.merge(shards)

    def judge(self, raw: Any) -> RepOutcome:
        out = RepOutcome()
        for spec, result, seconds in raw:
            label = f"{spec.intruder} d={spec.dimension}"
            if isinstance(result, Exception):
                out.judge(_failure(label, result))
                continue
            out.judge([f"{label}: {p}" for p in self._check(spec, result)])
            out.work += result.count
            out.parts[spec.intruder] = seconds
            for key, value in result.counters.items():
                out.counters[f"{spec.intruder}.{key}"] = int(value)
        return out

    def _check(self, spec: Any, result: Any) -> List[str]:
        problems = []
        if result.count != spec.trials:
            problems.append(f"{result.count} of {spec.trials} trials scored")
        if result.capture_rate() != 1.0:
            problems.append(f"capture rate {result.capture_rate()}, expected 1.0")
        if spec.intruder == "reachable" and any(
            unit != spec.dimension for unit in result.capture_units
        ):
            problems.append(f"a capture unit is not d={spec.dimension} (Theorem 7)")
        payload = json.dumps(result.to_payload(), sort_keys=True).encode()
        digest = hashlib.sha256(payload).hexdigest()
        if self.digests.setdefault(spec.intruder, digest) != digest:
            problems.append("payload differs from the first repetition's")
        return problems


_RUNNERS = {
    "clean": (clean_protocol, "run_clean_protocol"),
    "visibility": (visibility_protocol, "run_visibility_protocol"),
    "cloning": (cloning_protocol, "run_cloning_protocol"),
}


class EngineReport(Workload):
    """Engine-bound: what ``repro-search report`` runs for each protocol,
    with random delays, a metrics collector and the lenient probes."""

    name = "engine-report"

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.protocols = sizes.protocols
        self.seed = seed

    def rep(self, tracer: Optional[Any] = None) -> Any:
        runs = []
        for protocol, dimension in self.protocols:
            module, attr = _RUNNERS[protocol]
            probes = standard_probes("lenient")
            result = _attempt(lambda: getattr(module, attr)(
                dimension,
                delay=RandomDelay(seed=self.seed),
                subscribers=[SimMetricsCollector(), *probes],
            ))
            runs.append((f"{protocol} d={dimension}", result, probes))
        return runs

    def judge(self, raw: Any) -> RepOutcome:
        out = RepOutcome()
        for label, result, probes in raw:
            if isinstance(result, Exception):
                out.judge(_failure(label, result))
                continue
            problems = [] if result.ok else [f"{label}: {result.summary()}"]
            problems += [f"{label}: PROBE {v.describe()}" for p in probes for v in p.violations]
            out.judge(problems)
            out.work += int(result.total_moves)
        return out


WORKLOADS = {cls.name: cls for cls in (ColdStream, WarmSweep, MonteCarloMix, EngineReport)}


def make(name: str, preset: str, seed: int) -> Workload:
    """Workload ``name`` at ``preset`` sizes, with inputs drawn from ``seed``."""
    return WORKLOADS[name](PRESETS[preset], seed)


def workload_names() -> Sequence[str]:
    return tuple(WORKLOADS)
