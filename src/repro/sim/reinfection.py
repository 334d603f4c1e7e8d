"""Periodic cleaning under re-infection (the Section 1.1 motivation).

"So to ensure that no undesirable intruders are present in a network,
periodic cleaning strategies could be performed by teams of agents" — this
module simulates exactly that lifecycle: the network gets infected (one or
more hosts seed a contamination that spreads to everything reachable
without guards — i.e., between sweeps, everything unguarded), a sweep runs
and is verified, time passes, new infections appear, repeat.

Each period replays the chosen strategy's schedule (optionally from a
different homebase via the XOR automorphism) against a fresh contamination
state and accounts the recurring overhead: moves, steps and agent-time per
period — the "cleaning overhead compared to the normal load" trade-off the
paper motivates.

Capture accounting is *seed-dependent*: each sampled seed hosts an inert
fugitive (arXiv:0802.3512 — it hides at its seed until a searcher steps
onto that node, then flees arbitrarily far through unguarded space), and
the period's ``capture_times`` record the time unit each fugitive's
possible-location set empties, via the shared
:class:`~repro.fastpath.batchsim.ScenarioTimeline` of the period's
homebase.  A homebase-adjacent seed is therefore *not* "captured" when
its node is cleaned in the first unit — it flees and survives until the
sweep's last pocket vanishes.

Determinism: seed sampling and homebase rotation draw from independent
sub-streams of the master RNG (the ``getrandbits(64)`` idiom from
:class:`~repro.sim.intruder.MultiWalkerIntruder`), so toggling
``rotate_homebase`` never reshuffles the seed sequence.  Verification and
timelines are memoized per homebase — a 1000-period run verifies each
distinct translation once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError

__all__ = ["PeriodReport", "PeriodicCleaning"]


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of one infection + sweep cycle.

    ``capture_times[i]`` is the time unit the fugitive seeded at
    ``seeds[i]`` is captured (-1 if it survives the sweep); ``captured``
    is true iff every fugitive of the period was captured.
    """

    period: int
    homebase: int
    seeds: List[int]
    moves: int
    steps: int
    agents: int
    captured: bool
    capture_times: List[int] = field(default_factory=list)


@dataclass
class PeriodicCleaning:
    """A recurring decontamination service for one hypercube.

    Parameters
    ----------
    dimension:
        Hypercube degree.
    strategy:
        Registry name of the sweep strategy (default the fast local one).
    seeds_per_period:
        How many hosts get (re-)infected before each sweep.  In the
        worst-case model an infection spreads to every unguarded host
        before the team reacts, so the sweep must always clean the whole
        cube — the seeds determine where the *intruders* start, not how
        much work the sweep does.
    rotate_homebase:
        If true, each period launches from a different (random) homebase
        using the XOR automorphism — spreading the wear across hosts.
    rng_seed:
        Reproducibility.
    """

    dimension: int
    strategy: str = "visibility"
    seeds_per_period: int = 1
    rotate_homebase: bool = False
    rng_seed: int = 0
    history: List[PeriodReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.core.strategy import get_strategy  # lazy: avoids an
        # import cycle through the package __init__ modules

        if self.seeds_per_period < 1:
            raise ReproError("need at least one infection seed per period")
        master = random.Random(self.rng_seed)
        # Independent sub-streams (the getrandbits(64) idiom): seed
        # sampling must not share a stream with homebase rotation, or
        # toggling rotate_homebase would silently reshuffle every later
        # period's seeds.  Drawn in a fixed, documented order.
        self._seed_rng = random.Random(master.getrandbits(64))
        self._home_rng = random.Random(master.getrandbits(64))
        self._base_schedule = get_strategy(self.strategy).run(self.dimension)
        # whole-schedule chunk + per-homebase caches, built on first use
        # (the fastpath import stays lazy so `import repro.sim` stays light)
        self._whole: Optional[Any] = None
        self._verified: Dict[int, Any] = {}
        self._timelines: Dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    # per-homebase memoization
    # ------------------------------------------------------------------ #

    def _verify_homebase(self, homebase: int):
        """Verify the translated schedule once per distinct homebase."""
        report = self._verified.get(homebase)
        if report is None:
            from repro.analysis.verify import verify_schedule

            schedule = (
                self._base_schedule.translated(homebase)
                if homebase != self._base_schedule.homebase
                else self._base_schedule
            )
            report = verify_schedule(schedule)
            self._verified[homebase] = report
        return report

    def _timeline(self, homebase: int):
        """The shared scenario timeline for one homebase (memoized)."""
        timeline = self._timelines.get(homebase)
        if timeline is None:
            from repro.core.chunkstream import chunks_from_schedule, concat_chunks
            from repro.fastpath.batchsim import ScenarioTimeline

            if self._whole is None:
                self._whole = concat_chunks(chunks_from_schedule(self._base_schedule))
            timeline = ScenarioTimeline(self._whole, homebase)
            self._timelines[homebase] = timeline
        return timeline

    def score_seeds(self, homebase: int, seeds: Sequence[int]) -> List[int]:
        """Capture time unit of the inert fugitive at each seed (-1:
        never captured) under the sweep launched from ``homebase``."""
        timeline = self._timeline(homebase)
        out = []
        for seed in seeds:
            index = timeline.inert_capture_index(seed)
            out.append(timeline.unit_times[index] if index >= 0 else -1)
        return out

    @property
    def verifications(self) -> int:
        """Distinct homebases verified so far (memoization observability)."""
        return len(self._verified)

    # ------------------------------------------------------------------ #
    # the lifecycle
    # ------------------------------------------------------------------ #

    def run_period(self) -> PeriodReport:
        """Infect, sweep, verify; returns (and records) the period report."""
        n = 1 << self.dimension
        homebase = self._home_rng.randrange(n) if self.rotate_homebase else 0
        schedule = (
            self._base_schedule.translated(homebase)
            if homebase
            else self._base_schedule
        )
        # Seeds are sampled as nonzero offsets relative to the homebase
        # and mapped through the same XOR automorphism as the schedule:
        # the drawn sequence is identical whatever the homebase, so
        # rotation changes only the translation, never the stream.
        offsets = self._seed_rng.sample(range(1, n), min(self.seeds_per_period, n - 1))
        seeds = sorted(offset ^ homebase for offset in offsets)

        report = self._verify_homebase(homebase)
        if not report.ok:
            raise ReproError(f"sweep failed in period {len(self.history)}: {report.summary()}")
        # capture check for the specific intruders: each seed hosts an
        # inert fugitive whose possible region is tracked under the sweep
        capture_times = self.score_seeds(homebase, seeds)
        captured = all(t >= 0 for t in capture_times)

        period = PeriodReport(
            period=len(self.history),
            homebase=homebase,
            seeds=seeds,
            moves=schedule.total_moves,
            steps=schedule.makespan,
            agents=schedule.team_size,
            captured=captured,
            capture_times=capture_times,
        )
        self.history.append(period)
        return period

    def run(self, periods: int) -> List[PeriodReport]:
        """Run several cycles; returns the accumulated history."""
        for _ in range(periods):
            self.run_period()
        return list(self.history)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def total_moves(self) -> int:
        return sum(p.moves for p in self.history)

    @property
    def total_steps(self) -> int:
        return sum(p.steps for p in self.history)

    def amortized_overhead(self) -> float:
        """Moves per host per period — the §1.1 overhead figure."""
        if not self.history:
            return 0.0
        return self.total_moves / ((1 << self.dimension) * len(self.history))

    def describe(self) -> str:
        """Multi-line service report: per-period rows plus the overhead."""
        lines = [
            f"periodic cleaning of H_{self.dimension} with {self.strategy}: "
            f"{len(self.history)} periods"
        ]
        for p in self.history:
            lines.append(
                f"  period {p.period}: homebase {p.homebase}, seeds {p.seeds}, "
                f"{p.moves} moves / {p.steps} steps, captured={p.captured} "
                f"at {p.capture_times}"
            )
        lines.append(f"amortized overhead: {self.amortized_overhead():.2f} moves/host/period")
        return "\n".join(lines)
