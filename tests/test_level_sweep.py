"""Tests for the naive level-sweep baseline."""

import pytest

from repro.analysis import formulas
from repro.analysis.verify import verify_schedule
from repro.core.strategy import get_strategy
from repro.search.level_sweep import LevelSweepStrategy, level_sweep_peak_agents

DIMS = list(range(0, 8))


@pytest.fixture(scope="module")
def schedules():
    return {d: LevelSweepStrategy().run(d) for d in DIMS}


class TestCorrectness:
    @pytest.mark.parametrize("d", DIMS)
    def test_invariants(self, schedules, d):
        report = verify_schedule(schedules[d])
        assert report.ok, report.summary()

    def test_strict_contiguity(self, schedules):
        assert verify_schedule(schedules[5], check_contiguity_every_move=True).ok


class TestCost:
    @pytest.mark.parametrize("d", DIMS)
    def test_team_matches_formula(self, schedules, d):
        assert schedules[d].team_size == level_sweep_peak_agents(d)

    @pytest.mark.parametrize("d", range(3, 8))
    def test_needs_more_agents_than_clean(self, schedules, d):
        """The ablation point: without the broadcast-tree reuse choreography
        the team roughly doubles."""
        clean_team = formulas.clean_peak_agents(d)
        assert schedules[d].team_size > clean_team

    def test_ratio_stabilizes_above_one(self):
        """The reuse choreography saves a stable ~27% of the agents
        (ratio -> ~1.37 measured across d)."""
        ratios = [
            level_sweep_peak_agents(d) / formulas.clean_peak_agents(d)
            for d in (8, 10, 12, 14)
        ]
        assert all(1.2 < r < 1.6 for r in ratios)

    @pytest.mark.parametrize("d", DIMS)
    def test_moves_match_closed_form(self, schedules, d):
        """A level-k node is entered by one k-move dispatch walk and left
        by one k-move return walk: sum_k 2k C(d,k) = d 2^d moves."""
        expected = LevelSweepStrategy().expected_total_moves(d)
        assert schedules[d].total_moves == d << d == expected

    @pytest.mark.parametrize("d", range(2, 8))
    def test_moves_O_n_log_n(self, schedules, d):
        n = 1 << d
        assert schedules[d].total_moves <= 2 * n * d

    def test_registered(self):
        assert get_strategy("level-sweep").name == "level-sweep"
