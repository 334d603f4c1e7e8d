"""A1 — ablation: the paper's strategies vs optimal and naive baselines.

Quantifies the design choices DESIGN.md calls out:

* brute-force optimum on small hypercubes — how close the strategies sit
  to the true minimum (the paper's open lower-bound question);
* naive level-sweep — what the broadcast-tree reuse choreography saves
  (~27% of the agents at equal move order), with the sweep's exact team
  and its ``d 2^d`` moves checked up to d=16;
* tree search (Barriere et al.) — the known-optimal substrate result the
  paper builds on (checked optimal on tree families).
"""

from repro.analysis import formulas
from repro.analysis.verify import ScheduleVerifier, verify_schedule
from repro.core.strategy import get_strategy
from repro.fastpath import batch_verify_chunks
from repro.search.level_sweep import level_sweep_peak_agents
from repro.search.optimal import optimal_search_number
from repro.search.tree_search import tree_search_number, tree_strategy_schedule
from repro.topology.generic import hypercube_graph, tree_graph


def small_cube_comparison():
    rows = {}
    for d in (1, 2, 3):
        rows[d] = {
            "optimal": optimal_search_number(hypercube_graph(d)),
            "clean": get_strategy("clean").run(d).team_size,
            "visibility": get_strategy("visibility").run(d).team_size,
            "level-sweep": get_strategy("level-sweep").run(d).team_size,
        }
    return rows


def test_ablation_optimality_gap(benchmark, report):
    rows = benchmark(small_cube_comparison)

    lines = [f"{'d':>3} {'optimal':>8} {'clean':>7} {'visibility':>11} {'sweep':>7}"]
    for d, row in rows.items():
        assert row["optimal"] <= row["clean"]
        assert row["optimal"] <= row["visibility"]
        lines.append(
            f"{d:>3} {row['optimal']:>8} {row['clean']:>7} "
            f"{row['visibility']:>11} {row['level-sweep']:>7}"
        )

    # measured facts: visibility is optimal on H_1..H_3; CLEAN pays +1 on
    # H_2/H_3 for its synchronizer
    assert rows[3]["optimal"] == 4
    assert rows[3]["visibility"] == 4
    assert rows[3]["clean"] == 5
    report("ablation_optimality_gap", "\n".join(lines))


#: largest d whose sweep is materialized and checked by the reference
#: replay verifier; above it the schedule streams through the bit-plane one
REFERENCE_MAX_D = 9


def test_ablation_reuse_choreography(benchmark, report):
    """CLEAN vs the naive two-full-levels sweep across dimensions, d=2..16."""
    sweep_strategy = get_strategy("level-sweep")

    def measure():
        out = {}
        for d in range(2, REFERENCE_MAX_D + 1):
            sweep = sweep_strategy.run(d)
            assert verify_schedule(sweep).ok
            out[d] = (formulas.clean_peak_agents(d), sweep.team_size, sweep.total_moves)
        for d in range(REFERENCE_MAX_D + 1, 17):
            verdict = batch_verify_chunks(sweep_strategy.run_chunks(d))
            assert verdict.ok and verdict.declined == 0
            out[d] = (formulas.clean_peak_agents(d), verdict.team_size, verdict.total_moves)
        return out

    measured = benchmark(measure)
    lines = [f"{'d':>3} {'clean agents':>13} {'sweep agents':>13} {'ratio':>7} {'sweep moves':>12}"]
    for d, (clean_team, sweep_team, sweep_moves) in measured.items():
        assert sweep_team == level_sweep_peak_agents(d)
        assert sweep_moves == d << d == sweep_strategy.expected_total_moves(d)
        if d >= 3:
            assert sweep_team > clean_team
        lines.append(
            f"{d:>3} {clean_team:>13} {sweep_team:>13} "
            f"{sweep_team / clean_team:>7.3f} {sweep_moves:>12}"
        )
    report("ablation_reuse_choreography", "\n".join(lines))


def test_ablation_tree_substrate(benchmark, report):
    """The [1] tree strategy is optimal on every sampled tree, with linear
    moves — the substrate result the contiguous model builds on."""
    families = {
        "path-10": tree_graph([i for i in range(9)]),
        "star-8": tree_graph([0] * 8),
        "binary-15": tree_graph([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]),
        "spider-3x3": tree_graph([0, 1, 2, 0, 4, 5, 0, 7, 8]),
        "caterpillar": tree_graph([0, 1, 2, 3, 0, 1, 2, 3]),
    }

    def measure():
        out = {}
        for name, tree in families.items():
            agents = tree_search_number(tree)
            schedule = tree_strategy_schedule(tree)
            assert ScheduleVerifier(tree).verify(schedule).ok
            out[name] = (tree.n, agents, optimal_search_number(tree), schedule.total_moves)
        return out

    measured = benchmark(measure)
    lines = [f"{'tree':<14} {'n':>4} {'agents':>7} {'optimal':>8} {'moves':>7}"]
    for name, (n, agents, optimal, moves) in measured.items():
        assert agents == optimal  # the recursion is exact
        assert moves <= 2 * n * agents  # linear in n for bounded team
        lines.append(f"{name:<14} {n:>4} {agents:>7} {optimal:>8} {moves:>7}")
    report("ablation_tree_substrate", "\n".join(lines))
