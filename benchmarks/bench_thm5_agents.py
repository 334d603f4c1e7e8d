"""E4 — Theorem 5: the visibility strategy uses exactly n/2 agents.

Measured on both execution planes: the schedule generator's team (d=1..10)
and the asynchronous protocol's spawned-agent count under unit delays
(d=1..12), plus the flow argument of the proof (a type-T(k) node receives
2^{k-1} agents — exactly what it forwards).
"""

from repro.analysis import formulas
from repro.analysis.verify import verify_schedule
from repro.core.strategy import get_strategy
from repro.protocols.visibility_protocol import run_visibility_protocol
from repro.topology.broadcast_tree import BroadcastTree

DIMS = list(range(1, 11))
PROTOCOL_DIMS = list(range(1, 13))


def measure_teams():
    strategy = get_strategy("visibility")
    out = {}
    for d in DIMS:
        schedule = strategy.run(d)
        assert verify_schedule(schedule).ok
        out[d] = schedule
    return out


def test_thm5_agents(benchmark, report):
    schedules = benchmark(measure_teams)

    lines = [f"{'d':>3} {'n':>6} {'agents':>7} {'n/2':>6}"]
    for d in DIMS:
        schedule = schedules[d]
        assert schedule.team_size == (1 << d) // 2
        assert schedule.team_size == formulas.visibility_agents(d)
        lines.append(f"{d:>3} {1 << d:>6} {schedule.team_size:>7} {(1 << d) // 2:>6}")

    # the flow argument: the squad entering a T(k) node equals the sum of
    # squads it forwards, for every node of the cube
    d = 8
    tree = BroadcastTree(d)
    crossings = {}
    for m in schedules[d].moves:
        crossings[(m.src, m.dst)] = crossings.get((m.src, m.dst), 0) + 1
    for parent, child in tree.edges():
        k = tree.node_type(child)
        assert crossings[(parent, child)] == formulas.agents_for_type(k)

    report("thm5_agents", "\n".join(lines))


def test_thm5_protocol_team(benchmark):
    """The asynchronous protocol run also employs exactly n/2 agents."""

    def run():
        out = {}
        for d in PROTOCOL_DIMS:
            result = run_visibility_protocol(d)  # keep the verdict, not the trace
            out[d] = (result.ok, result.summary(), result.team_size)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for d, (ok, summary, team) in results.items():
        assert ok, summary
        assert team == (1 << d) // 2 == formulas.visibility_agents(d)
