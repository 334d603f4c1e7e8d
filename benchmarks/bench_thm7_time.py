"""E5 — Theorem 7: the visibility strategy cleans in exactly log n steps.

Measured as: the schedule makespan equals d for every dimension (d=1..10);
class C_i is cleaned exactly during wave i (the proof's induction); and the
asynchronous protocol under unit delays reproduces the same makespan
(d=1..12) — exponentially faster than CLEAN, which is the headline of
Section 4.
"""

from repro.analysis.verify import verify_schedule
from repro.core.strategy import get_strategy
from repro.protocols.visibility_protocol import run_visibility_protocol
from repro.topology.broadcast_tree import BroadcastTree
from repro.topology.hypercube import Hypercube

DIMS = list(range(1, 11))
PROTOCOL_DIMS = list(range(1, 13))


def measure():
    strategy = get_strategy("visibility")
    return {d: strategy.run(d) for d in DIMS}


def test_thm7_log_n_steps(benchmark, report):
    schedules = benchmark(measure)

    lines = [f"{'d':>3} {'n':>6} {'steps':>6} {'log n':>6} {'CLEAN steps':>12}"]
    for d in DIMS:
        assert schedules[d].makespan == d
        clean_steps = get_strategy("clean").run(d).makespan
        lines.append(
            f"{d:>3} {1 << d:>6} {schedules[d].makespan:>6} {d:>6} {clean_steps:>12}"
        )
        if d >= 4:
            assert schedules[d].makespan < clean_steps  # exponentially faster

    # proof induction: C_i's (non-leaf) nodes become clean during wave i
    d = 7
    h = Hypercube(d)
    tree = BroadcastTree(d)
    rep = verify_schedule(schedules[d])
    for x in range(h.n):
        if not tree.is_leaf(x):
            assert rep.clean_times[x] == h.class_index(x) + 1

    report("thm7_time", "\n".join(lines))


def test_thm7_protocol_makespan(benchmark):
    def run():
        out = {}
        for d in PROTOCOL_DIMS:
            result = run_visibility_protocol(d)  # keep the verdict, not the trace
            out[d] = (result.ok, result.summary(), result.makespan)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for d, (ok, summary, makespan) in results.items():
        assert ok, summary
        assert makespan == float(d)
