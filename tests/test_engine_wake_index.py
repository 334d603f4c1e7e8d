"""The engine's wake rule against the full scan that defines it.

The engine evaluates a *wait group* — the blocked agents at one node that
yielded one predicate object — once, and only after an event touched what
the group's predicate last read (its node's whiteboard, its neighbours'
states, the clock).  It wakes once per false→true transition: a woken
agent is not evaluated again until its wake-up has run.  It must log,
publish and reschedule exactly what a full scan would.  Three kinds of
evidence:

* golden digests of whole protocol runs — trace, bus stream, counters and
  collector snapshot — pinned as constants the full-scan reference
  produced;
* :class:`PollingEngine`, a test-local engine whose wake rule is that full
  scan, run side by side with the engine on whole protocols and on
  hypothesis-drawn ones, including agents that block at one node on one
  shared predicate object;
* exact evaluation counts, which only an index of shared waits can meet.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from typing import Any, Dict, List, Set
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.states import NodeState
from repro.errors import ReproError
from repro.obs import SimMetricsCollector, standard_probes
from repro.protocols import (
    clean_protocol,
    cloning_protocol,
    frontier_protocol,
    sync_protocol,
    visibility_protocol,
)
from repro.sim.agent import (
    CloneSelf,
    Move,
    NodeView,
    ReadWhiteboard,
    See,
    Terminate,
    UpdateWhiteboard,
    WaitUntil,
    WriteWhiteboard,
)
from repro.sim.engine import Engine
from repro.sim.scheduling import AdversarialSlowestDelay, RandomDelay, UnitDelay
from repro.sim.whiteboard import Whiteboard
from repro.topology.hypercube import Hypercube

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class PollingEngine(Engine):
    """The reference wake rule, a full scan without any index.

    After every event it re-runs every blocked agent's predicate, each
    through a fresh view, and wakes — logs, publishes, reschedules — each
    agent whose predicate holds and that has no live wake, in agent id
    order.  A wake is live from this pass until the agent's wake-up runs;
    there the agent re-checks its predicate through a fresh view and, if
    it is false, stays blocked, logs a new ``wait`` and re-arms a
    ``wake_at`` still ahead.  A ``wake_at`` timer that finds the
    predicate true logs and publishes the agent's ``wake``.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._live: Set[int] = set()
        super().__init__(*args, **kwargs)

    def _polling_view(self, record) -> NodeView:
        node = record.ctx.node
        see = (
            (lambda: {y: self._cmap.state(y) for y in self._topo.neighbors(node)})
            if self._visibility
            else None
        )
        clock = (lambda: self._time) if self._global_clock else None
        return NodeView(node=node, _wb_read=self.board(node).read, _see=see, _clock=clock)

    def _join(self, record, predicate, reads) -> None:
        pass  # no wake index: every blocked agent is scanned

    def _wake_up(self, record) -> bool:
        woken = record.ctx.agent_id in self._live
        self._live.discard(record.ctx.agent_id)
        wait = record.wait
        if not wait.predicate(self._polling_view(record)):
            if woken:  # not a wake_at timer
                if wait.wake_at is not None and wait.wake_at > self._time:
                    self._schedule(record, wait.wake_at)
                self._log_wait(record)
            return False
        if not woken:  # a wake_at timer
            self._log_wake(record)
        record.wait = None
        record.status = "ready"
        self._resume(record, True)
        return True

    def _wake_blocked(self) -> None:
        for record in self._agents.values():
            agent_id = record.ctx.agent_id
            if record.status != "blocked" or agent_id in self._live:
                continue
            if record.wait.predicate(self._polling_view(record)):
                self._live.add(agent_id)
                self._log_wake(record)
                self._schedule(record, self._time)


# --------------------------------------------------------------------- #
# golden digests
# --------------------------------------------------------------------- #

#: protocol -> (module, runner, largest dimension of the matrix)
_RUNNERS = {
    "clean": (clean_protocol, "run_clean_protocol", 6),
    "visibility": (visibility_protocol, "run_visibility_protocol", 7),
    "cloning": (cloning_protocol, "run_cloning_protocol", 7),
    "synchronous": (sync_protocol, "run_synchronous_protocol", 6),
}

#: delay regimes of the matrix, built fresh per run (RandomDelay is stateful)
_DELAYS = {
    "unit": UnitDelay,
    **{f"random{seed}": functools.partial(RandomDelay, seed=seed) for seed in range(4)},
    "straggler0": functools.partial(AdversarialSlowestDelay, [0], factor=50.0),
    "straggler123": functools.partial(AdversarialSlowestDelay, [1, 2, 3], factor=7.0),
}

_INTRUDERS = ("reachable", "walker")


def run_protocol(
    protocol: str, dimension: int, delay: str, intruder: str, engine=Engine, subscribers=()
):
    """One run of the matrix on the engine class ``engine``."""
    if protocol == "frontier":
        tapped = functools.partial(engine, subscribers=list(subscribers))
        with mock.patch.object(frontier_protocol, "Engine", tapped):
            return frontier_protocol.run_frontier_protocol(
                Hypercube(dimension), delay=_DELAYS[delay](), intruder=intruder
            )
    module, runner, _ = _RUNNERS[protocol]
    with mock.patch.object(module, "Engine", engine):
        return getattr(module, runner)(
            dimension, delay=_DELAYS[delay](), intruder=intruder, subscribers=list(subscribers)
        )


def run_digest(protocol: str, dimension: int, delay: str, intruder: str, engine=Engine) -> str:
    """sha256 over everything a run lets a caller observe: every trace
    event, the bus stream, ``event_count``, the verdict line, peak bits,
    agent counts and final states, the metrics collector's snapshot and
    the lenient probes' violations (the manifest's git revision aside).
    ``engine`` is the engine class the protocol runs on."""
    collector = SimMetricsCollector()
    probes = standard_probes("lenient")
    stream: List[Any] = []
    subscribers = [collector, *probes, stream.append]
    result = run_protocol(protocol, dimension, delay, intruder, engine, subscribers)
    h = hashlib.sha256()
    for event in result.trace:
        h.update(repr(event).encode())
    for event in stream:
        h.update(repr(event).encode())
    h.update(
        repr(
            (
                result.event_count,
                result.summary(),
                result.peak_whiteboard_bits,
                result.peak_agent_memory_bits,
                result.team_size,
                result.terminated_agents,
                result.blocked_agents,
                sorted(result.final_states.items()),
            )
        ).encode()
    )
    h.update(json.dumps(collector.snapshot(), sort_keys=True).encode())
    h.update(repr([v.describe() for p in probes for v in p.violations]).encode())
    return h.hexdigest()


def matrix_runs(protocol: str):
    """``(dimension, delay, intruder)`` of every run of the protocol's
    matrix: d = 1.. its maximum (H_2..H_5 for the frontier protocol),
    every delay regime, both intruders."""
    dims = range(2, 6) if protocol == "frontier" else range(1, _RUNNERS[protocol][2] + 1)
    for d in dims:
        for delay in _DELAYS:
            for intruder in _INTRUDERS:
                yield d, delay, intruder


def matrix_digest(protocol: str, engine=Engine) -> str:
    """One digest over the protocol's whole matrix."""
    h = hashlib.sha256()
    for run in matrix_runs(protocol):
        h.update(run_digest(protocol, *run, engine).encode())
    return h.hexdigest()[:16]


#: computed with ``matrix_digest(protocol, PollingEngine)``, the full scan
GOLDEN = {
    "clean": "d2cff35e35c28e58",
    "visibility": "b57947ef4fc0321c",
    "cloning": "5edc9f6dbe249d5b",
    "synchronous": "0fd3a88ab1f0a66f",
    "frontier": "a228ee5c77eb309b",
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_golden_digests_match_full_scan(protocol):
    assert matrix_digest(protocol) == GOLDEN[protocol]


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_wait_and_wake_records_alternate(protocol):
    """In every run of the matrix each agent's ``wait`` and ``wake``
    records alternate, a ``wait`` first: a woken agent that loses the
    race for what it waited on logs its new wait, and a round timer of
    the synchronous protocol that ends a wait logs its wake."""
    for run in matrix_runs(protocol):
        last: Dict[int, str] = {}
        for event in run_protocol(protocol, *run).trace:
            if event.kind in ("wait", "wake"):
                assert last.get(event.agent, "wake") != event.kind, (run, event)
                last[event.agent] = event.kind


def _blocked_count_mismatches(module, runner: str, dimension: int) -> List[Any]:
    """Run the protocol with unit delays and a metrics collector; every
    event but a ``wake`` after which the collector's ``agents_blocked``
    gauge differs from the agents filed in wait groups (a woken agent is
    unfiled before its ``wake`` is published, so ``wake`` events are
    skipped)."""
    engines: List[Engine] = []
    collector = SimMetricsCollector()
    differ: List[Any] = []

    def tapped(*args, **kwargs):
        engines.append(Engine(*args, **kwargs))
        return engines[-1]

    def compare(event) -> None:
        if event.kind == "wake":
            return
        filed = sum(len(group.members) for group in engines[0]._groups.values())
        shown = collector.registry.gauge("agents_blocked").value
        if filed != shown:
            differ.append((event.time, event.kind, filed, shown))

    with mock.patch.object(module, "Engine", tapped):
        result = getattr(module, runner)(
            dimension, delay=UnitDelay(), subscribers=[collector, compare]
        )
    assert result.all_clean
    return differ


def test_collector_blocked_count_follows_the_wait_groups():
    """CLEAN's idle followers race for each dispatch order, and the
    losers are blocked again: the collector counts them as blocked."""
    assert _blocked_count_mismatches(clean_protocol, "run_clean_protocol", 7) == []


def test_collector_blocked_count_follows_the_round_timers():
    """The synchronous agents' round timers end their waits: each timer
    that finds its predicate true publishes the agent's ``wake``."""
    assert _blocked_count_mismatches(sync_protocol, "run_synchronous_protocol", 6) == []


@pytest.mark.parametrize(
    "protocol, dimension",
    [("clean", 5), ("visibility", 6), ("cloning", 6), ("synchronous", 5), ("frontier", 4)],
)
@pytest.mark.parametrize("delay", ["unit", "random1", "straggler123"])
def test_protocol_runs_match_the_full_scan(protocol, dimension, delay):
    """Whole protocol runs, squads sharing one predicate object included,
    observe the same on the engine as on the reference."""
    assert run_digest(protocol, dimension, delay, "walker") == run_digest(
        protocol, dimension, delay, "walker", PollingEngine
    )


# --------------------------------------------------------------------- #
# hypothesis: drawn protocols, index vs full scan
# --------------------------------------------------------------------- #

#: ``a`` twice: most waits and writes meet on one key
_KEYS = ("a", "a", "b")


def _add(key, step=1):
    def mutate(board: Dict[str, Any]) -> int:
        board[key] = board.get(key, 0) + step
        return board[key]

    return mutate


def _safe_neighbours(view) -> int:
    return sum(s is not NodeState.CONTAMINATED for s in view.neighbor_states().values())


def _predicate(spec):
    """A wait predicate from its drawn spec; ``or`` forms short-circuit."""
    kind = spec[0]
    if kind == "board":
        _, key, need = spec
        return lambda view: (view.wb(key) or 0) >= need
    if kind == "sight":
        need = spec[1]
        return lambda view: _safe_neighbours(view) >= need
    if kind == "clock":
        at = spec[1]
        return lambda view: view.time >= at
    if kind == "never":
        return lambda view: False
    _, first, second = spec  # "or"
    left, right = _predicate(first), _predicate(second)
    return lambda view: left(view) or right(view)


def _behaviour(script, clones, shared):
    """A drawn script as a behaviour; ``shared`` holds the run's shared
    predicate objects, which every ``shared`` wait of every agent uses."""

    def behaviour(ctx):
        for op in script:
            kind = op[0]
            if kind == "move":
                yield Move(ctx.node ^ (1 << (op[1] % ctx.dimension)))
            elif kind == "write":
                yield WriteWhiteboard(op[1], op[2])
            elif kind == "update":
                yield UpdateWhiteboard(_add(op[1]))
            elif kind == "read":
                yield ReadWhiteboard(op[1])
            elif kind == "see":
                yield See()
            elif kind == "wait":
                spec, wake_at = op[1], op[2]
                yield WaitUntil(_predicate(spec), description=repr(spec), wake_at=wake_at)
            elif kind == "shared":
                index, wake_at = op[1] % len(shared), op[2]
                yield WaitUntil(shared[index], description=f"shared {index}", wake_at=wake_at)
            elif kind == "clone":
                yield CloneSelf(_behaviour(clones[op[1] % len(clones)], clones, shared))
        yield Terminate()

    return behaviour


_board_specs = st.tuples(st.just("board"), st.sampled_from(_KEYS), st.integers(1, 2))
_leaf_specs = st.one_of(
    _board_specs,
    _board_specs,
    st.tuples(st.just("sight"), st.integers(1, 4)),
    st.tuples(st.just("clock"), st.integers(1, 10)),
    st.just(("never",)),
)
_wait_specs = st.one_of(
    _leaf_specs, st.tuples(st.just("or"), _leaf_specs, _leaf_specs)
)
_wake_ats = st.one_of(st.none(), st.integers(1, 10).map(float))
_waits = st.one_of(
    st.tuples(st.just("wait"), _wait_specs, _wake_ats),
    st.tuples(st.just("shared"), st.integers(0, 2), _wake_ats),
)
_updates = st.tuples(st.just("update"), st.sampled_from(_KEYS))
_writes = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(_KEYS), st.integers(0, 2)), _updates, _updates
)
# waits and writes weigh more than moves, so agents meet on one board
_plain_ops = st.one_of(
    _waits,
    _waits,
    _waits,
    _writes,
    _writes,
    _writes,
    st.tuples(st.just("move"), st.integers(0, 3)),
    st.one_of(st.tuples(st.just("read"), st.sampled_from(_KEYS)), st.just(("see",))),
)
_clone_scripts = st.lists(_plain_ops, max_size=5)
_scripts = st.lists(
    st.one_of(_plain_ops, st.tuples(st.just("clone"), st.integers(0, 2))), max_size=10
)
#: a capability is granted three times in four; without it the protocol's
#: first use of it raises, which both engines must do identically
_capability = st.sampled_from([True, True, True, False])


@st.composite
def drawn_runs(draw, squads=False):
    """A drawn run.  With ``squads`` every agent first waits on one of
    the run's shared predicates, so squads block at the homebase on one
    predicate object and the writers among them flip it."""
    if squads:
        opening = st.tuples(st.just("shared"), st.integers(0, 1), _wake_ats)
        scripts = st.tuples(opening, _scripts).map(lambda drawn: [drawn[0], *drawn[1]])
        team = draw(st.lists(scripts, min_size=3, max_size=6))
    else:
        team = draw(st.lists(_scripts, min_size=2, max_size=5))
    clones = draw(st.lists(_clone_scripts, min_size=1, max_size=3))
    crashes = draw(
        st.dictionaries(st.integers(0, len(team) - 1), st.integers(0, 8), max_size=2)
    )
    return {
        "dimension": draw(st.integers(1, 4)),
        "team": team,
        "clones": clones,
        "shared": draw(st.lists(_wait_specs, min_size=1, max_size=3)),
        "delay_seed": draw(st.one_of(st.none(), st.integers(0, 3))),
        "visibility": draw(_capability),
        "cloning": draw(_capability),
        "global_clock": draw(_capability),
        "intruder": draw(st.sampled_from(_INTRUDERS)),
        "fault_plan": crashes,
    }


def _observe(engine_cls, run) -> Dict[str, Any]:
    """Everything observable of one run: outcome, trace, bus stream."""
    stream: List[str] = []
    seed = run["delay_seed"]
    shared = [_predicate(spec) for spec in run["shared"]]
    engine = engine_cls(
        Hypercube(run["dimension"]),
        [_behaviour(script, run["clones"], shared) for script in run["team"]],
        delay=UnitDelay() if seed is None else RandomDelay(seed=seed),
        visibility=run["visibility"],
        cloning=run["cloning"],
        global_clock=run["global_clock"],
        intruder=run["intruder"],
        fault_plan=run["fault_plan"],
        max_events=20_000,
        subscribers=[lambda event: stream.append(repr(event))],
    )
    try:
        result = engine.run()
        outcome = (result.summary(), result.event_count, result.blocked_agents)
    except ReproError as exc:
        outcome = (type(exc).__name__, str(exc))
    return {
        "outcome": outcome,
        "trace": [repr(event) for event in engine._trace],
        "stream": stream,
    }


@FUZZ
@given(drawn_runs())
def test_index_matches_full_scan_on_drawn_protocols(run):
    assert _observe(Engine, run) == _observe(PollingEngine, run)


@FUZZ
@given(drawn_runs(squads=True))
def test_wait_groups_match_full_scan_on_drawn_squads(run):
    assert _observe(Engine, run) == _observe(PollingEngine, run)


# --------------------------------------------------------------------- #
# evaluation counts
# --------------------------------------------------------------------- #
#
# Each waiter logs the engine's time at every evaluation of its predicate.
# The time is read from the engine, not through the view, so the log
# itself adds nothing to the predicate's reads.


def _counted(predicate, calls: List[float], now):
    def wrapped(view):
        calls.append(now())
        return predicate(view)

    return wrapped


def _walker(path, write_first=None):
    def behaviour(ctx):
        if write_first is not None:
            yield WriteWhiteboard(*write_first)
        for node in path:
            yield Move(node)
        yield Terminate()

    return behaviour


def _waiter(predicate, calls, now):
    def behaviour(ctx):
        yield WaitUntil(_counted(predicate, calls, now))
        yield Terminate()

    return behaviour


@pytest.mark.parametrize("moves", [1, 6, 25])
def test_board_waiter_runs_twice_while_others_move(moves):
    """A board waiter at node 0 runs its predicate at its wait and after
    the one board write on node 0 — never for the moves elsewhere."""
    calls: List[float] = []
    waiter = _waiter(lambda view: view.wb("go") == 1, calls, lambda: engine.time)
    walker = _walker(([1, 3] * moves)[:moves], write_first=("noise", 1))
    engine = Engine(Hypercube(3), [waiter, walker])
    result = engine.run()
    assert result.total_moves == moves
    assert result.blocked_agents == 1
    assert calls == [0.0, 0.0]


def test_board_waiter_wakes_on_the_write_it_waits_for():
    calls: List[float] = []
    waiter = _waiter(lambda view: view.wb("go") == 1, calls, lambda: engine.time)

    def writer(ctx):
        for node in (1, 3, 1, 0):
            yield Move(node)
        yield WriteWhiteboard("go", 1)
        yield Terminate()

    engine = Engine(Hypercube(3), [waiter, writer])
    result = engine.run()
    assert result.blocked_agents == 0
    # the wait, the write, the re-check at wake-up
    assert calls == [0.0, 4.0, 4.0]
    assert [e.kind for e in result.trace if e.agent == 0] == ["wait", "wake", "terminate"]


def test_sight_waiter_reruns_only_on_its_neighbourhood():
    """Node 0's neighbours are 1, 2 and 4: the moves onto 1, off 1 and
    onto 4 re-run the predicate; the moves among 3, 7 and 5 do not."""
    calls: List[float] = []
    waiter = _waiter(lambda view: _safe_neighbours(view) == 3, calls, lambda: engine.time)
    engine = Engine(Hypercube(3), [waiter, _walker([1, 3, 7, 5, 4])], visibility=True)
    result = engine.run()
    assert result.total_moves == 5
    assert calls == [0.0, 1.0, 2.0, 5.0]


def test_clock_waiter_reruns_once_per_clock_advance():
    """Three agents move in lockstep (three events per instant): the clock
    waiter re-runs once per advance, not once per event."""
    calls: List[float] = []
    waiter = _waiter(lambda view: view.time >= 99, calls, lambda: engine.time)
    movers = [_walker([1 << k, 0, 1 << k, 0, 1 << k]) for k in range(3)]
    engine = Engine(Hypercube(3), [waiter, *movers], global_clock=True)
    result = engine.run()
    assert result.total_moves == 15
    assert calls == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_predicate_reading_nothing_is_never_rerun():
    calls: List[float] = []
    waiter = _waiter(lambda view: False, calls, lambda: engine.time)
    walker = _walker([1, 0, 1], write_first=("x", 1))
    engine = Engine(Hypercube(2), [waiter, walker], visibility=True, global_clock=True)
    result = engine.run()
    assert result.total_moves == 3
    assert calls == [0.0]


def test_short_circuit_refiles_under_the_new_reads():
    """``armed and time >= 99``: while the board is unarmed the clock is
    not read, so the advance to 1 does not re-run it; once the write at 2
    arms the board, the next evaluation reads the clock too, and every
    later advance re-runs it."""
    calls: List[float] = []
    waiter = _waiter(
        lambda view: bool(view.wb("armed")) and view.time >= 99, calls, lambda: engine.time
    )

    def mover(ctx):
        yield Move(1)
        yield Move(0)
        yield WriteWhiteboard("armed", 1)
        yield Move(1)
        yield Move(0)
        yield Terminate()

    engine = Engine(Hypercube(2), [waiter, mover], global_clock=True)
    result = engine.run()
    assert result.blocked_agents == 1
    assert calls == [0.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("shared", [True, False])
def test_squad_on_one_predicate_object_is_evaluated_once_per_event(shared):
    """Four waiters at node 0: each evaluates at its own wait and at its
    own wake-up, but one shared predicate object is evaluated once for
    all four after each write on node 0 (the noise at 0, the go at 2),
    where four distinct objects are evaluated four times."""
    calls: List[float] = []
    one = _counted(lambda view: view.wb("go") == 1, calls, lambda: engine.time)

    def waiter(ctx):
        yield WaitUntil(one if shared else _counted(one, [], lambda: 0.0))
        yield Terminate()

    def writer(ctx):
        yield WriteWhiteboard("noise", 1)
        yield Move(1)
        yield Move(0)
        yield WriteWhiteboard("go", 1)
        yield Terminate()

    engine = Engine(Hypercube(2), [waiter] * 4 + [writer])
    result = engine.run()
    assert result.blocked_agents == 0
    per_write = 1 if shared else 4
    assert calls == [0.0] * (4 + per_write) + [2.0] * (per_write + 4)
    for agent in range(4):
        assert [e.kind for e in result.trace if e.agent == agent] == [
            "wait", "wake", "terminate"
        ]


def test_one_wake_per_transition():
    """Agent 1's write wakes agent 0; the writes of agents 2 and 3 on the
    same board run before agent 0's wake-up, and neither logs nor
    evaluates anything for it again."""
    calls: List[float] = []

    def writer(key):
        def behaviour(ctx):
            yield WriteWhiteboard(key, 1)
            yield Terminate()

        return behaviour

    waiter = _waiter(lambda view: view.wb("go") == 1, calls, lambda: engine.time)
    engine = Engine(Hypercube(2), [waiter, writer("go"), writer("x"), writer("y")])
    result = engine.run()
    assert [e.kind for e in result.trace if e.kind in ("wait", "wake")] == ["wait", "wake"]
    # the wait, the write of "go", the re-check at the wake-up
    assert calls == [0.0, 0.0, 0.0]


def test_groups_that_hold_together_wake_in_agent_id_order():
    """Agents 0 and 2 wait on one predicate object, 1 and 3 on another;
    one write makes both hold, and the four wake in agent id order, not
    group by group."""

    def first(view):
        return view.wb("go") == 1

    def second(view):
        return (view.wb("go") or 0) >= 1

    def waiter(predicate):
        def behaviour(ctx):
            yield WaitUntil(predicate)
            yield Terminate()

        return behaviour

    def writer(ctx):
        yield WriteWhiteboard("go", 1)
        yield Terminate()

    team = [waiter(first), waiter(second), waiter(first), waiter(second), writer]
    result = Engine(Hypercube(2), team).run()
    assert [e.agent for e in result.trace if e.kind == "wake"] == [0, 1, 2, 3]


def test_woken_agent_that_loses_the_race_refiles():
    """Two waiters share one predicate object; one slot wakes both, the
    first takes it, and the second's re-check fails: it re-files, logs a
    second wait, and the next slot wakes it once more."""
    calls: List[float] = []
    has_slot = _counted(lambda view: (view.wb("slots") or 0) >= 1, calls, lambda: engine.time)

    def waiter(ctx):
        yield WaitUntil(has_slot)
        yield UpdateWhiteboard(_add("slots", -1))
        yield Terminate()

    def poster(ctx):
        yield UpdateWhiteboard(_add("slots", 1))
        yield Move(1)
        yield Move(0)
        yield UpdateWhiteboard(_add("slots", 1))
        yield Terminate()

    engine = Engine(Hypercube(2), [waiter, waiter, poster])
    result = engine.run()
    assert result.blocked_agents == 0
    kinds = {a: [e.kind for e in result.trace if e.agent == a] for a in (0, 1)}
    assert kinds == {
        0: ["wait", "wake", "terminate"],
        1: ["wait", "wake", "wait", "wake", "terminate"],
    }
    # two waits, one group evaluation, two re-checks (the second fails);
    # then one evaluation of agent 1's new group and its re-check
    assert calls == [0.0] * 5 + [2.0] * 2


@pytest.mark.parametrize("engine_cls", [Engine, PollingEngine])
def test_woken_agent_that_loses_the_race_keeps_its_timer(engine_cls):
    """Two waiters share a predicate that one slot or the clock at 5
    makes true, with a ``wake_at`` timer at 5.  The one slot wakes both;
    the first takes it, and the second re-files with its timer scheduled
    again (its wake-up superseded it), so the timer resumes it at t=5 —
    logging the ``wake`` — instead of leaving it blocked for good."""

    def slot_or_late(view):
        return (view.wb("slots") or 0) >= 1 or view.time >= 5

    def waiter(ctx):
        yield WaitUntil(slot_or_late, wake_at=5)
        yield UpdateWhiteboard(_add("slots", -1))
        yield Terminate()

    def poster(ctx):
        yield UpdateWhiteboard(_add("slots", 1))
        yield Terminate()

    result = engine_cls(Hypercube(2), [waiter, waiter, poster], global_clock=True).run()
    assert not result.deadlocked and result.blocked_agents == 0
    assert [(e.time, e.kind) for e in result.trace if e.agent == 1] == [
        (0, "wait"), (0, "wake"), (0, "wait"), (5, "wake"), (5, "terminate")
    ]


# --------------------------------------------------------------------- #
# whiteboard reads
# --------------------------------------------------------------------- #


def test_scalar_read_returns_the_stored_object(monkeypatch):
    wb = Whiteboard(0, 3)
    big, text = 10**30, "squad" * 3
    wb.write("n", big)
    wb.write("s", text)
    wb.write("f", 2.5)
    wb.write("b", True)
    wb.write("z", None)

    def no_copy(value, memo=None):
        raise AssertionError("a scalar read deep-copied")

    monkeypatch.setattr(copy, "deepcopy", no_copy)
    assert wb.read("n") is big
    assert wb.read("s") is text
    assert wb.read("f") == 2.5 and wb.read("b") is True
    assert wb.read("z") is None and wb.read("missing") is None


def test_container_read_is_still_a_copy():
    wb = Whiteboard(0, 3)
    wb.write("arrivals", [1, 2])
    got = wb.read("arrivals")
    got.append(3)
    assert wb.read("arrivals") == [1, 2]
    assert wb.read() == {"arrivals": [1, 2]} and wb.read() is not wb._data
