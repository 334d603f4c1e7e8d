"""The asynchronous discrete-event executor for agent protocols.

The engine is the substrate standing in for the paper's real network: it
hosts a team of agent behaviours (generators yielding
:mod:`~repro.sim.agent` actions), charges every action a duration chosen by
the adversary (:class:`~repro.sim.scheduling.DelayModel`), serializes
whiteboard access (fair mutual exclusion via FIFO event ordering), evolves
the exact contamination dynamics on every move, and co-simulates the
omniscient intruder.

Capability flags configure which model of the paper is in force:

* default — the Section 3 whiteboard model;
* ``visibility=True`` — Section 4 ("an agent can see whether its
  neighbouring nodes are clean or guarded or contaminated");
* ``cloning=True`` — the Section 5 cloning observation;
* ``global_clock=True`` — the Section 5 synchronous observation (agents
  may consult the time; pair with :class:`~repro.sim.scheduling.UnitDelay`).

An action that needs a capability the engine was not given raises
:class:`~repro.errors.AgentError` — protocols cannot quietly use more
power than their model grants.

Waking blocked agents
---------------------
A blocked agent waits on a :class:`~repro.sim.agent.WaitUntil` predicate
over its :class:`~repro.sim.agent.NodeView`.  The blocked agents at one
node that yielded the same predicate object form a *wait group*, which
is evaluated once for all of them.  Every evaluation records what the
predicate read through the view — its node's whiteboard, its
neighbours' states, the clock — and the group is filed under those
reads.  After an event the engine re-evaluates only the groups whose
reads the event touched: a board written or updated on their node, a
neighbour whose state flipped (recontamination floods included), a clock
advance.  A predicate that read nothing is never re-run.  So a predicate
must depend only on what it reads through the view.

Each false→true transition wakes once.  When a group's predicate holds,
every member is logged as ``wake``, published and rescheduled (a token
bump) in agent id order — the members of all groups that hold after one
event merged into one id order — and the group leaves the wake index.
A woken agent is not evaluated again until its wake-up runs.  There it
re-checks its own predicate under mutual exclusion: it resumes if the
predicate still holds, and otherwise joins its node's group for that
predicate again, to be woken by the next transition or by its
``wake_at`` timer, scheduled again if still ahead.  A timer that fires on
a filed agent whose predicate holds logs and publishes the ``wake``
itself, so every agent's ``wait`` and ``wake`` records alternate.

Instrumentation
---------------
The engine carries an :class:`~repro.obs.bus.EventBus`: subscribers
(metric collectors, invariant probes, JSONL streamers — see
:mod:`repro.obs`) receive typed events for every move, clone, wait/wake,
whiteboard write, recontamination, contiguity break and phase transition.
The contract is *zero overhead when unobserved*: every emission site is
guarded by one ``if self._subscribers:`` truthiness test on the live
subscriber list, so with no subscriber attached the engine never
constructs an event object (``BENCH_obs_overhead.json`` tracks both the
unobserved and the fully-instrumented cost).  Every run also stamps its
:class:`SimResult` with a :mod:`~repro.obs.manifest` record (seed,
topology, capability model, delay model, git revision).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro._bitops import iter_set_bits
from repro.errors import AgentError, SimulationError
from repro.obs.bus import EventBus, Subscriber
from repro.obs.events import (
    CloneEvent,
    ContiguityLostEvent,
    CrashEvent,
    MoveEvent,
    PhaseEvent,
    RecontaminationEvent,
    RunEndEvent,
    RunStartEvent,
    SpawnEvent,
    TerminateEvent,
    WaitEvent,
    WakeEvent,
    WhiteboardEvent,
)
from repro.obs.manifest import build_manifest
from repro.obs.trace import get_active_tracer
from repro.sim.agent import (
    AgentContext,
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
from repro.sim.contamination import ContaminationMap
from repro.sim.events import EventQueue
from repro.sim.intruder import ReachableSetIntruder, WalkerIntruder
from repro.sim.scheduling import DelayModel, UnitDelay
from repro.sim.trace import Trace, TraceEvent
from repro.sim.whiteboard import Whiteboard

__all__ = ["Engine", "SimResult"]

BehaviorFactory = Callable[[AgentContext], Any]

#: what one predicate evaluation read through its view (bit flags)
_BOARD, _SIGHT, _CLOCK = 1, 2, 4


@dataclass
class SimResult:
    """Outcome of one engine run."""

    n: int
    delay_model: str
    trace: Trace
    all_clean: bool
    monotone: bool
    contiguous: bool
    intruder_captured: bool
    deadlocked: bool
    makespan: float
    total_moves: int
    team_size: int
    terminated_agents: int
    blocked_agents: int
    event_count: int
    peak_whiteboard_bits: int
    peak_agent_memory_bits: int
    final_states: Dict[int, Any] = field(default_factory=dict)
    #: Attribution record for this run (see :mod:`repro.obs.manifest`).
    manifest: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Cleaning succeeded with all invariants intact."""
        return (
            self.all_clean
            and self.monotone
            and self.contiguous
            and self.intruder_captured
            and not self.deadlocked
        )

    def summary(self) -> str:
        """One-line verdict."""
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"[{verdict}] n={self.n} delays={self.delay_model}: "
            f"moves={self.total_moves} makespan={self.makespan:.2f} "
            f"team={self.team_size} clean={self.all_clean} "
            f"monotone={self.monotone} contiguous={self.contiguous} "
            f"captured={self.intruder_captured} deadlock={self.deadlocked}"
        )


class _AgentRecord:
    """Engine-internal per-agent state.

    ``token`` is the scheduling generation: every event pushed for this
    agent carries the token current at push time, and the engine drops
    events whose token has been superseded (stale wake-ups must not fire
    once the agent has moved on — literally).  ``group`` is the wait
    group a blocked agent is filed in, ``None`` while its wake is live.
    """

    __slots__ = ("ctx", "generator", "status", "pending", "wait", "token", "group")

    def __init__(self, ctx: AgentContext, generator) -> None:
        self.ctx = ctx
        self.generator = generator
        self.status = "ready"  # ready | inflight | blocked | terminated
        self.pending: Optional[Callable[[float], Any]] = None
        self.wait: Optional[WaitUntil] = None
        self.token = 0
        self.group: Optional[_WaitGroup] = None


class _WaitGroup:
    """The blocked agents at one node that yielded one predicate object.

    The group is evaluated once for all its members and filed in the wake
    index under that evaluation's read flags, ``reads``.  ``members`` are
    agent ids in increasing order.  The group holds its predicate, so the
    predicate's ``id`` in the group's key stays unique while it is filed.
    """

    __slots__ = ("node", "predicate", "members", "reads")

    def __init__(self, node: int, predicate: Callable[[NodeView], Any], reads: int) -> None:
        self.node = node
        self.predicate = predicate
        self.members: List[int] = []
        self.reads = reads


class _ReadProbe:
    """The read-recording backend of one predicate evaluation's view."""

    __slots__ = ("engine", "node", "flags")

    def __init__(self, engine: "Engine", node: int) -> None:
        self.engine = engine
        self.node = node
        self.flags = 0

    def wb(self, key: Optional[str]) -> Any:
        self.flags |= _BOARD
        return self.engine.board(self.node).read(key)

    def see(self) -> Dict[int, Any]:
        self.flags |= _SIGHT
        return self.engine._neighbor_states(self.node)

    def clock(self) -> float:
        self.flags |= _CLOCK
        return self.engine._time


class Engine:
    """Discrete-event executor for agent protocols on one topology.

    Parameters
    ----------
    topology:
        Hypercube or GraphAdapter to run on.
    behaviors:
        One behaviour factory per initial agent; every agent starts at
        ``homebase`` (the paper's model).
    delay:
        The asynchrony adversary; default ideal time.
    visibility, cloning, global_clock:
        Capability flags (see module docstring).
    whiteboard_capacity_bits:
        Optional per-node whiteboard ceiling (A2 memory bench).
    intruder:
        ``"reachable"`` (default, proves capture), ``"walker"`` (a concrete
        adversarial walker), ``"walkers"`` (``intruder_count`` independent
        walkers) or ``None``.
    check_contiguity:
        Verify the decontaminated region stays connected after every move.
        The map maintains contiguity incrementally (amortized O(1) per
        move; a bitset BFS only on the rare non-extending event), so this
        stays on even for large runs.
    max_events:
        Hard safety limit on processed events.
    fault_plan:
        Crash-stop fault injection: ``{agent_id: action_budget}`` — the
        agent silently stops acting after that many actions (its body
        keeps guarding its node, per the model's no-removal rule).  Used
        by the robustness tests: the paper's strategies stay *safe*
        (monotone) under crashes but lose liveness (reported deadlock).
    subscribers:
        Event-bus subscribers attached before the initial agents spawn
        (so they observe the deployment); see :mod:`repro.obs`.  More can
        be attached later via :meth:`subscribe`.
    trace_maxlen:
        Optional bound on the in-memory :class:`~repro.sim.trace.Trace`
        (ring mode: oldest events are dropped once full).  Use together
        with a streaming subscriber for long runs; ``None`` (default)
        keeps the full log.
    """

    def __init__(
        self,
        topology,
        behaviors: List[BehaviorFactory],
        *,
        homebase: int = 0,
        delay: Optional[DelayModel] = None,
        visibility: bool = False,
        cloning: bool = False,
        global_clock: bool = False,
        whiteboard_capacity_bits: Optional[int] = None,
        intruder: Optional[str] = "reachable",
        intruder_seed: int = 0,
        intruder_count: int = 2,
        check_contiguity: bool = True,
        max_events: int = 2_000_000,
        fault_plan: Optional[Dict[int, int]] = None,
        subscribers: Optional[Iterable[Subscriber]] = None,
        trace_maxlen: Optional[int] = None,
    ) -> None:
        if not behaviors:
            raise SimulationError("need at least one agent behaviour")
        self._topo = topology
        self._homebase = homebase
        self._delay = delay or UnitDelay()
        self._visibility = visibility
        self._cloning = cloning
        self._global_clock = global_clock
        self._wb_capacity = whiteboard_capacity_bits
        self._check_contiguity = check_contiguity
        self._max_events = max_events
        self._fault_plan = dict(fault_plan or {})
        self._actions_taken: Dict[int, int] = {}
        self._intruder_kind = intruder
        self._intruder_seed = intruder_seed

        self._queue = EventQueue()
        self._trace = Trace(maxlen=trace_maxlen)
        self._boards: Dict[int, Whiteboard] = {}
        self._agents: Dict[int, _AgentRecord] = {}
        self._next_agent_id = 0
        self._time = 0.0
        self._events_processed = 0
        self._contiguous_ok = True
        self._was_contiguous = True  # previous per-move verdict (bus edge detect)

        # the wake index: wait groups, keyed by (node, id(predicate)) and
        # filed under what their predicate last read (see _wake_blocked);
        # the dicts are insertion-ordered sets of groups
        self._groups: Dict[Tuple[int, int], _WaitGroup] = {}
        self._board_waiters: Dict[int, Dict[_WaitGroup, None]] = {}  # node -> groups
        self._sight_waiters: Dict[int, Dict[_WaitGroup, None]] = {}  # node -> groups
        self._clock_waiters: Dict[_WaitGroup, None] = {}
        self._dirty: Dict[_WaitGroup, None] = {}  # reads touched since last evaluated

        # the bus's subscriber list is aliased so every emission site pays
        # exactly one truthiness test when nobody is listening
        self._bus = EventBus()
        self._subscribers = self._bus.subscribers
        for fn in subscribers or ():
            self._bus.subscribe(fn)

        self._cmap = ContaminationMap(topology, homebase=homebase, strict=False)
        dimension = getattr(topology, "d", 0)
        for factory in behaviors:
            # spawn events for the initial team are deferred to run(), so
            # subscribers see them after the run-start bracket
            self._spawn(factory, homebase, dimension, publish=False)

        if intruder == "reachable":
            self._intruder = ReachableSetIntruder(self._cmap)
        elif intruder == "walker":
            import random

            self._intruder = WalkerIntruder(self._cmap, rng=random.Random(intruder_seed))
        elif intruder == "walkers":
            import random

            from repro.sim.intruder import MultiWalkerIntruder

            self._intruder = MultiWalkerIntruder(
                self._cmap, count=intruder_count, rng=random.Random(intruder_seed)
            )
        elif intruder is None:
            self._intruder = None
        else:
            raise SimulationError(f"unknown intruder kind {intruder!r}")

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    def _spawn(
        self,
        factory: BehaviorFactory,
        node: int,
        dimension: int,
        parent: Optional[int] = None,
        publish: bool = True,
    ) -> int:
        agent_id = self._next_agent_id
        self._next_agent_id += 1
        ctx = AgentContext(agent_id, node, dimension)
        guard_before, clean_before = self._cmap.guard_mask, self._cmap.clean_mask
        self._cmap.place_agent(node)
        self._touch_states(guard_before, clean_before)
        generator = factory(ctx)
        record = _AgentRecord(ctx, generator)
        self._agents[agent_id] = record
        self._schedule(record, self._time)
        if publish and self._subscribers:
            self._bus.publish(
                SpawnEvent(time=self._time, agent=agent_id, node=node, parent=parent)
            )
        return agent_id

    def _schedule(self, record: "_AgentRecord", time: float) -> None:
        """Push the next event for an agent, superseding older ones.

        Scheduling into the past is rejected here (the queue itself only
        checks ``time >= 0``): an event before the current time would be
        popped immediately but silently reorder history around every event
        already queued at earlier times.
        """
        if time < self._time:
            raise SimulationError(
                f"agent {record.ctx.agent_id}: event scheduled at {time} "
                f"is before current time {self._time}"
            )
        record.token += 1
        self._queue.push(time, record.ctx.agent_id, record.token)

    def board(self, node: int) -> Whiteboard:
        """The whiteboard of ``node`` (created on first access).

        Writes through the returned board bypass the wake index: an agent
        waiting on this board is re-evaluated only after a
        :class:`~repro.sim.agent.WriteWhiteboard` or
        :class:`~repro.sim.agent.UpdateWhiteboard` action on its node, so
        write during a run only through agent actions.
        """
        wb = self._boards.get(node)
        if wb is None:
            degree = len(self._topo.neighbors(node))
            wb = Whiteboard(node, degree, self._wb_capacity)
            self._boards[node] = wb
        return wb

    def _neighbor_states(self, node: int) -> Dict[int, Any]:
        return {y: self._cmap.state(y) for y in self._topo.neighbors(node)}

    def _evaluate(self, node: int, predicate: Callable[[NodeView], Any]) -> Tuple[bool, int]:
        """Evaluate a wait predicate at ``node``; returns whether it holds
        and the read flags of the evaluation."""
        probe = _ReadProbe(self, node)
        view = NodeView(
            node=node,
            _wb_read=probe.wb,
            _see=probe.see if self._visibility else None,
            _clock=probe.clock if self._global_clock else None,
        )
        return bool(predicate(view)), probe.flags

    # ------------------------------------------------------------------ #
    # the wake index
    # ------------------------------------------------------------------ #

    def _join(
        self, record: _AgentRecord, predicate: Callable[[NodeView], Any], reads: int
    ) -> None:
        """File a blocked agent, whose ``predicate`` is false, in the wait
        group of its node and that predicate object.

        A new group is filed under ``reads``, the reads of the agent's own
        evaluation.  An existing group keeps its reads: the group is either
        queued for re-evaluation or untouched since its last evaluation,
        which then read what the agent's evaluation just read.
        """
        node = record.ctx.node
        key = (node, id(predicate))
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _WaitGroup(node, predicate, reads)
            self._file(group)
        insort(group.members, record.ctx.agent_id)
        record.group = group

    def _dissolve(self, group: _WaitGroup) -> None:
        """Remove a group from the wake index."""
        self._unfile(group)
        del self._groups[(group.node, id(group.predicate))]

    def _file(self, group: _WaitGroup) -> None:
        """File a group under its reads."""
        reads = group.reads
        if reads & _BOARD:
            self._board_waiters.setdefault(group.node, {})[group] = None
        if reads & _SIGHT:
            self._sight_waiters.setdefault(group.node, {})[group] = None
        if reads & _CLOCK:
            self._clock_waiters[group] = None

    def _unfile(self, group: _WaitGroup) -> None:
        """Undo :meth:`_file`."""
        reads = group.reads
        for flag, waiters in ((_BOARD, self._board_waiters), (_SIGHT, self._sight_waiters)):
            if reads & flag:
                filed = waiters[group.node]
                del filed[group]
                if not filed:
                    del waiters[group.node]
        if reads & _CLOCK:
            del self._clock_waiters[group]

    def _touch_board(self, node: int) -> None:
        groups = self._board_waiters.get(node)
        if groups:
            self._dirty.update(groups)

    def _touch_states(self, guard_before: int, clean_before: int) -> None:
        """Queue the sight groups next to every node whose state may have
        flipped since the masks were ``guard_before``/``clean_before``."""
        if not self._sight_waiters:
            return
        cmap = self._cmap
        flipped = (guard_before ^ cmap.guard_mask) | (clean_before ^ cmap.clean_mask)
        for y in iter_set_bits(flipped):
            for x in self._topo.neighbors(y):
                groups = self._sight_waiters.get(x)
                if groups:
                    self._dirty.update(groups)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self) -> SimResult:
        """Execute until quiescence and return the :class:`SimResult`.

        When a process-wide tracer is active the run is wrapped in an
        ``engine.run`` span (same zero-cost-when-disabled guard as the
        event bus: one global read per run, nothing per event).
        """
        tracer = get_active_tracer()
        if tracer is None:
            return self._run_traced()
        with tracer.span(
            "engine.run",
            n=self._topo.n,
            dimension=getattr(self._topo, "d", 0),
            agents=len(self._agents),
        ) as span:
            result = self._run_traced()
            span.attrs["makespan"] = result.makespan
            span.attrs["moves"] = result.total_moves
            span.attrs["captured"] = result.intruder_captured
            return result

    def _run_traced(self) -> SimResult:
        if self._subscribers:
            self._bus.publish(
                RunStartEvent(
                    time=self._time,
                    n=self._topo.n,
                    dimension=getattr(self._topo, "d", 0),
                    homebase=self._homebase,
                    team_size=len(self._agents),
                    delay_model=self._delay.describe(),
                )
            )
            for agent_id, record in self._agents.items():
                self._bus.publish(
                    SpawnEvent(time=0.0, agent=agent_id, node=record.ctx.node)
                )
        while self._queue:
            if self._events_processed >= self._max_events:
                raise SimulationError(
                    f"exceeded max_events={self._max_events}; "
                    "livelock or runaway protocol"
                )
            event = self._queue.pop()
            self._events_processed += 1
            if event.time > self._time:
                self._time = event.time
                if self._clock_waiters:
                    self._dirty.update(self._clock_waiters)
            record = self._agents[event.agent_id]
            if event.token != record.token:
                continue  # superseded by a newer scheduling decision
            if record.status == "terminated":
                continue
            if record.status == "blocked":
                if not self._wake_up(record):
                    continue
            elif record.pending is not None:
                completion = record.pending
                record.pending = None
                record.status = "ready"
                value = completion(self._time)
                self._resume(record, value)
            else:
                self._resume(record, None)
            self._wake_blocked()
        return self._finish()

    def _resume(self, record: _AgentRecord, value: Any) -> None:
        """Step the behaviour until it blocks, terminates or yields a timed
        action."""
        while True:
            # zero-delay local actions execute inline, so they must count
            # against the event budget or a spinning behaviour never yields
            # control back to the loop's max_events guard
            self._events_processed += 1
            if self._events_processed >= self._max_events:
                raise SimulationError(
                    f"exceeded max_events={self._max_events}; "
                    "livelock or runaway protocol"
                )
            agent_key = record.ctx.agent_id
            budget = self._fault_plan.get(agent_key)
            if budget is not None:
                taken = self._actions_taken.get(agent_key, 0)
                if taken >= budget:
                    # crash-stop: the agent silently halts, body stays put
                    record.generator.close()
                    record.status = "terminated"
                    self._trace.log(
                        TraceEvent(self._time, "crash", agent_key, record.ctx.node)
                    )
                    if self._subscribers:
                        self._bus.publish(
                            CrashEvent(self._time, agent_key, record.ctx.node)
                        )
                    return
                self._actions_taken[agent_key] = taken + 1
            try:
                action = record.generator.send(value)
            except StopIteration:
                record.status = "terminated"
                self._trace.log(
                    TraceEvent(self._time, "terminate", record.ctx.agent_id, record.ctx.node)
                )
                if self._subscribers:
                    self._bus.publish(
                        TerminateEvent(self._time, record.ctx.agent_id, record.ctx.node)
                    )
                return
            value = None
            agent_id = record.ctx.agent_id
            node = record.ctx.node

            if isinstance(action, Terminate):
                record.generator.close()
                record.status = "terminated"
                self._trace.log(TraceEvent(self._time, "terminate", agent_id, node))
                if self._subscribers:
                    self._bus.publish(TerminateEvent(self._time, agent_id, node))
                return

            if isinstance(action, Move):
                dst = action.dst
                if not self._topo.has_edge(node, dst):
                    raise AgentError(f"agent {agent_id}: ({node}, {dst}) is not an edge")
                duration = self._delay.move_delay(agent_id, node, dst)
                if duration <= 0:
                    raise SimulationError(
                        f"agent {agent_id}: delay model returned non-positive "
                        f"move duration {duration}"
                    )
                record.pending = self._make_move_completion(record, node, dst)
                record.status = "inflight"
                self._schedule(record, self._time + duration)
                return

            if isinstance(action, WaitUntil):
                holds, reads = self._evaluate(node, action.predicate)
                if holds:
                    value = True
                    continue
                record.wait = action
                record.status = "blocked"
                self._join(record, action.predicate, reads)
                if action.wake_at is not None and action.wake_at > self._time:
                    self._schedule(record, action.wake_at)
                self._log_wait(record)
                return

            # local actions: execute now or after the model's local delay
            executor = self._local_executor(record, action)
            local = self._delay.local_delay(agent_id, node)
            if local < 0:
                raise SimulationError(
                    f"agent {agent_id}: delay model returned negative "
                    f"local duration {local}"
                )
            if local > 0:
                record.pending = executor
                record.status = "inflight"
                self._schedule(record, self._time + local)
                return
            value = executor(self._time)

    def _make_move_completion(self, record: _AgentRecord, src: int, dst: int):
        def complete(now: float) -> None:
            observed = bool(self._subscribers)
            recon_before = len(self._cmap.recontamination_events) if observed else 0
            guard_before, clean_before = self._cmap.guard_mask, self._cmap.clean_mask
            self._cmap.move_agent(src, dst)
            self._touch_states(guard_before, clean_before)
            record.ctx.node = dst
            self._trace.log(
                TraceEvent(now, "move", record.ctx.agent_id, dst, {"src": src})
            )
            if self._intruder is not None:
                self._intruder.observe(self._cmap)
            contiguous: Optional[bool] = None
            if self._check_contiguity:
                contiguous = self._cmap.is_contiguous()
                if not contiguous:
                    self._contiguous_ok = False
            if observed:
                self._publish_move(
                    record.ctx.agent_id, src, dst, now, recon_before, contiguous
                )
            return None

        return complete

    def _publish_move(
        self,
        agent_id: int,
        src: int,
        dst: int,
        now: float,
        recon_before: int,
        contiguous: Optional[bool],
    ) -> None:
        """Emit the move event cluster (move, recontaminations, contiguity).

        Only called with subscribers attached; the masks ride along as
        plain int references, and the frontier is one spread-mask pass.
        """
        cmap = self._cmap
        recons = tuple(cmap.recontamination_events[recon_before:])
        self._bus.publish(
            MoveEvent(
                time=now,
                agent=agent_id,
                node=dst,
                src=src,
                src_vacated=cmap.guards(src) == 0,
                recontaminations=recons,
                contiguous=contiguous,
                clean_mask=cmap.clean_mask,
                guard_mask=cmap.guard_mask,
                frontier_mask=cmap.frontier_mask(),
            )
        )
        for node, cause in recons:
            self._bus.publish(
                RecontaminationEvent(
                    time=now, agent=agent_id, node=node, cause=cause, src=src, dst=dst
                )
            )
        if contiguous is not None:
            if self._was_contiguous and not contiguous:
                self._bus.publish(
                    ContiguityLostEvent(
                        time=now, agent=agent_id, node=dst, src=src, dst=dst
                    )
                )
            self._was_contiguous = contiguous

    def _local_executor(self, record: _AgentRecord, action) -> Callable[[float], Any]:
        agent_id = record.ctx.agent_id

        if isinstance(action, ReadWhiteboard):
            return lambda now: self.board(record.ctx.node).read(action.key)

        if isinstance(action, WriteWhiteboard):
            def write(now: float) -> None:
                self.board(record.ctx.node).write(action.key, action.value)
                self._touch_board(record.ctx.node)
                if self._subscribers:
                    self._bus.publish(
                        WhiteboardEvent(now, agent_id, record.ctx.node, key=action.key)
                    )
                return None

            return write

        if isinstance(action, UpdateWhiteboard):
            def update(now: float) -> Any:
                result = self.board(record.ctx.node).update(action.mutator)
                self._touch_board(record.ctx.node)
                if self._subscribers:
                    self._bus.publish(
                        WhiteboardEvent(now, agent_id, record.ctx.node, key=None)
                    )
                return result

            return update

        if isinstance(action, See):
            if not self._visibility:
                raise AgentError(f"agent {agent_id} used See() without the visibility model")
            return lambda now: self._neighbor_states(record.ctx.node)

        if isinstance(action, CloneSelf):
            if not self._cloning:
                raise AgentError(f"agent {agent_id} cloned without the cloning model")

            def clone(now: float) -> int:
                new_id = self._spawn(
                    action.behavior, record.ctx.node, record.ctx.dimension,
                    parent=agent_id,
                )
                self._trace.log(
                    TraceEvent(now, "clone", agent_id, record.ctx.node, {"child": new_id})
                )
                if self._subscribers:
                    self._bus.publish(
                        CloneEvent(now, agent_id, record.ctx.node, child=new_id)
                    )
                return new_id

            return clone

        raise AgentError(f"agent {agent_id} yielded unknown action {action!r}")

    def _log_wait(self, record: _AgentRecord) -> None:
        """Log and publish that a filed agent waits on its ``WaitUntil``."""
        agent_id, node, why = record.ctx.agent_id, record.ctx.node, record.wait.description
        self._trace.log(TraceEvent(self._time, "wait", agent_id, node, {"why": why}))
        if self._subscribers:
            self._bus.publish(WaitEvent(self._time, agent_id, node, why=why))

    def _log_wake(self, record: _AgentRecord) -> None:
        """Log and publish that a blocked agent's wait is over."""
        agent_id, node = record.ctx.agent_id, record.ctx.node
        self._trace.log(TraceEvent(self._time, "wake", agent_id, node))
        if self._subscribers:
            self._bus.publish(WakeEvent(self._time, agent_id, node))

    def _wake_up(self, record: _AgentRecord) -> bool:
        """Run the event of a blocked agent — its wake-up, or a ``wake_at``
        timer that fired while it was still filed — and say whether the
        agent resumed.

        The agent re-checks its own predicate under mutual exclusion: if it
        holds the agent resumes, and if not (another agent got there first,
        or the timer fired before the predicate turned true) it joins its
        node's group for that predicate again, and a ``wake_at`` still
        ahead is scheduled again (the wake-up superseded the timer).  A
        woken agent that re-files logs a new ``wait``, and a timer that
        finds the predicate true logs the ``wake`` no transition did, so
        every agent's ``wait`` and ``wake`` records alternate; a timer that
        finds it false was never woken, and logs nothing.
        """
        group = record.group
        if group is not None:  # a timer: leave the group
            record.group = None
            group.members.remove(record.ctx.agent_id)
            if not group.members:
                self._dissolve(group)
        wait = record.wait
        holds, reads = self._evaluate(record.ctx.node, wait.predicate)
        if not holds:
            self._join(record, wait.predicate, reads)
            if wait.wake_at is not None and wait.wake_at > self._time:
                self._schedule(record, wait.wake_at)
            if group is None:
                self._log_wait(record)
            return False
        if group is not None:
            self._log_wake(record)
        record.wait = None
        record.status = "ready"
        self._resume(record, True)
        return True

    def _wake_blocked(self) -> None:
        """Wake the members of every queued group whose predicate now
        holds, and re-file the others under their new reads.

        Each queued group is evaluated once, groups in the order of their
        lowest member id.  Every other group's last verdict (false) still
        stands, because a predicate depends only on what it reads through
        its view.  A group that holds leaves the index, and its members
        are logged as ``wake``, published and rescheduled, the members of
        all holding groups together in agent id order.  Nothing is logged
        again for a woken agent until its wake-up has run (see
        :meth:`_wake_up`): one wake per false→true transition.
        """
        if not self._dirty:
            return
        # groups dissolved since they were queued (emptied) drop out
        groups = [group for group in self._dirty if group.members]
        self._dirty = {}
        groups.sort(key=lambda group: group.members[0])
        woken: List[int] = []
        for group in groups:
            holds, reads = self._evaluate(group.node, group.predicate)
            if holds:
                woken += group.members
                group.members = []
                self._dissolve(group)
            elif reads != group.reads:
                self._unfile(group)
                group.reads = reads
                self._file(group)
        woken.sort()
        for agent_id in woken:
            record = self._agents[agent_id]
            record.group = None
            self._log_wake(record)
            self._schedule(record, self._time)

    # ------------------------------------------------------------------ #

    def _finish(self) -> SimResult:
        blocked = sum(1 for r in self._agents.values() if r.status == "blocked")
        terminated = sum(1 for r in self._agents.values() if r.status == "terminated")
        all_clean = self._cmap.all_clean()
        deadlocked = blocked > 0 and not all_clean
        if self._intruder is not None:
            captured = self._intruder.captured
        else:
            captured = all_clean
        monotone = self._cmap.is_monotone()
        total_moves = self._trace.move_count()
        if self._subscribers:
            self._bus.publish(
                RunEndEvent(
                    time=self._time,
                    all_clean=all_clean,
                    monotone=monotone,
                    contiguous=self._contiguous_ok,
                    total_moves=total_moves,
                    events_processed=self._events_processed,
                    clean_mask=self._cmap.clean_mask,
                    guard_mask=self._cmap.guard_mask,
                )
            )
        manifest = build_manifest(
            seed=self._intruder_seed,
            topology=self._topo,
            model={
                "visibility": self._visibility,
                "cloning": self._cloning,
                "global_clock": self._global_clock,
            },
            delay=self._delay.describe(),
            metrics={
                "total_moves": total_moves,
                "makespan": self._trace.makespan(),
                "event_count": self._events_processed,
                "team_size": self._next_agent_id,
                "all_clean": all_clean,
                "monotone": monotone,
                "contiguous": self._contiguous_ok,
            },
            extra={
                "homebase": self._homebase,
                "intruder": self._intruder_kind,
                "check_contiguity": self._check_contiguity,
            },
        )
        return SimResult(
            n=self._topo.n,
            delay_model=self._delay.describe(),
            trace=self._trace,
            all_clean=all_clean,
            monotone=monotone,
            contiguous=self._contiguous_ok,
            intruder_captured=captured,
            deadlocked=deadlocked,
            makespan=self._trace.makespan(),
            total_moves=total_moves,
            team_size=self._next_agent_id,
            terminated_agents=terminated,
            blocked_agents=blocked,
            event_count=self._events_processed,
            peak_whiteboard_bits=max(
                (wb.peak_bits for wb in self._boards.values()), default=0
            ),
            peak_agent_memory_bits=max(
                (r.ctx.peak_memory_bits for r in self._agents.values()), default=0
            ),
            final_states=self._cmap.snapshot(),
            manifest=manifest,
        )

    # instrumentation ---------------------------------------------------- #

    @property
    def bus(self) -> EventBus:
        """The engine's event bus (see :mod:`repro.obs`)."""
        return self._bus

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Attach an event subscriber; returns ``fn`` (for unsubscribe)."""
        return self._bus.subscribe(fn)

    def unsubscribe(self, fn: Subscriber) -> None:
        """Detach a previously attached subscriber."""
        self._bus.unsubscribe(fn)

    def mark_phase(self, name: str) -> None:
        """Publish a named :class:`~repro.obs.events.PhaseEvent`.

        Protocol drivers and tests call this to delimit strategy phases
        (e.g. one hypercube level of the sweep); with no subscriber
        attached it is a no-op.
        """
        if self._subscribers:
            self._bus.publish(PhaseEvent(time=self._time, name=name))

    # exposed for tests and protocols ----------------------------------- #

    @property
    def contamination(self) -> ContaminationMap:
        """The live contamination map (read-only use, please)."""
        return self._cmap

    @property
    def time(self) -> float:
        """Current simulation time."""
        return self._time

    @property
    def intruder(self):
        """The co-simulated intruder object (or ``None``)."""
        return self._intruder
