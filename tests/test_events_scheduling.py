"""Unit tests for the event queue, delay models, and traces."""

import pytest

from repro.errors import SimulationError
from repro.sim.agent import Move, WriteWhiteboard
from repro.sim.engine import Engine
from repro.sim.events import EventQueue
from repro.sim.scheduling import (
    AdversarialSlowestDelay,
    DelayModel,
    LayeredDelay,
    RandomDelay,
    UnitDelay,
)
from repro.sim.trace import Trace, TraceEvent
from repro.topology.hypercube import Hypercube


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, 1)
        q.push(1.0, 2)
        q.push(2.0, 3)
        assert [q.pop().agent_id for _ in range(3)] == [2, 3, 1]

    def test_fifo_among_equal_times(self):
        q = EventQueue()
        for agent in (5, 6, 7):
            q.push(1.0, agent)
        assert [q.pop().agent_id for _ in range(3)] == [5, 6, 7]

    def test_peek(self):
        q = EventQueue()
        assert q.peek() is None
        q.push(2.0, 0)
        assert q.peek().time == 2.0
        assert len(q) == 1

    def test_peek_and_pop_return_the_pushed_event(self):
        q = EventQueue()
        later = q.push(2.0, 7, token=3)
        first = q.push(1.0, 8)
        assert q.peek() is first
        assert q.pop() is first
        assert q.peek() is later
        assert (later.time, later.agent_id, later.token) == (2.0, 7, 3)
        assert q.pop() is later and q.peek() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, 0)

    def test_bool_len(self):
        q = EventQueue()
        assert not q
        q.push(0.0, 0)
        assert q and len(q) == 1


class TestDelayModels:
    def test_unit(self):
        m = UnitDelay()
        assert m.move_delay(0, 0, 1) == 1.0
        assert m.local_delay(0, 0) == 0.0

    def test_random_bounds_and_reproducibility(self):
        a = RandomDelay(seed=42, low=0.5, high=2.0)
        b = RandomDelay(seed=42, low=0.5, high=2.0)
        values_a = [a.move_delay(0, 0, 1) for _ in range(50)]
        values_b = [b.move_delay(0, 0, 1) for _ in range(50)]
        assert values_a == values_b
        assert all(0.5 <= v <= 2.0 for v in values_a)

    def test_random_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RandomDelay(low=0, high=1)
        with pytest.raises(ValueError):
            RandomDelay(low=3, high=1)

    def test_adversarial_targets_victims(self):
        m = AdversarialSlowestDelay(slow_agents=[3], factor=10)
        assert m.move_delay(3, 0, 1) == 10
        assert m.move_delay(4, 0, 1) == 1

    def test_adversarial_rejects_speedup(self):
        with pytest.raises(ValueError):
            AdversarialSlowestDelay([], factor=0.5)

    def test_layered_slows_nodes(self):
        m = LayeredDelay(node_factor={7: 5.0})
        assert m.move_delay(0, 3, 7) == 5.0
        assert m.move_delay(0, 7, 3) == 1.0

    def test_describe_strings(self):
        assert "Unit" in UnitDelay().describe()
        assert "seed=1" in RandomDelay(seed=1).describe()
        assert "x10" in AdversarialSlowestDelay([1], 10).describe()
        assert "slow nodes" in LayeredDelay({1: 2.0}).describe()


class TestMisbehavingDelayModels:
    """A DelayModel returning negative durations must be caught, not let
    the engine silently schedule events into the past and reorder history."""

    class NegativeMoveDelay(DelayModel):
        def move_delay(self, agent_id, src, dst):
            return -1.0

    class NegativeLocalDelay(DelayModel):
        def move_delay(self, agent_id, src, dst):
            return 1.0

        def local_delay(self, agent_id, node):
            return -0.5

    @staticmethod
    def mover(ctx):
        yield Move(1)

    @staticmethod
    def writer(ctx):
        yield WriteWhiteboard("k", 1)

    def test_negative_move_duration_rejected(self):
        engine = Engine(
            Hypercube(1), [self.mover], delay=self.NegativeMoveDelay(), intruder=None
        )
        with pytest.raises(SimulationError, match="agent 0"):
            engine.run()

    def test_negative_local_duration_rejected(self):
        engine = Engine(
            Hypercube(1), [self.writer], delay=self.NegativeLocalDelay(), intruder=None
        )
        with pytest.raises(SimulationError, match="agent 0"):
            engine.run()

    def test_past_event_rejected_at_schedule_site(self):
        """The queue only checks time >= 0; the engine's _schedule rejects
        anything before the current clock, naming the agent."""
        engine = Engine(Hypercube(1), [self.mover], intruder=None)
        engine.run()
        record = engine._agents[0]
        engine._time = 5.0
        with pytest.raises(SimulationError, match="agent 0"):
            engine._schedule(record, 4.0)


class TestTrace:
    def test_move_queries(self):
        t = Trace()
        t.log(TraceEvent(1.0, "move", 0, 1, {"src": 0}))
        t.log(TraceEvent(2.0, "move", 1, 2, {"src": 0}))
        t.log(TraceEvent(2.0, "terminate", 0, 1))
        assert t.move_count() == 2
        assert t.makespan() == 2.0
        assert t.agents() == [0, 1]
        assert t.per_agent_moves() == {0: 1, 1: 1}
        assert t.move_multiset() == {(0, 1): 1, (0, 2): 1}

    def test_rejects_time_regression(self):
        t = Trace()
        t.log(TraceEvent(2.0, "move", 0, 1, {"src": 0}))
        with pytest.raises(ValueError):
            t.log(TraceEvent(1.0, "move", 0, 0, {"src": 1}))

    def test_first_visits(self):
        t = Trace()
        t.log(TraceEvent(1.0, "move", 0, 1, {"src": 0}))
        t.log(TraceEvent(2.0, "move", 1, 1, {"src": 0}))
        t.log(TraceEvent(3.0, "move", 0, 2, {"src": 1}))
        assert t.first_visits() == [(1.0, 1), (3.0, 2)]

    def test_filtered_events(self):
        t = Trace()
        t.log(TraceEvent(1.0, "wait", 0, 0))
        t.log(TraceEvent(1.0, "move", 0, 1, {"src": 0}))
        assert len(t.events("wait")) == 1
        assert len(t.events()) == 2
        assert len(t) == 2
