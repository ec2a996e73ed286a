"""Unit tests for the DES kernel (events + engine)."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.CUSTOM, "b")
        queue.push(1.0, EventKind.CUSTOM, "a")
        queue.push(3.0, EventKind.CUSTOM, "c")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.CUSTOM, "first")
        queue.push(1.0, EventKind.CUSTOM, "second")
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.CUSTOM)
        assert queue.peek().time == 1.0
        assert len(queue) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Event(time=-1.0, sequence=0, kind=EventKind.CUSTOM)
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, EventKind.CUSTOM)
        event = Event(time=1.0, sequence=0, kind=EventKind.CUSTOM)
        with pytest.raises(SimulationError):
            event._replace(time=-1.0)

    def test_kinds_index_the_handler_table(self):
        # The engine keeps one handler list per kind, at the kind's value.
        assert [int(kind) for kind in EventKind] == list(range(len(EventKind)))

    def test_clear_empties(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.CUSTOM)
        queue.clear()
        assert not queue


class TestEngine:
    def test_run_until_processes_in_order(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.CUSTOM, lambda eng, ev: seen.append(ev.payload))
        engine.schedule(2.0, EventKind.CUSTOM, "late")
        engine.schedule(1.0, EventKind.CUSTOM, "early")
        engine.run_until(10.0)
        assert seen == ["early", "late"]
        assert engine.now == 10.0

    def test_horizon_exclusive(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.CUSTOM, lambda eng, ev: seen.append(ev.time))
        engine.schedule(5.0, EventKind.CUSTOM)
        engine.run_until(5.0)
        assert seen == []
        engine.run_until(5.1)
        assert seen == [5.0]

    def test_handlers_can_schedule_followups(self):
        engine = SimulationEngine()
        seen = []

        def chain(eng, event):
            seen.append(event.time)
            if event.time < 3:
                eng.schedule_after(1.0, EventKind.CUSTOM)

        engine.register(EventKind.CUSTOM, chain)
        engine.schedule(1.0, EventKind.CUSTOM)
        engine.run_until(10.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_cannot_schedule_in_past(self):
        engine = SimulationEngine()
        engine.schedule(1.0, EventKind.CUSTOM)
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.schedule(4.0, EventKind.CUSTOM)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_after(-1.0, EventKind.CUSTOM)

    def test_backwards_horizon_rejected(self):
        engine = SimulationEngine()
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.run_until(4.0)

    def test_run_all_guard(self):
        engine = SimulationEngine()
        engine.register(
            EventKind.CUSTOM,
            lambda eng, ev: eng.schedule_after(1.0, EventKind.CUSTOM),
        )
        engine.schedule(0.0, EventKind.CUSTOM)
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run_all(max_events=100)

    def test_reset_clears_state_keeps_handlers(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.CUSTOM, lambda eng, ev: seen.append(1))
        engine.schedule(1.0, EventKind.CUSTOM)
        engine.run_until(2.0)
        engine.reset()
        assert engine.now == 0.0 and engine.pending_events == 0
        engine.schedule(0.5, EventKind.CUSTOM)
        engine.run_until(1.0)
        assert seen == [1, 1]

    def test_multiple_handlers_run_in_order(self):
        engine = SimulationEngine()
        order = []
        engine.register(EventKind.CUSTOM, lambda eng, ev: order.append("a"))
        engine.register(EventKind.CUSTOM, lambda eng, ev: order.append("b"))
        engine.schedule(1.0, EventKind.CUSTOM)
        engine.run_until(2.0)
        assert order == ["a", "b"]
