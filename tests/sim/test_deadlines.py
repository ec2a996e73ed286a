"""Unit tests for request deadlines and the EDF queue discipline."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.metrics import MicroserviceStats, RoundSnapshot
from repro.sim.processes import ArrivalProcess, Request, RequestServer


def make_request(rid, arrival, work=1.0, deadline=None):
    return Request(
        request_id=rid,
        microservice=1,
        user=0,
        arrival_time=arrival,
        work=work,
        deadline=deadline,
    )


def wire(server):
    engine = SimulationEngine()
    engine.register(EventKind.ARRIVAL, server.handle_arrival)
    engine.attach(server)
    return engine


def in_service(server):
    """Ids of the requests ``server`` has in service."""
    return {record[2].request_id for record in server._running}


class TestRequestDeadlines:
    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(SimulationError):
            make_request(0, arrival=5.0, deadline=4.0)

    def test_stale_request_dropped_not_served(self):
        server = RequestServer(microservice=1, allocation=1.0)
        engine = wire(server)
        # First request occupies the single slot for 10 time units; the
        # second has a deadline that expires while it waits.
        engine.schedule(0.0, EventKind.ARRIVAL, make_request(0, 0.0, work=10.0))
        engine.schedule(
            0.5, EventKind.ARRIVAL, make_request(1, 0.5, work=1.0, deadline=2.0)
        )
        engine.run_until(20.0)
        assert server.stats.served == 1
        assert server.stats.dropped == 1

    def test_fresh_request_with_deadline_served(self):
        server = RequestServer(microservice=1, allocation=1.0)
        engine = wire(server)
        engine.schedule(
            0.0, EventKind.ARRIVAL, make_request(0, 0.0, work=1.0, deadline=5.0)
        )
        engine.run_until(10.0)
        assert server.stats.served == 1
        assert server.stats.dropped == 0

    def test_drop_rate_in_snapshot(self):
        stats = MicroserviceStats(microservice=1)
        stats.record_arrival()
        stats.record_arrival()
        stats.record_drop()
        snap = stats.snapshot(0, 0.0, 10.0)
        assert snap.dropped == 1
        assert snap.drop_rate == pytest.approx(0.5)
        assert snap.backlog == 1

    def test_idle_drop_rate_zero(self):
        snap = RoundSnapshot(
            microservice=1, round_index=0, received=0, served=0,
            mean_waiting_time=0.0, mean_execution_time=0.0,
            utilization=0.0, achieved_rate=0.0, target_rate=0.0,
            allocation=1.0,
        )
        assert snap.drop_rate == 0.0

    def test_reset_clears_drop_counter(self):
        stats = MicroserviceStats(microservice=1)
        stats.record_arrival()
        stats.record_drop()
        stats.reset(now=1.0)
        assert stats.dropped == 0


class TestEDF:
    def test_earliest_deadline_served_first(self):
        server = RequestServer(microservice=1, allocation=1.0, discipline="edf")
        engine = wire(server)
        # One long request occupies the slot; two queued requests arrive
        # in FIFO order opposite to their deadlines.
        engine.schedule(0.0, EventKind.ARRIVAL, make_request(0, 0.0, work=5.0))
        engine.schedule(
            1.0, EventKind.ARRIVAL, make_request(1, 1.0, work=1.0, deadline=100.0)
        )
        engine.schedule(
            1.5, EventKind.ARRIVAL, make_request(2, 1.5, work=1.0, deadline=6.0)
        )
        engine.run_until(5.5)
        # At t=5 the slot frees; EDF must have started request 2
        # (deadline 6) ahead of request 1 (deadline 100).
        assert 2 in in_service(server)
        assert 1 not in in_service(server)

    def test_fifo_serves_in_arrival_order(self):
        server = RequestServer(microservice=1, allocation=1.0, discipline="fifo")
        engine = wire(server)
        engine.schedule(0.0, EventKind.ARRIVAL, make_request(0, 0.0, work=5.0))
        engine.schedule(
            1.0, EventKind.ARRIVAL, make_request(1, 1.0, work=1.0, deadline=100.0)
        )
        engine.schedule(
            1.5, EventKind.ARRIVAL, make_request(2, 1.5, work=1.0, deadline=6.0)
        )
        engine.run_until(4.9)
        # After the long request finishes at t=5, FIFO starts request 1.
        engine.run_until(5.5)
        assert 1 in in_service(server)

    def test_unknown_discipline_rejected(self):
        with pytest.raises(SimulationError):
            RequestServer(microservice=1, allocation=1.0, discipline="lifo")

    def test_undeadlined_requests_sort_last_in_edf(self):
        server = RequestServer(microservice=1, allocation=1.0, discipline="edf")
        engine = wire(server)
        engine.schedule(0.0, EventKind.ARRIVAL, make_request(0, 0.0, work=5.0))
        engine.schedule(1.0, EventKind.ARRIVAL, make_request(1, 1.0, work=1.0))
        engine.schedule(
            1.5, EventKind.ARRIVAL, make_request(2, 1.5, work=1.0, deadline=50.0)
        )
        engine.run_until(5.5)
        # At t=5 the slot frees; EDF must pick request 2 (has a deadline).
        assert 2 in in_service(server)


class TestArrivalProcessDeadlines:
    def test_relative_deadline_stamped(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.ARRIVAL, lambda e, ev: seen.append(ev.payload))
        process = ArrivalProcess(
            microservice=1,
            rate=5.0,
            horizon=10.0,
            rng=np.random.default_rng(1),
            relative_deadline=2.5,
        )
        engine.register(EventKind.ARRIVAL, process.on_arrival)
        process.start(engine)
        engine.run_until(10.0)
        assert seen
        for request in seen:
            assert request.deadline == pytest.approx(request.arrival_time + 2.5)

    def test_invalid_relative_deadline_rejected(self):
        with pytest.raises(SimulationError):
            ArrivalProcess(
                microservice=1,
                rate=1.0,
                horizon=10.0,
                rng=np.random.default_rng(2),
                relative_deadline=0.0,
            )
