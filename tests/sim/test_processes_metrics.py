"""Unit tests for arrival/service processes and round metrics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.metrics import MicroserviceStats
from repro.sim.processes import ArrivalProcess, Request, RequestServer
from repro.sim.rng import RngRegistry, make_rng, spawn_rngs


def build_system(rate=5.0, allocation=2.0, horizon=50.0, seed=7, work_mean=0.2):
    engine = SimulationEngine()
    server = RequestServer(microservice=1, allocation=allocation)
    engine.register(EventKind.ARRIVAL, server.handle_arrival)
    engine.attach(server)
    process = ArrivalProcess(
        microservice=1,
        rate=rate,
        horizon=horizon,
        rng=make_rng(seed),
        work_mean=work_mean,
    )
    engine.register(EventKind.ARRIVAL, process.on_arrival)
    process.start(engine)
    return engine, server


class TestRequest:
    def test_non_positive_work_rejected(self):
        with pytest.raises(SimulationError):
            Request(request_id=0, microservice=1, user=0, arrival_time=0.0, work=0.0)

    def test_replace_keeps_the_checks(self):
        request = Request(
            request_id=0, microservice=1, user=0, arrival_time=2.0, work=1.0
        )
        with pytest.raises(SimulationError):
            request._replace(work=-1.0)
        with pytest.raises(SimulationError):
            request._replace(deadline=1.0)
        assert request._replace(deadline=3.0).deadline == 3.0


class TestRequestServer:
    def test_processes_all_requests_when_overprovisioned(self):
        engine, server = build_system(rate=2.0, allocation=10.0, horizon=30.0)
        engine.run_until(60.0)
        stats = server.stats
        assert stats.received > 0
        assert stats.served == stats.received

    def test_run_all_completes_every_request_of_an_attached_server(self):
        engine, server = build_system(
            rate=20.0, allocation=1.0, horizon=20.0, work_mean=1.0
        )
        engine.run_all()
        stats = server.stats
        assert server.queue_length == 0 and server.busy_slots == 0
        assert stats.served == stats.received > 0
        assert engine.processed_events == stats.received + stats.served
        # One slot: the server is busy exactly while a request executes.
        assert stats.busy_time == pytest.approx(stats.total_execution_time, rel=1e-12)

    def test_queue_builds_under_overload(self):
        engine, server = build_system(
            rate=20.0, allocation=1.0, horizon=20.0, work_mean=1.0
        )
        engine.run_until(20.0)
        assert server.stats.served < server.stats.received
        assert server.queue_length > 0

    def test_snapshot_waiting_time_grows_with_load(self):
        _, light_server = (sys := build_system(rate=1.0, allocation=5.0))
        sys[0].run_until(60.0)
        light = light_server.stats.snapshot(0, 0.0, 60.0)
        engine, heavy_server = build_system(
            rate=15.0, allocation=1.0, work_mean=0.5
        )
        engine.run_until(60.0)
        heavy = heavy_server.stats.snapshot(0, 0.0, 60.0)
        assert heavy.mean_waiting_time > light.mean_waiting_time

    def test_allocation_change_scales_total_capacity(self):
        server = RequestServer(microservice=1, allocation=1.0)
        initial_capacity = server.speed * server.slots
        server.set_allocation(4.0, now=0.0)
        assert server.slots == 4
        assert server.speed * server.slots == pytest.approx(4 * initial_capacity)
        # Fractional allocations speed up the single slot directly.
        server.set_allocation(1.5, now=0.0)
        assert server.slots == 1
        assert server.speed == pytest.approx(1.5)

    def test_shrinking_allocation_under_load_caps_busy_fraction(self):
        # Three requests in service on four slots; the allocation then
        # drops to one slot.  The first departure leaves two running on
        # one slot: the server is fully busy, not 200% busy.
        engine = SimulationEngine()
        server = RequestServer(microservice=1, allocation=4.0)
        engine.register(EventKind.ARRIVAL, server.handle_arrival)
        engine.attach(server)
        for request_id, work in enumerate((1.0, 2.0, 3.0)):
            engine.schedule(
                0.0,
                EventKind.ARRIVAL,
                Request(
                    request_id=request_id,
                    microservice=1,
                    user=0,
                    arrival_time=0.0,
                    work=work,
                ),
            )
        engine.run_until(0.5)
        assert server.busy_slots == 3
        server.set_allocation(1.0, now=0.5)
        engine.run_until(1.5)
        assert server.stats.served == 1
        assert server.busy_slots == 2
        assert server.stats._busy_fraction == 1.0

    def test_invalid_allocation_rejected(self):
        server = RequestServer(microservice=1, allocation=1.0)
        with pytest.raises(SimulationError):
            server.set_allocation(0.0, now=0.0)

    def test_foreign_microservice_events_ignored(self):
        engine = SimulationEngine()
        server = RequestServer(microservice=1, allocation=1.0)
        engine.register(EventKind.ARRIVAL, server.handle_arrival)
        foreign = Request(
            request_id=0, microservice=2, user=0, arrival_time=0.5, work=1.0
        )
        engine.schedule(0.5, EventKind.ARRIVAL, foreign)
        engine.run_until(1.0)
        assert server.stats.received == 0


class TestMetrics:
    def test_completion_ratio_idle_is_one(self):
        stats = MicroserviceStats(microservice=1)
        snap = stats.snapshot(0, 0.0, 10.0)
        assert snap.completion_ratio == 1.0
        assert snap.backlog == 0

    def test_negative_durations_rejected(self):
        stats = MicroserviceStats(microservice=1)
        with pytest.raises(SimulationError):
            stats.record_completion(-1.0, 1.0)

    def test_snapshot_requires_positive_duration(self):
        stats = MicroserviceStats(microservice=1)
        with pytest.raises(SimulationError):
            stats.snapshot(0, 5.0, 5.0)

    def test_utilization_bounded(self):
        engine, server = build_system(rate=30.0, allocation=1.0, work_mean=1.0)
        engine.run_until(40.0)
        snap = server.stats.snapshot(0, 0.0, 40.0)
        assert 0.0 <= snap.utilization <= 1.0
        assert snap.utilization > 0.5  # overloaded server is mostly busy

    def test_reset_preserves_busy_state(self):
        stats = MicroserviceStats(microservice=1)
        stats.set_busy_fraction(1.0, 1.0)
        stats.reset(now=5.0)
        stats.set_busy_fraction(7.0, 0.0)
        assert stats.busy_time == pytest.approx(2.0)

    def test_arrival_rate_hint_overrides_target(self):
        stats = MicroserviceStats(microservice=1)
        stats.record_arrival()
        snap = stats.snapshot(0, 0.0, 10.0, arrival_rate_hint=3.5)
        assert snap.target_rate == 3.5


class TestRng:
    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_rngs_independent_and_deterministic(self):
        a1, a2 = spawn_rngs(42, 2)
        b1, b2 = spawn_rngs(42, 2)
        assert a1.random() == b1.random()
        assert a2.random() == b2.random()

    def test_registry_streams_stable_across_instances(self):
        r1 = RngRegistry(seed=9)
        r2 = RngRegistry(seed=9)
        # Request in different orders; same names must give same streams.
        x = r2.stream("beta").random()
        assert r1.stream("alpha").random() == r2.stream("alpha").random()
        assert r1.stream("beta").random() == x

    def test_registry_caches_streams(self):
        registry = RngRegistry(seed=1)
        assert registry.stream("s") is registry.stream("s")

    def test_registry_rejects_empty_name(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RngRegistry(seed=1).stream("")
