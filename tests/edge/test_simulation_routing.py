"""Routed simulator dispatch is bit-identical to the handler fan-out.

:class:`~repro.edge.platform.EdgePlatform` registers one ARRIVAL and one
DEPARTURE handler that hand each event to its own microservice's server
(and, on ARRIVAL, arrival process).  The oracle below rebuilds the same
platform and re-wires its engine the way a caller holding only the public
handlers would: every server's ``handle_arrival`` / ``handle_departure``
and every process's ``on_arrival`` on every event, a server before its
process, services in platform order.  Each of those handlers ignores
events of other microservices, so the two wirings must draw the shared
platform RNG in the same order and sequence the same events — snapshots,
demand and clearing outcomes are compared with ``float.hex``.
"""

import dataclasses

import pytest

from repro.dist.agents import AgentStreamPolicy
from repro.dist.scenario import DistScenario
from repro.sim.events import EventKind

SEEDS = range(20)


def default_scenario(seed):
    return DistScenario(seed=seed)


def four_cloud_scenario(seed):
    """The serving benchmark's session shape: 4 clouds × 4 services."""
    return DistScenario(
        seed=10_000 + seed,
        n_clouds=4,
        n_services=16,
        overloaded=(1, 2, 3, 4),
        n_users=120,
        horizon_rounds=10,
    )


SHAPES = {"default": default_scenario, "four_cloud": four_cloud_scenario}


def build(scenario):
    return scenario.build_platform(
        bidding_policy=AgentStreamPolicy(
            scenario.seed, scenario.policy_factory()
        )
    )


def fan_out(platform):
    """Re-wire ``platform``'s engine to offer every event to every handler.

    Called before the first round: the arrival processes have drawn and
    scheduled their first arrivals, and no event has run yet.
    """
    handlers = platform._engine._handlers
    handlers[EventKind.ARRIVAL].clear()
    handlers[EventKind.DEPARTURE].clear()
    for sid, server in platform._servers.items():
        platform._engine.register(EventKind.ARRIVAL, server.handle_arrival)
        platform._engine.register(EventKind.DEPARTURE, server.handle_departure)
        process = platform._arrivals.get(sid)
        if process is not None:
            platform._engine.register(EventKind.ARRIVAL, process.on_arrival)
    return platform


def exact(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): exact(v) for k, v in sorted(value.items(), key=str)}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def fingerprint(reports):
    return [
        {
            "round": report.round_index,
            "snapshots": [
                exact(dataclasses.asdict(snapshot))
                for snapshot in report.snapshots
            ],
            "demand": exact(dict(report.demand_units)),
            "transfers": exact(list(report.transfers)),
            "auction": (
                None if report.auction is None
                else exact(report.auction.to_dict())
            ),
        }
        for report in reports
    ]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_routed_dispatch_matches_fan_out(shape):
    for seed in SEEDS:
        scenario = SHAPES[shape](seed)
        routed = build(scenario)
        oracle = fan_out(build(scenario))
        routed_reports = routed.run()
        oracle_reports = oracle.run()
        assert fingerprint(routed_reports) == fingerprint(oracle_reports), (
            f"{shape} seed {seed}"
        )
        assert routed._engine.processed_events == (
            oracle._engine.processed_events
        )
        assert routed.rng.bit_generator.state == oracle.rng.bit_generator.state


def test_routed_market_is_not_empty():
    """The oracle compares clearing outcomes, not just empty rounds."""
    reports = build(four_cloud_scenario(0)).run()
    assert any(
        report.auction is not None and report.auction.outcome.winners
        for report in reports
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_arrival_reaches_one_server_and_its_process(shape):
    platform = build(SHAPES[shape](3))
    calls = []
    for sid, server in platform._servers.items():
        accept = server.accept

        def counted_accept(engine, request, sid=sid, accept=accept):
            calls.append(("server", sid, request.microservice))
            accept(engine, request)

        server.accept = counted_accept
    for sid, process in platform._arrivals.items():
        schedule_next = process.schedule_next

        def counted_next(engine, now, sid=sid, schedule_next=schedule_next):
            calls.append(("process", sid, None))
            schedule_next(engine, now)

        process.schedule_next = counted_next
    arrivals = []

    def mark(engine, event):
        arrivals.append((len(calls), event.payload.microservice))

    platform._engine._handlers[EventKind.ARRIVAL].insert(0, mark)
    platform.run(3)
    assert arrivals
    bounds = [start for start, _ in arrivals] + [len(calls)]
    for (start, sid), end in zip(arrivals, bounds[1:]):
        servers = [c for c in calls[start:end] if c[0] == "server"]
        processes = [c for c in calls[start:end] if c[0] == "process"]
        assert servers == [("server", sid, sid)]
        assert len(processes) <= 1
        assert processes == [("process", sid, None)] * len(processes)
        # The server runs before the process, as with the fan-out wiring.
        assert calls[start][0] == "server"
