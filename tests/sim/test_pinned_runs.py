"""Direct simulator runs pinned by digest, for branches no platform takes.

:class:`~repro.edge.platform.EdgePlatform` only builds FIFO servers, never
gives requests deadlines and only re-allocates between rounds through
``set_allocation`` on its own schedule.  The runs below drive a bare
:class:`SimulationEngine` through the other branches: an EDF server,
arrival processes with a relative deadline (so stale requests are
dropped in queue), and a shrinking ``set_allocation`` mid-run that leaves
more requests in service than the server has slots, followed by a growth
that lets one event start several queued requests.

Every round's snapshot (floats as ``float.hex``), the queue and service
occupancy, the engine's event count and the shared RNG's final state go
into one sha256 digest, recorded with the frozen-dataclass simulator
before its per-event path was slimmed.
"""

import dataclasses
import hashlib
import json

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.processes import ArrivalProcess, Request, RequestServer
from repro.sim.rng import make_rng

SEEDS = range(10)
ROUND = 5.0
ROUNDS = 8
#: Allocations set at the start of a round: 5.0 → 1.5 shrinks four slots
#: to one while requests are in service; 1.5 → 3.0 grows one slot to three
#: while requests wait.
REALLOCATIONS = {2: 1.5, 5: 3.0}


def hexed(value):
    return value.hex() if isinstance(value, float) else value


def scripted_requests(seed):
    """Requests for microservice 2 with mixed deadlines, some without one.

    An arrival process gives every request the same relative deadline,
    which makes EDF order equal arrival order; these do not.
    """
    rng = make_rng(1_000 + seed)
    times = sorted(rng.uniform(0.0, ROUND * ROUNDS, size=60))
    requests = []
    for request_id, arrival in enumerate(times):
        slack = float(rng.choice([0.5, 1.0, 4.0, -1.0]))
        requests.append(Request(
            request_id=request_id,
            microservice=2,
            user=0,
            arrival_time=float(arrival),
            work=float(rng.exponential(1.5)),
            deadline=None if slack < 0 else float(arrival) + slack,
        ))
    return requests


def run(seed):
    """One seeded run; returns its record and the occupancy it reached."""
    rng = make_rng(seed)
    engine = SimulationEngine()
    servers = [
        RequestServer(microservice=0, allocation=5.0, discipline="fifo"),
        RequestServer(microservice=1, allocation=5.0, discipline="edf"),
        RequestServer(microservice=2, allocation=5.0, discipline="edf"),
    ]
    processes = [
        ArrivalProcess(
            microservice=server.microservice,
            rate=3.0,
            horizon=ROUND * ROUNDS,
            rng=rng,
            work_mean=1.2,
            user_pool=4,
            relative_deadline=1.5,
        )
        for server in servers[:2]
    ]
    for server, process in zip(servers, [*processes, None]):
        engine.register(EventKind.ARRIVAL, server.handle_arrival)
        engine.attach(server)
        if process is not None:
            engine.register(EventKind.ARRIVAL, process.on_arrival)
    for process in processes:
        process.start(engine)
    for request in scripted_requests(seed):
        engine.schedule(request.arrival_time, EventKind.ARRIVAL, request)
    rounds = []
    overfull = False
    for round_index in range(ROUNDS):
        start = engine.now
        if round_index in REALLOCATIONS:
            for server in servers:
                server.set_allocation(REALLOCATIONS[round_index], now=start)
                overfull |= server.busy_slots > server.slots
        engine.run_until(start + ROUND)
        for server in servers:
            snapshot = server.stats.snapshot(round_index, start, engine.now)
            rounds.append({
                "snapshot": {
                    key: hexed(value)
                    for key, value in dataclasses.asdict(snapshot).items()
                },
                "queue": server.queue_length,
                "busy": server.busy_slots,
                "busy_time": server.stats.busy_time.hex(),
            })
            server.stats.reset(engine.now)
    record = {
        "rounds": rounds,
        "events": engine.processed_events,
        "rng": rng.bit_generator.state,
    }
    return record, overfull


def digest():
    sha = hashlib.sha256()
    for seed in SEEDS:
        record, _ = run(seed)
        sha.update(json.dumps(record, sort_keys=True).encode())
    return sha.hexdigest()


PINNED_DIGEST = "13c76420f4b87876a00c2b946cc9dc5b0da99aec87a9fce710fcd33277cc6f35"


def test_direct_runs_are_pinned():
    assert digest() == PINNED_DIGEST


def test_runs_take_the_unrouted_branches():
    """The pinned runs drop stale requests and overfill a shrunk server."""
    dropped = overfull_runs = 0
    for seed in SEEDS:
        record, overfull = run(seed)
        overfull_runs += overfull
        dropped += sum(r["snapshot"]["dropped"] for r in record["rounds"])
    assert dropped > 0
    assert overfull_runs > 0
