"""A request server's slot heap against an independent start recursion.

Scripted arrivals run through a :class:`RequestServer` with one mid-run
``set_allocation`` that may shrink or grow it.  The server is attached to
the engine, or else advanced only by its arrivals, that reallocation and
one last explicit :meth:`~RequestServer.advance`.

The oracle below shares no code with the server: it walks the instants
of the run in time order, and at one instant a reallocation comes first,
then arrivals (in script order), then completions.  A request starts when
a slot is free, FIFO or earliest deadline first, and is dropped instead
when its start deadline has passed.  The busy fraction is re-read after
every completion and after an arrival that started a request.

Arrival times lie on an eighth-unit grid and works and slacks on a
quarter-unit one, so equal arrival, end and deadline times are common and
the tie rule is exercised.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.processes import Request, RequestServer

pytestmark = pytest.mark.property

HORIZON = 12.0
quarters = st.integers(0, 12).map(lambda k: k * 0.25)
works = st.integers(1, 12).map(lambda k: k * 0.25)
slacks = st.one_of(st.none(), quarters)
allocations = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 4.75])


def edf(request):
    return math.inf if request.deadline is None else request.deadline


def reference(requests, discipline, changes):
    """Counts and totals of the run: ``changes`` is ``[(time, allocation)]``."""
    out = dict(received=0, served=0, dropped=0, waiting=0.0, execution=0.0)
    running, queue, arrivals, changes = [], [], list(requests), list(changes)
    clock = busy = fraction = 0.0
    slots = speed = None
    while True:
        instants = [(changes[0][0], 0)] if changes else []
        instants += [(arrivals[0].arrival_time, 1)] if arrivals else []
        instants += [(min(running)[0], 2)] if running else []
        if not instants or min(instants)[0] >= HORIZON:
            break
        now, kind = min(instants)
        busy, clock = busy + fraction * (now - clock), now
        before = len(running)
        if kind == 0:
            allocation = changes.pop(0)[1]
            slots = max(1, int(allocation))
            speed = allocation / slots
            continue
        if kind == 1:
            out["received"] += 1
            queue.append(arrivals.pop(0))
        else:
            end, start, request = running.pop(running.index(min(running)))
            out["served"] += 1
            out["waiting"] += start - request.arrival_time
            out["execution"] += end - start
        while queue and len(running) < slots:
            pick = 0 if discipline == "fifo" else queue.index(min(queue, key=edf))
            request = queue.pop(pick)
            if request.deadline is not None and now > request.deadline:
                out["dropped"] += 1
            else:
                running.append((now + request.work / speed, now, request))
        if kind == 2 or len(running) > before:
            fraction = min(len(running), slots) / slots
    out["busy"] = busy + fraction * (HORIZON - clock)
    return out


def simulate(requests, discipline, changes, attached):
    (_, first), (when, then) = changes
    server = RequestServer(microservice=1, allocation=first, discipline=discipline)
    engine = SimulationEngine()
    engine.register(EventKind.ARRIVAL, server.handle_arrival)
    if attached:
        engine.attach(server)
    for request in requests:
        engine.schedule(request.arrival_time, EventKind.ARRIVAL, request)
    engine.run_until(when)
    server.set_allocation(then, now=when)
    engine.run_until(HORIZON)
    if not attached:
        server.advance(HORIZON)
    stats = server.stats
    return dict(
        received=stats.received,
        served=stats.served,
        dropped=stats.dropped,
        waiting=stats.total_waiting_time,
        execution=stats.total_execution_time,
        busy=stats.snapshot(0, 0.0, HORIZON).utilization * HORIZON,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(quarters, works, slacks), max_size=30),
    st.sampled_from(["fifo", "edf"]),
    allocations,
    quarters.map(lambda t: t * 2),
    allocations,
    st.booleans(),
)
def test_slot_heap_matches_the_start_recursion(
    script, discipline, first, when, then, attached
):
    requests, arrival = [], 0.0
    for request_id, (gap, work, slack) in enumerate(script):
        arrival += gap * 0.5
        requests.append(Request(
            request_id=request_id,
            microservice=1,
            user=0,
            arrival_time=arrival,
            work=work,
            deadline=None if slack is None else arrival + slack,
        ))
    changes = [(0.0, first), (when, then)]
    got = simulate(requests, discipline, changes, attached)
    want = reference(requests, discipline, changes)
    for key in ("received", "served", "dropped"):
        assert got[key] == want[key], key
    for key in ("waiting", "execution", "busy"):
        assert math.isclose(got[key], want[key], rel_tol=1e-12, abs_tol=1e-12), key
