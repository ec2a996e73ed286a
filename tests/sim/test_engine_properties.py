"""Property tests for the DES kernel's ordering contract.

* The event queue pops in ``(time, insertion)`` order whatever the payloads
  are (dicts do not order), with pushes and pops interleaved.
* ``run_until`` over touching horizons dispatches the same events, in the
  same order, as repeated ``step()`` calls — including events that the
  handlers schedule while a ``run_until`` call is draining the queue.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind, EventQueue

pytestmark = pytest.mark.property

# Half-unit grids make equal times (ties) common.
times = st.integers(0, 6).map(lambda k: k * 0.5)
delays = st.integers(0, 4).map(lambda k: k * 0.5)
payloads = st.dictionaries(st.text(max_size=3), st.integers(), max_size=3)
kinds = st.sampled_from(
    [EventKind.ARRIVAL, EventKind.ROUND_BOUNDARY, EventKind.CUSTOM]
)

PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(st.lists(st.one_of(st.tuples(times, payloads), st.none()), max_size=60))
def test_queue_pops_in_time_then_insertion_order(operations):
    """``None`` pops (when non-empty); a ``(time, payload)`` pair pushes."""
    queue = EventQueue()
    model = []  # (time, push index) of the pending events
    pushed = 0
    for op in operations:
        if op is None:
            if not model:
                continue
            expected = min(model)
            model.remove(expected)
            assert queue.peek().payload["#"] == expected[1]
            event = queue.pop()
            assert (event.time, event.payload["#"]) == expected
        else:
            time, payload = op
            event = queue.push(time, EventKind.CUSTOM, {**payload, "#": pushed})
            assert (event.time, event.sequence) == (time, pushed)
            model.append((time, pushed))
            pushed += 1
        assert len(queue) == len(model)
    drained = [queue.pop() for _ in range(len(model))]
    assert [(e.time, e.payload["#"]) for e in drained] == sorted(model)


def follow_up_engine(log):
    """An engine whose handlers log each event and schedule follow-ups.

    A payload ``{"id", "delays", "depth"}`` schedules one follow-up per
    delay (zero delays tie with the current time) until depth 2.  CUSTOM
    has two handlers, to keep their registration order in view.
    """
    engine = SimulationEngine()

    def handle(eng, event):
        payload = event.payload
        log.append((event.kind, event.time, event.sequence, payload["id"]))
        if payload["depth"] < 2:
            for k, (delay, kind) in enumerate(payload["delays"]):
                eng.schedule_after(delay, kind, {
                    "id": f"{payload['id']}.{k}",
                    "delays": payload["delays"],
                    "depth": payload["depth"] + 1,
                })

    for kind in (EventKind.ARRIVAL, EventKind.ROUND_BOUNDARY, EventKind.CUSTOM):
        engine.register(kind, handle)
    engine.register(
        EventKind.CUSTOM, lambda eng, event: log.append(("second", event.sequence))
    )
    return engine


scripts = st.lists(
    st.tuples(times, kinds, st.lists(st.tuples(delays, kinds), max_size=2)),
    max_size=8,
)


def seed(engine, script):
    for i, (time, kind, follow_ups) in enumerate(script):
        engine.schedule(time, kind, {"id": str(i), "delays": follow_ups, "depth": 0})


@PROPERTY
@given(script=scripts, steps=st.lists(delays, max_size=8))
def test_run_until_over_touching_horizons_matches_step(script, steps):
    stepped_log = []
    stepped = follow_up_engine(stepped_log)
    seed(stepped, script)
    while stepped.pending_events:
        stepped.step()

    log = []
    engine = follow_up_engine(log)
    seed(engine, script)
    horizon = 0.0
    # Every event lies before 3.0 + 2 × 2.0, so the last horizon drains all.
    for horizon_step in [*steps, 100.0]:
        start, horizon = horizon, horizon + horizon_step
        before = len(log)
        engine.run_until(horizon)
        assert engine.now == horizon
        for entry in log[before:]:
            if entry[0] != "second":
                assert start <= entry[1] < horizon
    assert log == stepped_log
    assert engine.processed_events == stepped.processed_events
    assert engine.pending_events == 0
