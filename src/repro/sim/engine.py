"""The discrete-event simulation engine.

A deliberately small, dependency-free DES kernel: a clock, an event queue,
and a dispatch table mapping :class:`~repro.sim.events.EventKind` to handler
callables, indexed by the integer kind.  Handlers receive the engine itself
plus the event, and may schedule further events.  The engine enforces the
fundamental DES invariant that time never moves backwards.

The request-processing processes built on top of this kernel live in
:mod:`repro.sim.processes`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind, EventQueue

__all__ = ["SimulationEngine"]

Handler = Callable[["SimulationEngine", Event], None]


class SimulationEngine:
    """A minimal deterministic discrete-event simulation kernel.

    Example
    -------
    >>> engine = SimulationEngine()
    >>> seen = []
    >>> engine.register(EventKind.CUSTOM, lambda eng, ev: seen.append(ev.payload))
    >>> _ = engine.schedule(1.5, EventKind.CUSTOM, "hello")
    >>> engine.run_until(10.0)
    >>> seen
    ['hello']
    >>> engine.now
    10.0
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        # One handler list per kind, at the index of the kind's value:
        # dispatch indexes a list instead of hashing the kind.
        self._handlers: list[list[Handler]] = [[] for _ in EventKind]
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """How many events have been dispatched so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """How many events are still scheduled."""
        return len(self._queue)

    def register(self, kind: EventKind, handler: Handler) -> None:
        """Attach ``handler`` to every future event of ``kind``.

        Multiple handlers for one kind run in registration order.
        """
        self._handlers[kind].append(handler)

    def schedule(self, time: float, kind: EventKind, payload: object = None) -> Event:
        """Schedule an event at absolute ``time`` (must not be in the past)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        return self._queue.push(time, kind, payload)

    def schedule_after(self, delay: float, kind: EventKind, payload: object = None) -> Event:
        """Schedule an event ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, kind, payload)

    def step(self) -> Event:
        """Dispatch the single earliest pending event and return it."""
        event = self._queue.pop()
        self._now = event.time
        self._processed += 1
        for handler in self._handlers[event.kind]:
            handler(self, event)
        return event

    def run_until(self, horizon: float) -> None:
        """Process events in time order until ``horizon``.

        Events scheduled exactly at the horizon are *not* processed (the
        horizon is exclusive), which makes back-to-back calls with touching
        horizons process each event exactly once.  The clock is advanced to
        the horizon on return even if the queue drains early.  Each event is
        dispatched exactly as :meth:`step` dispatches it.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon} is before current time {self._now}"
            )
        # The heap is re-checked before each pop, so events that handlers
        # push during the run are dispatched in their turn.
        heap = self._queue._heap
        pop = heapq.heappop
        handlers = self._handlers
        while heap and heap[0].time < horizon:
            event = pop(heap)
            self._now = event.time
            self._processed += 1
            for handler in handlers[event.kind]:
                handler(self, event)
        self._now = horizon

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely, bounded by ``max_events`` as a guard.

        The bound exists because processes that endlessly reschedule
        themselves (e.g. an arrival process with no horizon) would otherwise
        hang; hitting it raises :class:`~repro.errors.SimulationError`.
        """
        count = 0
        while self._queue:
            self.step()
            count += 1
            if count >= max_events:
                raise SimulationError(
                    f"run_all exceeded {max_events} events; "
                    "did a process forget its horizon?"
                )

    def reset(self) -> None:
        """Clear time, counters, and any pending events; keep handlers."""
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
