"""Event primitives for the discrete-event simulation engine.

The simulator is a classic event-queue design: a time-ordered heap of
:class:`Event` records, each carrying a kind, a timestamp, and an arbitrary
payload.  Ties in time are broken by a monotonically increasing sequence
number so that event ordering is fully deterministic — a requirement for
reproducible experiments.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.Enum):
    """The kinds of events the edge-cloud request simulator understands."""

    ARRIVAL = "arrival"
    """A user request arrives at a microservice's queue."""

    SERVICE_START = "service_start"
    """A queued request begins execution on allocated resources."""

    DEPARTURE = "departure"
    """A request finishes execution and leaves the system."""

    ROUND_BOUNDARY = "round_boundary"
    """An auction-round boundary: metrics are snapshotted and reset."""

    CUSTOM = "custom"
    """A user-defined event processed by a registered handler."""


@dataclass(frozen=True, order=True)
class Event:
    """A single simulation event.

    Events are totally ordered by ``(time, sequence)``; ``kind`` and
    ``payload`` are excluded from the comparison so heterogeneous payloads
    never break heap ordering.
    """

    time: float
    sequence: int
    kind: EventKind = field(compare=False)
    payload: Any = field(compare=False, default=None)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SimulationError(f"event time must be non-negative, got {self.time}")


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    The queue assigns sequence numbers itself, so callers only provide the
    time, kind, and payload.  Popping from an empty queue raises
    :class:`~repro.errors.SimulationError` rather than returning a sentinel,
    because an empty queue mid-simulation indicates a scheduling bug.

    The heap holds ``(time, sequence, event)`` tuples: the same
    ``(time, sequence)`` order as :class:`Event`'s own comparison, decided
    by C tuple comparison instead of the dataclass's generated ``__lt__``.
    Sequence numbers are unique, so the comparison never reaches the event.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return the stored record."""
        sequence = next(self._counter)
        event = Event(time, sequence, kind, payload)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        if not self._heap:
            raise SimulationError("cannot peek into an empty event queue")
        return self._heap[0][2]

    def pop_before(self, horizon: float) -> Iterator[Event]:
        """Pop, in order, every event earlier than ``horizon``.

        The heap is re-checked before each pop, so events pushed while the
        iteration runs (by the handlers of the events it yields) are popped
        in their turn when they fall before the horizon.
        """
        heap = self._heap
        while heap and heap[0][0] < horizon:
            yield heapq.heappop(heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def clear(self) -> None:
        """Drop all pending events (used between independent runs)."""
        self._heap.clear()
