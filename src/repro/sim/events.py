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
from collections import namedtuple
from collections.abc import Iterable
from typing import Any

from repro.errors import SimulationError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    """The kinds of events the edge-cloud request simulator understands.

    The kinds are small consecutive integers, so the engine dispatches an
    event by indexing a list of handler lists with its kind: no
    ``Enum.__hash__`` call per event.
    """

    ARRIVAL = 0
    """A user request arrives at a microservice's queue."""

    SERVICE_START = 1
    """A queued request begins execution on allocated resources."""

    DEPARTURE = 2
    """A request finishes execution and leaves the system."""

    ROUND_BOUNDARY = 3
    """An auction-round boundary: metrics are snapshotted and reset."""

    CUSTOM = 4
    """A user-defined event processed by a registered handler."""


class Event(namedtuple("Event", ("time", "sequence", "kind", "payload"))):
    """A single simulation event: an immutable ``(time, sequence, kind, payload)``.

    A tuple subclass, so building one costs a tuple and the heap compares
    events in C.  Equality, order and hash are the tuple's, field by
    field.  An :class:`EventQueue` gives every event a unique sequence
    number, so within one queue the order is decided by
    ``(time, sequence)`` and never reaches ``kind`` or ``payload``.
    Hashing an event hashes its payload too, and so fails for an
    unhashable payload.
    """

    __slots__ = ()

    def __new__(
        cls, time: float, sequence: int, kind: EventKind, payload: Any = None
    ) -> Event:
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        return tuple.__new__(cls, (time, sequence, kind, payload))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Event:
        # namedtuple's own _make (and so _replace) would skip the check.
        return cls(*iterable)


_new_tuple = tuple.__new__


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    The queue assigns sequence numbers itself, so callers only provide the
    time, kind, and payload.  Popping from an empty queue raises
    :class:`~repro.errors.SimulationError` rather than returning a sentinel,
    because an empty queue mid-simulation indicates a scheduling bug.
    The heap holds the events themselves, ordered by tuple comparison.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return the stored record."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        # Event's own check, made here: the record is then built without
        # a second Python call per event.
        event = _new_tuple(Event, (time, next(self._counter), kind, payload))
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        if not self._heap:
            raise SimulationError("cannot peek into an empty event queue")
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def clear(self) -> None:
        """Drop all pending events (used between independent runs)."""
        self._heap.clear()
