"""Request arrival and service processes built on the DES kernel.

These processes model each microservice as a FIFO multi-slot server: the
number of concurrent service slots equals its (integer part of) resource
allocation, and the mean service time shrinks proportionally as allocation
grows.  This captures the paper's premise that an under-allocated
microservice accumulates queueing delay — exactly the signal the
Section-III demand estimator keys on.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind
from repro.sim.metrics import MicroserviceStats

__all__ = ["Request", "ArrivalProcess", "RequestServer"]

# Looked up once: reading a member off the enum class costs ~0.1 µs, paid
# on every scheduled event otherwise.
_ARRIVAL = EventKind.ARRIVAL
_DEPARTURE = EventKind.DEPARTURE


class Request(
    namedtuple(
        "Request",
        ("request_id", "microservice", "user", "arrival_time", "work", "deadline"),
    )
):
    """A single user request flowing through a microservice.

    ``work`` is the request's intrinsic service requirement in work units;
    the actual execution time is ``work / speed`` where speed derives from
    the microservice's current resource allocation.  ``deadline`` (absolute
    time, optional) is the latest moment service may *start*: a
    deadline-enforcing server drops the request once it expires in queue,
    modelling delay-sensitive traffic that is worthless when stale.

    An immutable tuple subclass, built once per arrival: equality and hash
    are the tuple's, over all six fields in order.
    """

    __slots__ = ()

    def __new__(
        cls,
        request_id: int,
        microservice: int,
        user: int,
        arrival_time: float,
        work: float,
        deadline: float | None = None,
    ) -> Request:
        if work <= 0:
            raise SimulationError(f"request work must be positive, got {work}")
        if deadline is not None and deadline < arrival_time:
            raise SimulationError(
                f"deadline {deadline} precedes arrival {arrival_time}"
            )
        return tuple.__new__(
            cls, (request_id, microservice, user, arrival_time, work, deadline)
        )

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Request:
        # namedtuple's own _make (and so _replace) would skip the checks.
        return cls(*iterable)


class ArrivalProcess:
    """A Poisson (or general renewal) arrival process for one microservice.

    The process schedules its own next arrival each time it fires, and stops
    scheduling once ``horizon`` is reached.  Inter-arrival times come from
    ``interarrival_sampler`` so deterministic and bursty processes plug in
    without subclassing.
    """

    def __init__(
        self,
        microservice: int,
        rate: float,
        horizon: float,
        rng: np.random.Generator,
        work_mean: float = 1.0,
        user_pool: int = 1,
        relative_deadline: float | None = None,
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"arrival rate must be positive, got {rate}")
        if work_mean <= 0:
            raise SimulationError(f"work_mean must be positive, got {work_mean}")
        if relative_deadline is not None and relative_deadline <= 0:
            raise SimulationError(
                f"relative_deadline must be positive, got {relative_deadline}"
            )
        self.microservice = microservice
        self.rate = rate
        self.horizon = horizon
        self.work_mean = work_mean
        self.user_pool = max(1, user_pool)
        self.relative_deadline = relative_deadline
        self._rng = rng
        self._ids = itertools.count()

    def start(self, engine: SimulationEngine) -> None:
        """Schedule the first arrival on ``engine``."""
        self.schedule_next(engine, engine.now)

    def schedule_next(self, engine: SimulationEngine, now: float) -> None:
        """Draw the arrival after ``now`` and schedule it (none past the horizon).

        Each call draws the gap, the user and the work from the process's
        RNG, in that order; a gap that reaches the horizon ends the process
        after the first draw.
        """
        rng = self._rng
        when = now + float(rng.exponential(1.0 / self.rate))
        if when >= self.horizon:
            return
        relative_deadline = self.relative_deadline
        # Positional, in field order (request_id, microservice, user,
        # arrival_time, work, deadline): the cheapest construction.
        request = Request(
            next(self._ids),
            self.microservice,
            int(rng.integers(0, self.user_pool)),
            when,
            float(rng.exponential(self.work_mean)),
            None if relative_deadline is None else when + relative_deadline,
        )
        engine.schedule(when, _ARRIVAL, request)

    def on_arrival(self, engine: SimulationEngine, event: Event) -> None:
        """ARRIVAL handler: reschedule if the request is this process's own."""
        request = event.payload
        if isinstance(request, Request) and request.microservice == self.microservice:
            self.schedule_next(engine, event.time)


class RequestServer:
    """FIFO multi-slot server for one microservice.

    ``allocation`` controls both concurrency (``floor(allocation)`` slots,
    at least one) and per-slot speed (``speed_per_unit * allocation /
    slots``), so the total service capacity scales linearly with allocated
    resources.  Statistics are accumulated into a
    :class:`~repro.sim.metrics.MicroserviceStats`.

    ``handle_arrival`` / ``handle_departure`` are engine handlers that
    ignore events of other microservices, so several servers can share one
    engine's handler lists.  A caller that already routes events by
    microservice calls :meth:`accept` and :meth:`complete` directly.
    """

    def __init__(
        self,
        microservice: int,
        allocation: float,
        speed_per_unit: float = 1.0,
        discipline: str = "fifo",
    ) -> None:
        if allocation <= 0:
            raise SimulationError(f"allocation must be positive, got {allocation}")
        if speed_per_unit <= 0:
            raise SimulationError(f"speed_per_unit must be positive, got {speed_per_unit}")
        if discipline not in ("fifo", "edf"):
            raise SimulationError(
                f"discipline must be 'fifo' or 'edf', got {discipline!r}"
            )
        self.microservice = microservice
        self.speed_per_unit = speed_per_unit
        self.discipline = discipline
        self.stats = MicroserviceStats(microservice=microservice, allocation=allocation)
        self._waiting: list[Request] = []
        # request id -> (request, service start time)
        self._in_service: dict[int, tuple[Request, float]] = {}
        self.set_allocation(allocation, now=0.0)

    @property
    def allocation(self) -> float:
        """Resource units currently allocated to this microservice."""
        return self._allocation

    @property
    def slots(self) -> int:
        """Number of parallel service slots (≥ 1)."""
        return self._slots

    @property
    def speed(self) -> float:
        """Work units per time unit that each busy slot processes."""
        return self._speed

    @property
    def queue_length(self) -> int:
        """Requests waiting (not yet in service)."""
        return len(self._waiting)

    @property
    def busy_slots(self) -> int:
        """Requests currently in service."""
        return len(self._in_service)

    def set_allocation(self, allocation: float, now: float) -> None:
        """Re-allocate resources (takes effect for future service starts).

        Slot count and per-slot speed are computed here, once per
        allocation, not on every service start.
        """
        if allocation <= 0:
            raise SimulationError(f"allocation must be positive, got {allocation}")
        self._allocation = allocation
        self._slots = max(1, int(allocation))
        self._speed = self.speed_per_unit * allocation / self._slots
        self.stats.allocation = allocation
        del now  # reallocation is instantaneous in this model

    def handle_arrival(self, engine: SimulationEngine, event: Event) -> None:
        """ARRIVAL handler: enqueue the request and try to start service."""
        request = event.payload
        if isinstance(request, Request) and request.microservice == self.microservice:
            self.accept(engine, request)

    def handle_departure(self, engine: SimulationEngine, event: Event) -> None:
        """DEPARTURE handler: complete the request and pull the next one."""
        payload = event.payload
        if not isinstance(payload, tuple) or len(payload) != 2:
            return
        microservice, request_id = payload
        if microservice == self.microservice:
            self.complete(engine, request_id, event.time)

    def accept(self, engine: SimulationEngine, request: Request) -> None:
        """Enqueue an arriving request of this microservice; start what fits."""
        self.stats.record_arrival()
        self._waiting.append(request)
        if len(self._in_service) < self._slots:
            self._start_waiting(engine, engine.now, False)

    def complete(self, engine: SimulationEngine, request_id: int, now: float) -> None:
        """Finish request ``request_id`` at ``now`` and pull the next one.

        ``now`` is the engine's clock: the time of the departure event.
        """
        record = self._in_service.pop(request_id, None)
        if record is None:
            raise SimulationError(
                f"departure for unknown request {request_id} at microservice "
                f"{self.microservice}"
            )
        request, started_at = record
        self.stats.record_completion(
            waiting_time=started_at - request.arrival_time,
            execution_time=now - started_at,
        )
        self._start_waiting(engine, now, True)

    def _start_waiting(
        self, engine: SimulationEngine, now: float, changed: bool
    ) -> None:
        """Start queued requests on free slots, then sync the busy fraction.

        ``changed`` says the caller already changed the busy count (a
        departure).  The busy fraction (slot-weighted 𝕃) is synced once,
        after every start, if any request started or ``changed`` is set.
        A sync per change would add only ``fraction × 0.0`` for the later
        ones, so one sync at the final count accrues the same busy time.

        A shrinking :meth:`set_allocation` leaves requests already in
        service running past the new slot count; the server counts as
        fully busy until enough of them depart.
        """
        waiting = self._waiting
        in_service = self._in_service
        slots = self._slots
        while waiting and len(in_service) < slots:
            request = waiting.pop(0) if self.discipline == "fifo" else self._pop_edf()
            deadline = request.deadline
            if deadline is not None and now > deadline:
                # Stale in queue: the client gave up; count and move on.
                self.stats.record_drop()
                continue
            request_id = request.request_id
            in_service[request_id] = (request, now)
            engine.schedule_after(
                request.work / self._speed,
                _DEPARTURE,
                (self.microservice, request_id),
            )
            changed = True
        if changed:
            self.stats.set_busy_fraction(now, min(len(in_service), slots) / slots)

    def _pop_edf(self) -> Request:
        """Dequeue the earliest deadline (no deadline last), FIFO on ties."""
        waiting = self._waiting
        position = min(
            range(len(waiting)),
            key=lambda i: (
                waiting[i].deadline if waiting[i].deadline is not None else math.inf,
                i,
            ),
        )
        return waiting.pop(position)
