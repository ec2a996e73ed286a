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
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind
from repro.sim.metrics import MicroserviceStats

__all__ = ["Request", "ArrivalProcess", "RequestServer"]


@dataclass(frozen=True)
class Request:
    """A single user request flowing through a microservice.

    ``work`` is the request's intrinsic service requirement in work units;
    the actual execution time is ``work / speed`` where speed derives from
    the microservice's current resource allocation.  ``deadline`` (absolute
    time, optional) is the latest moment service may *start*: a
    deadline-enforcing server drops the request once it expires in queue,
    modelling delay-sensitive traffic that is worthless when stale.
    """

    request_id: int
    microservice: int
    user: int
    arrival_time: float
    work: float
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise SimulationError(f"request work must be positive, got {self.work}")
        if self.deadline is not None and self.deadline < self.arrival_time:
            raise SimulationError(
                f"deadline {self.deadline} precedes arrival {self.arrival_time}"
            )


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
        gap = float(self._rng.exponential(1.0 / self.rate))
        when = now + gap
        if when >= self.horizon:
            return
        # Positional, in field order (request_id, microservice, user,
        # arrival_time, work, deadline): keyword arguments make this
        # once-per-arrival construction about a third slower.
        request = Request(
            next(self._ids),
            self.microservice,
            int(self._rng.integers(0, self.user_pool)),
            when,
            float(self._rng.exponential(self.work_mean)),
            (
                when + self.relative_deadline
                if self.relative_deadline is not None
                else None
            ),
        )
        engine.schedule(when, EventKind.ARRIVAL, request)

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
        """Enqueue an arriving request of this microservice; try to start it."""
        self.stats.record_arrival()
        self._waiting.append(request)
        self._try_start(engine)

    def complete(self, engine: SimulationEngine, request_id: int, now: float) -> None:
        """Finish request ``request_id`` at ``now`` and pull the next one."""
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
        self._sync_busy_fraction(now)
        self._try_start(engine)

    def _sync_busy_fraction(self, now: float) -> None:
        """Record the current fraction of busy slots (slot-weighted 𝕃).

        A shrinking :meth:`set_allocation` leaves requests already in
        service running past the new slot count; the server counts as
        fully busy until enough of them depart.
        """
        slots = self._slots
        self.stats.set_busy_fraction(
            now, min(len(self._in_service), slots) / slots
        )

    def _next_request(self) -> Request:
        """Dequeue per discipline: FIFO order or earliest deadline first."""
        if self.discipline == "edf":
            position = min(
                range(len(self._waiting)),
                key=lambda i: (
                    self._waiting[i].deadline
                    if self._waiting[i].deadline is not None
                    else math.inf,
                    i,
                ),
            )
            return self._waiting.pop(position)
        return self._waiting.pop(0)

    def _try_start(self, engine: SimulationEngine) -> None:
        while self._waiting and len(self._in_service) < self._slots:
            request = self._next_request()
            now = engine.now
            if request.deadline is not None and now > request.deadline:
                # Stale in queue: the client gave up; count and move on.
                self.stats.record_drop()
                continue
            self._in_service[request.request_id] = (request, now)
            self._sync_busy_fraction(now)
            duration = request.work / self._speed
            engine.schedule_after(
                duration, EventKind.DEPARTURE, (self.microservice, request.request_id)
            )
