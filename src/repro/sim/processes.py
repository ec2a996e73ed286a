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
        self._schedule_next(engine, engine.now)

    def _schedule_next(self, engine: SimulationEngine, now: float) -> None:
        gap = float(self._rng.exponential(1.0 / self.rate))
        when = now + gap
        if when >= self.horizon:
            return
        request = Request(
            request_id=next(self._ids),
            microservice=self.microservice,
            user=int(self._rng.integers(0, self.user_pool)),
            arrival_time=when,
            work=float(self._rng.exponential(self.work_mean)),
            deadline=(
                when + self.relative_deadline
                if self.relative_deadline is not None
                else None
            ),
        )
        engine.schedule(when, EventKind.ARRIVAL, request)

    def on_arrival(self, engine: SimulationEngine, event: Event) -> None:
        """Handler hook: reschedule the next arrival of this process."""
        request = event.payload
        if isinstance(request, Request) and request.microservice == self.microservice:
            self._schedule_next(engine, event.time)


@dataclass
class _InService:
    request: Request
    started_at: float


class RequestServer:
    """FIFO multi-slot server for one microservice.

    ``allocation`` controls both concurrency (``floor(allocation)`` slots,
    at least one) and per-slot speed (``speed_per_unit * allocation /
    slots``), so the total service capacity scales linearly with allocated
    resources.  Statistics are accumulated into a
    :class:`~repro.sim.metrics.MicroserviceStats`.
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
        self._allocation = allocation
        self._waiting: list[Request] = []
        self._in_service: dict[int, _InService] = {}

    @property
    def allocation(self) -> float:
        """Resource units currently allocated to this microservice."""
        return self._allocation

    @property
    def slots(self) -> int:
        """Number of parallel service slots (≥ 1)."""
        return max(1, int(self._allocation))

    @property
    def speed(self) -> float:
        """Work units per time unit that each busy slot processes."""
        return self.speed_per_unit * self._allocation / self.slots

    @property
    def queue_length(self) -> int:
        """Requests waiting (not yet in service)."""
        return len(self._waiting)

    @property
    def busy_slots(self) -> int:
        """Requests currently in service."""
        return len(self._in_service)

    def set_allocation(self, allocation: float, now: float) -> None:
        """Re-allocate resources (takes effect for future service starts)."""
        if allocation <= 0:
            raise SimulationError(f"allocation must be positive, got {allocation}")
        self._allocation = allocation
        self.stats.allocation = allocation
        del now  # reallocation is instantaneous in this model

    def handle_arrival(self, engine: SimulationEngine, event: Event) -> None:
        """ARRIVAL handler: enqueue the request and try to start service."""
        request = event.payload
        if not isinstance(request, Request) or request.microservice != self.microservice:
            return
        self.stats.record_arrival()
        self._waiting.append(request)
        self._try_start(engine)

    def handle_departure(self, engine: SimulationEngine, event: Event) -> None:
        """DEPARTURE handler: complete the request and pull the next one."""
        payload = event.payload
        if not isinstance(payload, tuple) or len(payload) != 2:
            return
        microservice, request_id = payload
        if microservice != self.microservice:
            return
        record = self._in_service.pop(request_id, None)
        if record is None:
            raise SimulationError(
                f"departure for unknown request {request_id} at microservice "
                f"{self.microservice}"
            )
        waiting = record.started_at - record.request.arrival_time
        execution = event.time - record.started_at
        self.stats.record_completion(waiting_time=waiting, execution_time=execution)
        self._sync_busy_fraction(event.time)
        self._try_start(engine)

    def _sync_busy_fraction(self, now: float) -> None:
        """Record the current fraction of busy slots (slot-weighted 𝕃).

        A shrinking :meth:`set_allocation` leaves requests already in
        service running past the new slot count; the server counts as
        fully busy until enough of them depart.
        """
        slots = self.slots
        self.stats.set_busy_fraction(
            now, min(len(self._in_service), slots) / slots
        )

    def _next_request(self) -> Request:
        """Dequeue per discipline: FIFO order or earliest deadline first."""
        if self.discipline == "edf":
            import math

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
        while self._waiting and len(self._in_service) < self.slots:
            request = self._next_request()
            now = engine.now
            if request.deadline is not None and now > request.deadline:
                # Stale in queue: the client gave up; count and move on.
                self.stats.record_drop()
                continue
            self._in_service[request.request_id] = _InService(request, started_at=now)
            self._sync_busy_fraction(now)
            duration = request.work / self.speed
            engine.schedule_after(
                duration, EventKind.DEPARTURE, (self.microservice, request.request_id)
            )
