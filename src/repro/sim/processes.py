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
from collections import deque, namedtuple
from collections.abc import Iterable
from heapq import heappop, heappush
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

    A completion is not an engine event: the requests in service sit in a
    min-heap of ``(end, seq, request, start)``, ``seq`` counting service
    starts, and :meth:`advance` retires them in that order.  The server
    advances on its own arrivals, in :meth:`set_allocation` and, once
    :meth:`SimulationEngine.attach`-ed, at every ``run_until`` horizon; its
    state is exact at those times.  A request ending at exactly ``t`` is
    still in service at ``t``, for an arrival as for a horizon.

    ``handle_arrival`` ignores requests of other microservices, so several
    servers can share one engine's handler list; a caller that already
    routes arrivals calls :meth:`accept`.
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
        self._waiting: deque[Request] = deque()
        self._running: list[tuple[float, int, Request, float]] = []
        self._starts = itertools.count()
        self.retired = 0  # completions the attached engine has not counted
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
        """Requests in service as of the server's last advance."""
        return len(self._running)

    def set_allocation(self, allocation: float, now: float) -> None:
        """Advance to ``now``, then re-allocate for future service starts.

        Requests in service keep their end times; a growth starts no queued
        request before the next arrival or completion.
        """
        if allocation <= 0:
            raise SimulationError(f"allocation must be positive, got {allocation}")
        self.advance(now)
        self._allocation = allocation
        self._slots = max(1, int(allocation))
        self._speed = self.speed_per_unit * allocation / self._slots
        self.stats.allocation = allocation

    def handle_arrival(self, engine: SimulationEngine, event: Event) -> None:
        """ARRIVAL handler: accept the request if it is this server's own."""
        request = event.payload
        if isinstance(request, Request) and request.microservice == self.microservice:
            self.accept(request, event.time)

    def accept(self, request: Request, now: float) -> None:
        """Take ``request`` arriving at ``now``, after retiring what ended before."""
        running = self._running
        if running and running[0][0] < now:
            self.advance(now)
        self.stats.received += 1
        waiting = self._waiting
        slots = self._slots
        if not waiting and len(running) < slots:
            # A free slot and no queue: start at once.  The deadline is at
            # or after the arrival, so the request is never stale.
            end = now + request.work / self._speed
            heappush(running, (end, next(self._starts), request, now))
            self.stats.set_busy_fraction(now, len(running) / slots)
            return
        waiting.append(request)
        if len(running) < slots:
            self._start_waiting(now, False)

    def advance(self, time: float) -> None:
        """Retire, in ``(end, seq)`` order, every request ending before ``time``.

        Each retirement records the completion, starts what is queued at
        ``now = end`` and syncs the busy fraction once.
        """
        running = self._running
        stats = self.stats
        while running and running[0][0] < time:
            end, _, request, start = heappop(running)
            stats.record_completion(start - request.arrival_time, end - start)
            self.retired += 1
            if self._waiting:
                self._start_waiting(end, True)
            else:  # nothing to start: one call less per completion
                slots = self._slots
                stats.set_busy_fraction(end, min(len(running), slots) / slots)

    def _start_waiting(self, now: float, changed: bool) -> None:
        """Start queued requests on free slots, then sync the busy fraction.

        The busy fraction (slot-weighted 𝕃) is synced once, after every
        start, if a request started or ``changed`` (a retirement) is set:
        a sync per change would add only ``fraction × 0.0`` for the later
        ones.  After a shrinking :meth:`set_allocation` the server counts
        as fully busy until enough requests in service retire.
        """
        waiting = self._waiting
        running = self._running
        slots = self._slots
        while waiting and len(running) < slots:
            request = waiting.popleft() if self.discipline == "fifo" else self._pop_edf()
            deadline = request.deadline
            if deadline is not None and now > deadline:
                # Stale in queue: the client gave up; count and move on.
                self.stats.record_drop()
                continue
            end = now + request.work / self._speed
            heappush(running, (end, next(self._starts), request, now))
            changed = True
        if changed:
            self.stats.set_busy_fraction(now, min(len(running), slots) / slots)

    def _pop_edf(self) -> Request:
        """Dequeue the earliest deadline (no deadline last), FIFO on ties."""
        request = min(  # min keeps the first of equal keys
            self._waiting,
            key=lambda r: math.inf if r.deadline is None else r.deadline,
        )
        self._waiting.remove(request)
        return request
