"""Per-microservice performance accounting for the request simulator.

The demand-estimation model of the paper (Section III) consumes three
observable indicators per microservice and per auction round:

* the ratio of served to received requests (its "waiting time" factor),
* waiting and execution times of completed requests,
* throughput and utilization (its "request rate" factor).

:class:`MicroserviceStats` accumulates these during a round;
:class:`RoundSnapshot` is the immutable summary handed to the estimator when
the round closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError

__all__ = ["MicroserviceStats", "RoundSnapshot"]


@dataclass(frozen=True)
class RoundSnapshot:
    """Immutable per-round summary of one microservice's request handling.

    Attributes
    ----------
    microservice:
        Identifier of the microservice the snapshot describes.
    round_index:
        Zero-based auction round the measurements cover.
    received:
        Number of requests that arrived during the round (π in the paper).
    served:
        Number of requests completed during the round (θ in the paper).
    mean_waiting_time:
        Average time completed requests spent queued before service.
    mean_execution_time:
        Average service duration of completed requests.
    utilization:
        Fraction of the round during which at least one request was in
        service (the execution rate 𝕃 of Eq. 2); always in ``[0, 1]``.
    achieved_rate:
        Completed requests per unit time over the round (ς achieved).
    target_rate:
        The throughput the microservice would need to drain its arrivals
        (ϖ reference rate in the processing-time indicator).
    allocation:
        Resource units the microservice held during the round (aᵢᵗ).
    dropped:
        Requests abandoned because their start deadline expired while
        queued (0 unless the server enforces deadlines).
    """

    microservice: int
    round_index: int
    received: int
    served: int
    mean_waiting_time: float
    mean_execution_time: float
    utilization: float
    achieved_rate: float
    target_rate: float
    allocation: float
    dropped: int = 0

    @property
    def backlog(self) -> int:
        """Requests that arrived but did not complete within the round."""
        return max(0, self.received - self.served - self.dropped)

    @property
    def drop_rate(self) -> float:
        """Fraction of arrived requests dropped on deadline (0 when idle)."""
        if self.received == 0:
            return 0.0
        return self.dropped / self.received

    @property
    def completion_ratio(self) -> float:
        """θ/π — the served/received ratio used by the waiting-time factor.

        Defined as 1.0 when nothing arrived (an idle microservice is
        trivially "keeping up").
        """
        if self.received == 0:
            return 1.0
        return self.served / self.received


@dataclass
class MicroserviceStats:
    """Mutable accumulator for one microservice within one round.

    Busy time is *slot-weighted*: a server running 2 of its 4 slots for a
    second accrues 0.5 busy-seconds, so the resulting utilization is the
    average fraction of service capacity in use — the execution rate 𝕃 of
    the paper's Eq. 2 — rather than a binary any-slot-busy signal that
    saturates as soon as one request is in flight.
    """

    microservice: int
    allocation: float = 1.0
    received: int = 0
    served: int = 0
    dropped: int = 0
    total_waiting_time: float = 0.0
    total_execution_time: float = 0.0
    busy_time: float = 0.0
    _busy_since: float | None = field(default=None, repr=False)
    _busy_fraction: float = field(default=0.0, repr=False)

    def record_arrival(self) -> None:
        """Count an arriving request."""
        self.received += 1

    def record_drop(self) -> None:
        """Count a request abandoned because its deadline expired."""
        self.dropped += 1

    def record_completion(self, waiting_time: float, execution_time: float) -> None:
        """Count a completed request and its waiting/execution durations."""
        if waiting_time < 0 or execution_time < 0:
            raise SimulationError(
                "waiting/execution times must be non-negative, got "
                f"({waiting_time}, {execution_time})"
            )
        self.served += 1
        self.total_waiting_time += waiting_time
        self.total_execution_time += execution_time

    def set_busy_fraction(self, now: float, fraction: float) -> None:
        """Update the fraction of service slots in use as of ``now``.

        Accrues slot-weighted busy time for the interval since the last
        update, then records the new fraction.
        """
        if not 0.0 <= fraction <= 1.0 + 1e-9:
            raise SimulationError(
                f"busy fraction must be in [0, 1], got {fraction}"
            )
        if self._busy_since is not None and self._busy_fraction > 0:
            self.busy_time += self._busy_fraction * (now - self._busy_since)
        self._busy_since = now
        self._busy_fraction = min(1.0, fraction)

    def mark_busy(self, now: float) -> None:
        """Record that the server became fully busy at time ``now``."""
        self.set_busy_fraction(now, 1.0)

    def mark_idle(self, now: float) -> None:
        """Record that the server went idle at time ``now``."""
        self.set_busy_fraction(now, 0.0)

    def snapshot(
        self,
        round_index: int,
        round_start: float,
        round_end: float,
        arrival_rate_hint: float | None = None,
    ) -> RoundSnapshot:
        """Close the round and produce an immutable :class:`RoundSnapshot`.

        ``arrival_rate_hint`` overrides the target processing rate; when
        omitted the observed arrival rate over the round is used.
        """
        duration = round_end - round_start
        if duration <= 0:
            raise SimulationError(
                f"round must have positive duration, got [{round_start}, {round_end}]"
            )
        busy = self.busy_time
        if self._busy_since is not None and self._busy_fraction > 0:
            busy += self._busy_fraction * (round_end - self._busy_since)
        utilization = min(1.0, busy / duration)
        achieved_rate = self.served / duration
        target_rate = (
            arrival_rate_hint if arrival_rate_hint is not None else self.received / duration
        )
        return RoundSnapshot(
            microservice=self.microservice,
            round_index=round_index,
            received=self.received,
            served=self.served,
            mean_waiting_time=(
                self.total_waiting_time / self.served if self.served else 0.0
            ),
            mean_execution_time=(
                self.total_execution_time / self.served if self.served else 0.0
            ),
            utilization=utilization,
            achieved_rate=achieved_rate,
            target_rate=target_rate,
            allocation=self.allocation,
            dropped=self.dropped,
        )

    def reset(self, now: float) -> None:
        """Clear counters for the next round, preserving busy state."""
        still_busy = self._busy_fraction > 0
        self.received = 0
        self.served = 0
        self.dropped = 0
        self.total_waiting_time = 0.0
        self.total_execution_time = 0.0
        self.busy_time = 0.0
        self._busy_since = now if still_busy else None
