"""The recovery engine: retries, timeouts, and graceful degradation.

This module is the mechanics between a declarative
:class:`~repro.faults.models.FaultPlan` and the round loop.  Two entry
points, both mechanism-agnostic (MSOA and the single-round registry
adapters share them):

* :func:`apply_pre_round_faults` — perturb a round's *inputs* before the
  auction runs: merge carried-over demand, amplify it under demand
  surges, and drop bids lost to churn/dropout/timeouts.  Returns the
  original instance object untouched when nothing fired, which is part
  of the bit-identical guarantee for null plans.
* :func:`execute_with_resilience` — run the round's auction, draw winner
  defaults, and recover: retry re-auctions over the remaining bids (with
  per-attempt price-ceiling backoff), then graceful degradation — a
  partial-coverage outcome whose :class:`~repro.faults.report.
  RoundResilience` carries the explicit ``uncovered`` set — instead of
  raising, when the policy says ``degradation="partial"``.

The merged partial outcome is rebuilt through
:func:`~repro.core.mechanism.outcome_from_selection` against the round's
*full* demand, so :attr:`~repro.core.outcomes.AuctionOutcome.unmet_units`
reports the shortfall naturally and downstream consumers (figures,
serde, ledgers) need no fault-aware special cases.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.core.mechanism import outcome_from_selection
from repro.core.outcomes import AuctionOutcome, WinningBid
from repro.core.wsp import CoverageState, WSPInstance, clear_supply_clamped
from repro.errors import InfeasibleInstanceError
from repro.faults.injector import FaultInjector
from repro.faults.policies import ResiliencePolicy
from repro.faults.report import FaultEvent, RecoveryAction, RoundResilience
from repro.obs.runtime import STATE as _OBS

__all__ = ["apply_pre_round_faults", "execute_with_resilience"]

Runner = Callable[[WSPInstance], AuctionOutcome]


def apply_pre_round_faults(
    instance: WSPInstance,
    *,
    round_index: int,
    injector: FaultInjector,
    policy: ResiliencePolicy,
    carry_demand: Mapping[int, int] | None = None,
) -> tuple[WSPInstance, list[FaultEvent]]:
    """Perturb a round's inputs before the auction sees them.

    Applies, in order: demand carried over from the previous round's
    abandoned units (when the policy enables ``carry_uncovered``), demand
    surges, and supply-side bid faults (cloud churn, dropouts, late bids
    past the policy's ``bid_timeout``).  When nothing fires the original
    ``instance`` object is returned unchanged.
    """
    demand = dict(instance.demand)
    carried = False
    if carry_demand:
        for buyer, units in carry_demand.items():
            if units > 0:
                demand[buyer] = demand.get(buyer, 0) + units
                carried = True
    demand, events = injector.surge_demand(round_index, demand)
    bids, bid_events = injector.filter_bids(
        round_index, instance.bids, bid_timeout=policy.bid_timeout
    )
    events.extend(bid_events)
    _emit_fault_events(events)
    dropped = any(
        event.kind != "late-bid" or event.detail.get("timed_out")
        for event in bid_events
    )
    surged = any(event.kind == "demand-surge" for event in events)
    if not carried and not surged and not dropped:
        return instance, events
    return (
        WSPInstance(
            bids=tuple(bids),
            demand=demand,
            price_ceiling=instance.price_ceiling,
        ),
        events,
    )


def execute_with_resilience(
    instance: WSPInstance,
    runner: Runner,
    *,
    round_index: int,
    injector: FaultInjector,
    policy: ResiliencePolicy,
    pre_events: Sequence[FaultEvent] = (),
) -> tuple[AuctionOutcome, RoundResilience | None]:
    """Run one round's auction with default recovery and degradation.

    ``runner`` maps any (sub-)instance to an outcome — for MSOA a closure
    over :func:`~repro.core.ssam.run_ssam` at the round's scaled prices,
    for adapters the wrapped baseline.  The flow:

    1. run the primary auction; if it is infeasible and the policy says
       ``degradation="partial"``, clamp demand to what the bid pool can
       cover and serve that (the clamped-away units join ``uncovered``);
    2. draw winner defaults (attempt 0);
    3. while demand is uncovered and retries remain: re-auction the
       residual demand over the bids of sellers who have neither
       defaulted nor already delivered, under a backoff-relaxed price
       ceiling — retry winners can default again (drawn at attempt k);
    4. if demand is still uncovered, degrade to a partial-coverage
       outcome or raise :class:`~repro.errors.InfeasibleInstanceError`,
       per the policy.

    Returns the final outcome and its resilience report — ``None`` when
    the round saw no fault activity at all, which keeps fault-free
    rounds byte-identical in serialized form.
    """
    events = list(pre_events)
    clamped = False
    try:
        primary = runner(instance)
    except InfeasibleInstanceError:
        if policy.degradation != "partial":
            raise
        primary = clear_supply_clamped(instance, runner)
        clamped = True
    defaulted, default_events = injector.winner_defaults(
        round_index, primary.winners, attempt=0
    )
    events.extend(default_events)
    _emit_fault_events(default_events)
    if not defaulted and not clamped:
        if not events:
            return primary, None
        return primary, RoundResilience(events=tuple(events))

    delivered: list[WinningBid] = [
        w for w in primary.winners if w.seller not in defaulted
    ]
    excluded = set(defaulted) | {w.seller for w in delivered}
    residual = _residual_demand(instance.demand, delivered)
    at_risk = sum(residual.values())
    recoveries: list[RecoveryAction] = []
    attempt = 0
    while residual and attempt < policy.max_retries:
        attempt += 1
        target = dict(residual)
        ceiling = policy.ceiling_at(attempt, instance.price_ceiling)
        retry_instance = WSPInstance(
            bids=tuple(
                bid for bid in instance.bids if bid.seller not in excluded
            ),
            demand=target,
            price_ceiling=ceiling,
        )
        try:
            retry = runner(retry_instance)
        except InfeasibleInstanceError:
            retry = None
        if retry is not None:
            retry_defaulted, retry_events = injector.winner_defaults(
                round_index, retry.winners, attempt=attempt
            )
            events.extend(retry_events)
            _emit_fault_events(retry_events)
            excluded |= retry_defaulted
            survivors = [
                w for w in retry.winners if w.seller not in retry_defaulted
            ]
            delivered.extend(survivors)
            excluded |= {w.seller for w in survivors}
            residual = _residual_demand(instance.demand, delivered)
        recovered = sum(target.values()) - sum(residual.values())
        action = RecoveryAction(
            round_index=round_index,
            attempt=attempt,
            residual_demand=target,
            recovered_units=recovered,
            ceiling=ceiling,
        )
        recoveries.append(action)
        _emit_recovery(action)

    if residual and policy.degradation == "raise":
        raise InfeasibleInstanceError(
            f"round {round_index}: {sum(residual.values())} demand units "
            f"remain uncovered after {len(recoveries)} recovery attempts "
            f"(defaulted sellers: {sorted(defaulted)})"
        )

    abandoned = sum(residual.values())
    report = RoundResilience(
        events=tuple(events),
        recoveries=tuple(recoveries),
        uncovered=dict(residual),
        recovered_units=at_risk - abandoned,
        abandoned_units=abandoned,
    )
    outcome = outcome_from_selection(
        instance,
        [w.bid for w in delivered],
        mechanism=primary.mechanism,
        payment_rule=primary.payment_rule,
        payments={w.key: w.payment for w in delivered},
        original_prices={w.key: w.original_price for w in delivered},
        ratio_bound=primary.ratio_bound,
        require_cover=False,
    )
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("faults.recovered_units").inc(report.recovered_units)
        metrics.counter("faults.abandoned_units").inc(abandoned)
        if report.degraded:
            metrics.counter("faults.degraded_rounds").inc()
        _OBS.tracer.event(
            "degradation-report",
            round_index=round_index,
            recovered_units=report.recovered_units,
            abandoned_units=abandoned,
            uncovered={str(b): u for b, u in sorted(residual.items())},
        )
    return outcome, report


def _residual_demand(
    demand: Mapping[int, int], delivered: Sequence[WinningBid]
) -> dict[int, int]:
    """Demand units the delivered winners leave uncovered, per buyer."""
    coverage = CoverageState(demand=dict(demand))
    for winner in delivered:
        coverage.apply(winner.bid)
    residual = {}
    for buyer, units in demand.items():
        short = units - coverage.granted.get(buyer, 0)
        if short > 0:
            residual[buyer] = short
    return residual


def _emit_fault_events(events: Sequence[FaultEvent]) -> None:
    if not events or not _OBS.enabled:
        return
    metrics = _OBS.metrics
    for event in events:
        metrics.counter(f"faults.injected.{event.kind}").inc()
        _OBS.tracer.event("fault-injected", **event.to_dict())


def _emit_recovery(action: RecoveryAction) -> None:
    if not _OBS.enabled:
        return
    _OBS.metrics.counter("faults.recovery_attempts").inc()
    _OBS.tracer.event(
        "recovery-attempt",
        round_index=action.round_index,
        attempt=action.attempt,
        residual_demand={
            str(b): u for b, u in sorted(action.residual_demand.items())
        },
        recovered_units=action.recovered_units,
        ceiling=action.ceiling,
    )
