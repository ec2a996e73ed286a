"""SSAM — the Single-Stage Auction Mechanism (Algorithm 1).

The mechanism is a greedy primal–dual approximation for the NP-hard
winner-selection problem: while some buyer's demand is unmet, it accepts
the bid with the smallest *average price* ``∇ᵢⱼ/Uᵢⱼ(𝔼ᵗ)`` (price per
marginal demand unit), removes the winning seller's other bids, and tags
every unit covered with that average price for the dual-fitting
certificate.  Winners are paid a *critical value* so that truthful bidding
is a dominant strategy (Myerson's characterization: the allocation rule is
monotone — Lemma 2 — and each payment equals the supremum price at which
the bid still wins — Lemma 3).

Two payment rules are provided:

* ``PaymentRule.CRITICAL_RERUN`` (default) — the exact critical value:
  the greedy is replayed with the winner's bid present but priced at +∞
  (so the feasibility guard still sees it as supply), and the threshold is
  the largest price at which the bid would have displaced a replay
  selection.  This is the exactly-truthful payment for greedy reverse
  auctions and is what Lemma 3's proof needs.
* ``PaymentRule.ITERATION_RUNNER_UP`` — the paper-literal rule of
  Algorithm 1 lines 6–7: the runner-up ratio *at the iteration of winning*
  scaled by the winner's utility.  It coincides with the critical value on
  most instances (a benchmark quantifies the gap) but is only a lower bound
  on it in general.

When a winner faces no competition (no other bid could complete coverage),
its threshold is capped by the instance's public per-unit
``price_ceiling`` — without such a cap a monopolist's critical value is
unbounded.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bids import Bid
from repro.core.duals import DualSolution
from repro.core.outcomes import AuctionOutcome, WinningBid
from repro.core.ratios import harmonic, ssam_ratio_bound
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (columnar → ssam)
    from repro.core.columnar import ColumnarInstance

__all__ = [
    "ENGINES",
    "PaymentRule",
    "run_ssam",
    "greedy_selection",
    "GreedyStep",
    "resolve_engine",
    "warn_ignored",
]

ENGINES = ("columnar", "reference")
"""The two engines behind every ``engine=`` option: the numpy-vectorized
production engine (:mod:`repro.core.columnar`) and the naive
rescan-everything loops of this module, kept as the correctness oracle.
Both produce bit-identical outcomes (a property test enforces this)."""


def resolve_engine(engine: str) -> str:
    """Validate an ``engine=`` value (one of :data:`ENGINES`) and return it."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {', '.join(map(repr, ENGINES))}, "
            f"got {engine!r}"
        )
    return engine


# Retired option → why it is ignored.  Each stays only while the
# repository benchmark (perfbench) still passes it.
_RETIRED_OPTIONS = {
    "parallelism": "payments always run serially",
    "shard_workers": "shards always clear serially",
}


def warn_ignored(option: str, value) -> None:
    """Warn that a retired option was passed; it has no effect.

    .. deprecated:: 1.3
        ``parallelism=`` (on :func:`~repro.core.msoa.run_msoa`) and
        ``shard_workers=`` (on
        :class:`~repro.shard.msoa.ShardedOnlineAuction`) are ignored:
        payments and shards always run serially.  The warning names the
        caller of those two entry points.
    """
    if value is None:
        return
    warnings.warn(
        f"{option}= is deprecated and ignored; {_RETIRED_OPTIONS[option]}",
        DeprecationWarning,
        stacklevel=3,
    )


class PaymentRule(enum.Enum):
    """How winner remunerations are computed (see module docstring)."""

    CRITICAL_RERUN = "critical_rerun"
    ITERATION_RUNNER_UP = "iteration_runner_up"


@dataclass(frozen=True)
class GreedyStep:
    """One iteration of the greedy selection loop.

    ``coverage_before`` maps buyers to units granted *before* this step,
    which is what payment re-runs need to evaluate a foreign bid's
    marginal utility at this point in time.  The reference engine
    stores a dict; the columnar engine a read-only mapping over the
    recorded state, equal to that dict.
    """

    iteration: int
    bid: Bid
    utility: int
    ratio: float
    runner_up_ratio: float | None
    coverage_before: Mapping[int, int]


def _selection_key(ratio: float, bid: Bid) -> tuple[float, float, int, int]:
    """Deterministic greedy ordering: ratio, then price, then identity."""
    return (ratio, bid.price, bid.seller, bid.index)


def _selection_strands(
    winner: Bid, active: list[Bid], coverage: CoverageState
) -> bool:
    """Would accepting ``winner`` make some buyer's residual uncoverable?

    A buyer's remaining units can only come from *distinct, unused*
    sellers, so once ``winner``'s seller is consumed, every buyer must
    still have at least its residual demand in other sellers with some
    covering bid.  This necessary-condition lookahead closes the gap the
    paper's Theorem-2 termination argument glosses over: without it, the
    greedy can pick a seller's alternative bid and strand a buyer that
    needed that seller's other offer.
    """
    residual: dict[int, int] = {}
    for buyer, units in coverage.demand.items():
        need = units - coverage.granted.get(buyer, 0)
        if buyer in winner.covered and need > 0:
            need -= 1
        if need > 0:
            residual[buyer] = need
    if not residual:
        return False
    suppliers: dict[int, set[int]] = {buyer: set() for buyer in residual}
    for bid in active:
        if bid.seller == winner.seller:
            continue
        for buyer in bid.covered:
            if buyer in suppliers:
                suppliers[buyer].add(bid.seller)
    return any(
        len(suppliers[buyer]) < need for buyer, need in residual.items()
    )


def _residual_feasible(
    candidate: Bid, active: list[Bid], coverage: CoverageState
) -> bool:
    """Exact residual-feasibility check used by the escalation guard.

    Hypothetically accepts ``candidate`` (consuming its seller) and asks
    the exact solver whether the remaining active bids can still cover the
    residual demand.  This is itself an NP-hard question — which is
    exactly why it is only consulted on the rare instances the cheap guard
    cannot keep on track.
    """
    from repro.core.wsp import WSPInstance as _WSPInstance
    from repro.errors import InfeasibleInstanceError as _Infeasible

    residual: dict[int, int] = {}
    for buyer, units in coverage.demand.items():
        need = units - coverage.granted.get(buyer, 0)
        if buyer in candidate.covered and need > 0:
            need -= 1
        residual[buyer] = max(0, need)
    if all(units == 0 for units in residual.values()):
        return True
    remaining = tuple(
        Bid(seller=b.seller, index=b.index, covered=b.covered, price=0.0)
        for b in active
        if b.seller != candidate.seller
    )
    from repro.solvers.milp import solve_wsp_optimal as _solve

    try:
        _solve(_WSPInstance(bids=remaining, demand=residual, price_ceiling=None))
    except _Infeasible:
        return False
    return True


def _guarded_choice(
    candidates: list[tuple[tuple[float, float, int, int], Bid, int]],
    active: list[Bid],
    coverage: CoverageState,
    exact_guard: bool,
) -> int:
    """Position of the first sorted candidate the guard accepts, or 0
    (the guard waived) when none is safe."""
    for pos, (_, bid, _) in enumerate(candidates):
        if _selection_strands(bid, active, coverage):
            continue
        if exact_guard and not _residual_feasible(bid, active, coverage):
            continue
        return pos
    return 0


@profiled("ssam.selection")
def greedy_selection(
    bids: tuple[Bid, ...],
    demand: dict[int, int],
    *,
    exact_guard: bool = False,
) -> list[GreedyStep]:
    """Run the greedy winner-selection loop and return its full trace.

    This is the shared engine behind winner selection *and* both payment
    rules (the critical-value computation replays it on a reduced market).
    Each step records the chosen bid, its marginal utility, its average
    price, and the best runner-up ratio among *other* bids at that moment.

    Candidate bids whose acceptance would provably strand a buyer (see
    :func:`_selection_strands`) are passed over in favour of the
    next-best safe bid; if no candidate is safe the guard is waived for
    the iteration (matching the paper-literal behaviour).  ``exact_guard``
    adds the exact residual-feasibility check (:func:`_residual_feasible`)
    to every probe.  The guard is price-independent, so it preserves the
    monotonicity that truthfulness rests on.

    Raises :class:`~repro.errors.InfeasibleInstanceError` when demand
    remains but no active bid contributes.
    """
    coverage = CoverageState(demand=demand)
    active: list[Bid] = list(bids)
    steps: list[GreedyStep] = []
    iteration = 0
    while not coverage.satisfied:
        candidates: list[tuple[tuple[float, float, int, int], Bid, int]] = []
        for bid in active:
            utility = coverage.utility_of(bid)
            if utility <= 0:
                continue
            ratio = bid.price / utility
            candidates.append((_selection_key(ratio, bid), bid, utility))
        if _OBS.enabled:
            _OBS.metrics.counter("engine.candidates_scanned").inc(
                len(candidates)
            )
        if not candidates:
            raise InfeasibleInstanceError(
                f"{coverage.unmet} demand units cannot be covered by the "
                "remaining bids"
            )
        candidates.sort(key=lambda item: item[0])
        chosen_pos = _guarded_choice(candidates, active, coverage, exact_guard)
        key, winner, utility = candidates[chosen_pos]
        # The runner-up is the next candidate at or above the winner's
        # ratio: candidates the guard skipped sit below it and would give
        # an IR-violating threshold.
        runner_key = (
            candidates[chosen_pos + 1][0]
            if chosen_pos + 1 < len(candidates)
            else None
        )
        steps.append(
            GreedyStep(
                iteration=iteration,
                bid=winner,
                utility=utility,
                ratio=key[0],
                runner_up_ratio=runner_key[0] if runner_key is not None else None,
                coverage_before=dict(coverage.granted),
            )
        )
        coverage.apply(winner)
        active = [bid for bid in active if bid.seller != winner.seller]
        iteration += 1
    return steps


def _critical_payment(
    instance: WSPInstance,
    winner: Bid,
    *,
    exact_guard: bool = False,
) -> float:
    """The exact critical value of ``winner`` (PaymentRule.CRITICAL_RERUN).

    Replays the greedy with the winner *present but priced at +∞*.  The
    winner's presence matters (the feasibility guard counts it as future
    supply when judging other bids), but its price must not, so pricing it
    out of contention — rather than removing it — keeps the replay on
    exactly the trajectory the real run follows whenever the winner loses.

    At each iteration ``k`` with coverage ``C_k`` where the selected bid
    has average price ``ρ_k``, the winner would have been chosen instead
    had it asked below ``Uᵢⱼ(C_k)·ρ_k`` (and been guard-safe); the critical
    value is the maximum such threshold.  Two terminal cases cap the
    threshold with the public per-unit price ceiling: the replay selects
    the ∞-priced winner itself, or gets stuck — either way the winner is
    pivotal and wins at any admissible price.
    """
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    infinite = winner.with_price(math.inf)
    active: list[Bid] = [
        infinite if b.key == winner.key else b for b in instance.bids
    ]
    coverage = CoverageState(demand=demand)
    ceiling = instance.effective_ceiling
    threshold = 0.0
    while not coverage.satisfied:
        candidates: list[tuple[tuple[float, float, int, int], Bid, int]] = []
        for candidate in active:
            utility = coverage.utility_of(candidate)
            if utility <= 0:
                continue
            ratio = candidate.price / utility
            candidates.append(
                (_selection_key(ratio, candidate), candidate, utility)
            )
        winner_utility = coverage.utility_of(infinite)
        if not candidates:
            # Replay stuck with demand left over: if the winner could
            # still contribute it is pivotal and ceiling-capped.
            if winner_utility > 0:
                threshold = max(threshold, winner_utility * ceiling)
            break
        candidates.sort(key=lambda item: item[0])
        chosen_pos = _guarded_choice(candidates, active, coverage, exact_guard)
        key, chosen, _ = candidates[chosen_pos]
        if chosen.key == winner.key:
            # Only the winner serves the remaining demand: pivotal.
            if winner_utility > 0:
                threshold = max(threshold, winner_utility * ceiling)
            break
        winner_safe = not _selection_strands(infinite, active, coverage)
        if winner_safe and exact_guard:
            winner_safe = _residual_feasible(infinite, active, coverage)
        if winner_utility > 0 and winner_safe:
            threshold = max(threshold, winner_utility * key[0])
        coverage.apply(chosen)
        if chosen.seller == winner.seller:
            # A sibling bid of the winner's seller won: the winner is out
            # of the market from here on.
            break
        active = [b for b in active if b.seller != chosen.seller]
    return threshold


def _runner_up_payment(
    instance: WSPInstance, step: GreedyStep
) -> float:
    """Paper-literal payment (Algorithm 1 lines 6–7).

    ``pᵢ' = Uᵢ'ⱼ'(𝔼ᵗ) · ∇ᵢ°ⱼ°/Uᵢ°ⱼ°(𝔼ᵗ)`` where ``(i°, j°)`` is the best
    other bid at the winning iteration; the public per-unit ceiling is
    used when no runner-up exists.
    """
    runner_ratio = (
        step.runner_up_ratio
        if step.runner_up_ratio is not None
        else instance.effective_ceiling
    )
    return step.utility * runner_ratio


def _ratio_bound(
    instance: WSPInstance, layout: "ColumnarInstance | None" = None
) -> float:
    """Theorem 3's ``W·Ξ`` for ``instance``, reading Ξ from ``layout``'s
    price column (:meth:`~repro.core.columnar.ColumnarInstance.
    price_spread`, no walk over bids) when a layout is given."""
    if layout is None:
        return ssam_ratio_bound(instance.total_demand, instance.bids)
    return harmonic(max(1, instance.total_demand)) * layout.price_spread()


@dataclass(frozen=True)
class _Selection:
    """One market after the select step: what paying and assembling it
    need.  ``layout`` is its columnar instance (``None`` on the
    reference engine) and ``steps`` the selection trace — on the
    columnar engine a :class:`~repro.core.columnar.Trajectory`, which
    carries the states the payment kernel reads."""

    instance: WSPInstance
    demand: dict[int, int]
    steps: list[GreedyStep]
    exact_guard: bool
    layout: "ColumnarInstance | None"


def _select(
    instance: WSPInstance,
    demand: dict[int, int],
    *,
    layout: "ColumnarInstance | None",
) -> _Selection:
    """The select step: greedy selection in a ``greedy-selection`` span,
    escalated to the exact residual-feasibility guard when the cheap
    lookahead cannot complete it (the exact guard completes whenever the
    instance is feasible at all)."""
    select = greedy_selection
    if layout is not None:
        from repro.core.columnar import columnar_greedy_selection

        select = functools.partial(columnar_greedy_selection, columnar=layout)
    tracer = _OBS.tracer
    with tracer.span("greedy-selection") as selection_span:
        try:
            steps = select(instance.bids, demand)
            exact_guard = False
        except InfeasibleInstanceError:
            steps = select(instance.bids, demand, exact_guard=True)
            exact_guard = True
        tracer.annotate(
            selection_span, iterations=len(steps), exact_guard=exact_guard
        )
    return _Selection(instance, demand, steps, exact_guard, layout)


@profiled("ssam.payments")
def _critical_payments(
    selections: list[_Selection], *, engine: str
) -> list[list[float]]:
    """Critical values for every winner of every selection, per selection.

    On the columnar engine one batched kernel call prices every
    selection's winners together (a sharded round's shards share one
    lockstep batch); the reference engine replays the greedy once per
    winner (:func:`_critical_payment`).
    """
    if engine != "columnar":
        return [
            [
                _critical_payment(s.instance, step.bid, exact_guard=s.exact_guard)
                for step in s.steps
            ]
            for s in selections
        ]
    from repro.core.columnar import columnar_critical_payments

    flat = columnar_critical_payments(
        [s.instance for s in selections],
        [step.bid for s in selections for step in s.steps],
        trajectory=[s.steps for s in selections],
    )
    payments, start = [], 0
    for s in selections:
        payments.append(flat[start : start + len(s.steps)])
        start += len(s.steps)
    return payments


def _pay(
    selections: list[_Selection],
    payment_rule: PaymentRule,
    *,
    engine: str,
    **span_fields,
) -> list[list[float]]:
    """The pay step, in one ``payment-computation`` span for all
    ``selections``: each winner's payment, per selection."""
    with _OBS.tracer.span(
        "payment-computation", rule=payment_rule.value, **span_fields
    ):
        if payment_rule is PaymentRule.CRITICAL_RERUN:
            return _critical_payments(selections, engine=engine)
        return [
            [_runner_up_payment(s.instance, step) for step in s.steps]
            for s in selections
        ]


def _auction_span(
    instance: WSPInstance,
    demand: dict[int, int],
    *,
    engine: str,
    payment_rule: PaymentRule,
):
    """Count one SSAM run and open its ``auction`` span."""
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("ssam.runs").inc()
        metrics.counter("ssam.bids_considered").inc(len(instance.bids))
    return _OBS.tracer.span(
        "auction",
        mechanism="ssam",
        engine=engine,
        payment_rule=payment_rule.value,
        bids=len(instance.bids),
        total_demand=instance.total_demand,
        # JSON keys are strings; summarize() converts them back to ints.
        demand={str(b): u for b, u in demand.items()},
    )


def _assemble(
    selection: _Selection,
    payments: list[float],
    *,
    payment_rule: PaymentRule,
    original_prices: Mapping[tuple[int, int], float] | None,
    auction_span,
) -> AuctionOutcome:
    """The assemble step: winners, dual certificate, ``winner`` events
    and the verified outcome, annotated on ``auction_span``."""
    instance, demand, steps = selection.instance, selection.demand, selection.steps
    tracer = _OBS.tracer
    duals = DualSolution(instance=instance)
    winners: list[WinningBid] = []
    for step, payment in zip(steps, payments):
        # Tag every unit this bid newly covers with its average price
        # (the dual-fitting bookkeeping behind Lemma 1 / Theorem 3).
        dual_updates = 0
        for buyer in step.bid.covered:
            if step.coverage_before.get(buyer, 0) < demand.get(buyer, 0):
                duals.record_unit(buyer, step.ratio)
                dual_updates += 1
        key = step.bid.key
        original = (
            original_prices[key]
            if original_prices is not None
            else step.bid.price
        )
        winners.append(
            WinningBid(
                bid=step.bid,
                payment=payment,
                iteration=step.iteration,
                marginal_utility=step.utility,
                average_price=step.ratio,
                original_price=original,
            )
        )
        if _OBS.enabled:
            _OBS.metrics.counter("ssam.dual_updates").inc(dual_updates)
            tracer.event(
                "winner",
                iteration=step.iteration,
                seller=step.bid.seller,
                index=step.bid.index,
                price=step.bid.price,
                original_price=float(original),
                payment=float(payment),
                utility=step.utility,
                average_price=step.ratio,
                covered=sorted(step.bid.covered),
            )
    outcome = AuctionOutcome(
        instance=instance,
        winners=tuple(winners),
        duals=duals,
        ratio_bound=_ratio_bound(instance, selection.layout),
        payment_rule=payment_rule.value,
        iterations=len(steps),
        mechanism="ssam",
    )
    tracer.annotate(
        auction_span,
        social_cost=outcome.social_cost,
        total_payment=outcome.total_payment,
        iterations=len(steps),
        winners=len(winners),
    )
    if _OBS.enabled:
        metrics = _OBS.metrics
        metrics.counter("ssam.winners").inc(len(winners))
        metrics.counter("ssam.iterations").inc(len(steps))
        for winning in winners:
            if winning.bid.price > 0 and math.isfinite(winning.payment):
                metrics.histogram("ssam.payment_price_ratio").observe(
                    winning.payment / winning.bid.price
                )
    outcome.verify()
    return outcome


def run_ssam(
    instance: WSPInstance,
    *,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    original_prices: Mapping[tuple[int, int], float] | None = None,
    columnar: "ColumnarInstance | None" = None,
) -> AuctionOutcome:
    """Execute the single-stage auction on ``instance``.

    The stranding guard always steers the greedy away from choices that
    provably dead-end a buyer.

    Parameters
    ----------
    instance:
        The round's winner-selection problem.  Must be feasible.
    payment_rule:
        Which critical-value realization to pay winners with.
    engine:
        One of :data:`ENGINES`: ``"columnar"`` (default) runs the
        numpy-vectorized :mod:`repro.core.columnar` kernels (batched
        critical payments, cheap round-to-round state carry);
        ``"reference"`` runs the naive rescan-everything loop kept as
        the correctness oracle.  Both produce identical outcomes (a
        property test enforces this).
    columnar:
        A prebuilt :class:`~repro.core.columnar.ColumnarInstance` for
        this instance's bids and positive demand (``engine="columnar"``
        only) — the MSOA incremental path passes its carried, re-priced
        layout here to skip the structural rebuild.
    original_prices:
        When SSAM runs inside the online framework, bid prices have been
        *scaled*; this maps bid keys back to the announced prices so the
        outcome can report the true social cost.  Defaults to the bids'
        own prices.

    Returns
    -------
    AuctionOutcome
        Winners with payments, dual-fitting certificate, and the
        ``W·Ξ`` ratio bound of Theorem 3.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.workload import MarketConfig, generate_round
    >>> instance = generate_round(MarketConfig(), np.random.default_rng(7))
    >>> outcome = run_ssam(instance)
    >>> outcome.satisfied and outcome.total_payment >= outcome.social_cost
    True
    """
    engine = resolve_engine(engine)
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    layout = None
    if engine == "columnar" and demand:
        if columnar is not None:
            if len(columnar.bids) != len(instance.bids):
                raise ConfigurationError(
                    "columnar layout does not match the instance: "
                    f"{len(columnar.bids)} rows vs {len(instance.bids)} bids"
                )
            layout = columnar
        else:
            from repro.core.columnar import ColumnarInstance

            layout = ColumnarInstance.build(instance.bids, demand)
    with _auction_span(
        instance, demand, engine=engine, payment_rule=payment_rule
    ) as auction_span:
        if not demand:
            _OBS.tracer.annotate(
                auction_span,
                social_cost=0.0,
                total_payment=0.0,
                iterations=0,
                winners=0,
            )
            return AuctionOutcome(
                instance=instance,
                winners=(),
                duals=DualSolution(instance=instance),
                ratio_bound=1.0,
                payment_rule=payment_rule.value,
                iterations=0,
                mechanism="ssam",
            )
        selection = _select(instance, demand, layout=layout)
        (payments,) = _pay([selection], payment_rule, engine=engine)
        return _assemble(
            selection,
            payments,
            payment_rule=payment_rule,
            original_prices=original_prices,
            auction_span=auction_span,
        )
