"""The uniform mechanism interface every auction in this repo speaks.

The paper's evaluation is comparative — SSAM/MSOA against an offline
optimum, greedy variants, and pricing baselines — so every mechanism must
produce the *same* outcome type for the figures, the platform loop, and
the serde layer to treat them interchangeably.  This module defines that
contract:

* :class:`Mechanism` — a single-round mechanism is any callable mapping a
  :class:`~repro.core.wsp.WSPInstance` to an
  :class:`~repro.core.outcomes.AuctionOutcome`;
* :class:`OnlineMechanism` — a stateful per-round mechanism shaped like
  :class:`~repro.core.msoa.MultiStageOnlineAuction` (``process_round`` /
  ``finalize``);
* :func:`outcome_from_selection` — the bridge that lets baselines which
  only *select* bids (VCG, pay-as-bid, posted price, random, greedy
  variants) emit full outcomes with dual bookkeeping and per-winner
  context, instead of bespoke result dataclasses;
* :class:`SingleRoundOnlineAdapter` — wraps any single-round mechanism
  with MSOA's per-seller capacity accounting so baselines can drive the
  full multi-round platform loop (Figure 2) end-to-end.

The string-keyed registry over these protocols lives in
:mod:`repro.core.registry`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.core.bids import Bid
from repro.core.duals import DualSolution
from repro.core.outcomes import (
    AuctionOutcome,
    OnlineOutcome,
    RoundResult,
    WinningBid,
)
from repro.core.ratios import capacity_margin
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → core)
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.faults.policies import ResiliencePolicy

__all__ = [
    "Mechanism",
    "OnlineMechanism",
    "outcome_from_selection",
    "resolve_fault_args",
    "SingleRoundOnlineAdapter",
]


def resolve_fault_args(faults, resilience):
    """Resolve ``faults=``/``resilience=`` kwargs into (injector, policy).

    Shared by every fault-aware entry point (MSOA, the adapter, the
    platform).  Imports :mod:`repro.faults` lazily so :mod:`repro.core`
    never depends on it at import time (faults imports core, not vice
    versa).  A null plan resolves to *no* injector: the round loop then
    takes the exact unfaulted code path, which is what makes the
    all-zero-plan bit-identity guarantee true by construction.
    """
    if faults is None:
        if resilience is not None:
            raise ConfigurationError(
                "resilience= requires faults= (a policy alone has nothing "
                "to recover from)"
            )
        return None, None
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.faults.policies import DEFAULT_POLICY, ResiliencePolicy

    if isinstance(faults, FaultPlan):
        injector = None if faults.is_null else FaultInjector(faults)
    elif isinstance(faults, FaultInjector):
        injector = None if faults.is_null else faults
    else:
        raise ConfigurationError(
            f"faults must be a FaultPlan or FaultInjector, got "
            f"{type(faults).__name__}"
        )
    if resilience is None:
        policy = DEFAULT_POLICY
    elif isinstance(resilience, ResiliencePolicy):
        policy = resilience
    else:
        raise ConfigurationError(
            f"resilience must be a ResiliencePolicy, got "
            f"{type(resilience).__name__}"
        )
    return injector, (policy if injector is not None else None)


@runtime_checkable
class Mechanism(Protocol):
    """A single-round mechanism: ``WSPInstance → AuctionOutcome``.

    Implementations may accept mechanism-specific keyword options (e.g.
    ``guard`` for SSAM, ``unit_price`` for posted pricing); the
    registry records which options each entry understands so dispatchers
    can filter what they forward.
    """

    def __call__(
        self, instance: WSPInstance, **options: Any
    ) -> AuctionOutcome: ...


@runtime_checkable
class OnlineMechanism(Protocol):
    """A stateful per-round mechanism (MSOA-shaped).

    ``process_round`` consumes one round's instance as it arrives —
    decisions may depend only on past rounds — and ``finalize`` packages
    the horizon into an :class:`~repro.core.outcomes.OnlineOutcome`.
    """

    def process_round(self, instance: WSPInstance) -> RoundResult: ...

    def finalize(self) -> OnlineOutcome: ...


def outcome_from_selection(
    instance: WSPInstance,
    chosen: Sequence[Bid],
    *,
    mechanism: str,
    payment_rule: str,
    payments: Mapping[tuple[int, int], float] | None = None,
    original_prices: Mapping[tuple[int, int], float] | None = None,
    ratio_bound: float = float("nan"),
    require_cover: bool = True,
) -> AuctionOutcome:
    """Build a full :class:`AuctionOutcome` from a bare bid selection.

    Baseline mechanisms decide *which* bids win (and possibly what to pay
    them) without running the primal–dual greedy; this helper replays the
    selection through :class:`~repro.core.wsp.CoverageState` in acceptance
    order to reconstruct the per-winner context SSAM records natively
    (marginal utilities, average prices, dual unit tags), so downstream
    consumers — reporting, serde, audits — see one uniform shape.

    Parameters
    ----------
    chosen:
        Winning bids in acceptance order (at most one per seller).
    payments:
        Per-bid-key payments; defaults to pay-as-bid (each winner is paid
        its announced price).
    original_prices:
        Per-bid-key unscaled prices for the social-cost accounting;
        defaults to the bids' announced prices.  Posted pricing maps these
        to true costs, matching its market-efficiency semantics.
    ratio_bound:
        The mechanism's approximation guarantee (1.0 for exact VCG,
        ``nan`` for heuristics with no bound).
    require_cover:
        When true (default), verify the winner set is primal feasible.
        Incomplete mechanisms (posted price) pass ``False`` and report
        the shortfall through :attr:`AuctionOutcome.unmet_units`.

    Bids contributing no marginal coverage at their acceptance point are
    dropped from the winner list — a complete selection never contains
    them, and keeping them would break the per-winner invariants.
    """
    coverage = CoverageState(demand=dict(instance.demand))
    duals = DualSolution(instance=instance)
    winners: list[WinningBid] = []
    for iteration, bid in enumerate(chosen):
        utility = coverage.utility_of(bid)
        if utility <= 0:
            coverage.apply(bid)
            continue
        average_price = bid.price / utility
        for buyer in bid.covered:
            if coverage.granted.get(buyer, 0) < coverage.demand.get(buyer, 0):
                duals.record_unit(buyer, average_price)
        coverage.apply(bid)
        key = bid.key
        payment = bid.price if payments is None else payments.get(key, bid.price)
        original = (
            bid.price
            if original_prices is None
            else original_prices.get(key, bid.price)
        )
        winners.append(
            WinningBid(
                bid=bid,
                payment=payment,
                iteration=iteration,
                marginal_utility=utility,
                average_price=average_price,
                original_price=original,
            )
        )
    outcome = AuctionOutcome(
        instance=instance,
        winners=tuple(winners),
        duals=duals,
        ratio_bound=ratio_bound,
        payment_rule=payment_rule,
        iterations=len(winners),
        mechanism=mechanism,
    )
    if require_cover:
        outcome.verify()
    return outcome


def _empty_outcome(
    instance: WSPInstance, *, mechanism: str, payment_rule: str
) -> AuctionOutcome:
    """An empty-winner outcome for a skipped (infeasible) round."""
    return AuctionOutcome(
        instance=instance,
        winners=(),
        duals=DualSolution(instance=instance),
        ratio_bound=float("nan"),
        payment_rule=payment_rule,
        iterations=0,
        mechanism=mechanism,
    )


class SingleRoundOnlineAdapter:
    """Drive any single-round mechanism through the multi-round loop.

    Implements :class:`OnlineMechanism` around a :class:`Mechanism`:
    MSOA's line-5 capacity screen (bids that would overflow a seller's
    remaining long-run capacity ``Θᵢ`` are excluded) and line-12 χ
    accounting are kept, but there are no scarcity prices — each round
    runs on announced prices (``ψ ≡ 0``).  This is exactly the "what if a
    baseline ran the platform" counterfactual the comparative evaluation
    needs: same capacity discipline, different selection/payment rule.

    The finalized outcome reports ``alpha`` and ``competitive_bound`` as
    ``nan`` — baselines carry no online guarantee — while ``beta`` is
    still the observed capacity margin for comparability with MSOA runs.
    """

    def __init__(
        self,
        runner: Callable[..., AuctionOutcome],
        capacities: Mapping[int, int],
        *,
        name: str,
        payment_rule: str = "mechanism-default",
        on_infeasible: str = "raise",
        options: Mapping[str, Any] | None = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        resilience: "ResiliencePolicy | None" = None,
    ) -> None:
        for seller, capacity in capacities.items():
            if capacity <= 0:
                raise ConfigurationError(
                    f"seller {seller} capacity must be positive, got {capacity}"
                )
        if on_infeasible not in ("raise", "skip"):
            raise ConfigurationError(
                f"on_infeasible must be 'raise' or 'skip', got {on_infeasible!r}"
            )
        self._runner = runner
        self._capacities = dict(capacities)
        self._name = name
        self._payment_rule = payment_rule
        self._on_infeasible = on_infeasible
        self._options = dict(options or {})
        self._injector, self._policy = resolve_fault_args(faults, resilience)
        self._carry: dict[int, int] = {}
        self._chi: dict[int, int] = {seller: 0 for seller in capacities}
        self._rounds: list[RoundResult] = []
        self._beta_observed = math.inf

    @property
    def capacity_used(self) -> dict[int, int]:
        """Cumulative coverage units committed per seller ``χᵢ`` (copy)."""
        return dict(self._chi)

    def remaining_capacity(self, seller: int) -> int | None:
        """Units the seller may still commit; ``None`` if unconstrained."""
        capacity = self._capacities.get(seller)
        if capacity is None:
            return None
        return capacity - self._chi.get(seller, 0)

    def _admissible(self, bid: Bid) -> bool:
        remaining = self.remaining_capacity(bid.seller)
        return remaining is None or bid.size <= remaining

    def process_round(self, instance: WSPInstance) -> RoundResult:
        """Run one round through the wrapped mechanism, updating χ."""
        round_index = len(self._rounds)
        pre_events: list = []
        if self._injector is not None:
            from repro.faults.resilience import apply_pre_round_faults

            instance, pre_events = apply_pre_round_faults(
                instance,
                round_index=round_index,
                injector=self._injector,
                policy=self._policy,
                carry_demand=(
                    self._carry if self._policy.carry_uncovered else None
                ),
            )
            self._carry = {}
        admissible = tuple(
            bid for bid in instance.bids if self._admissible(bid)
        )
        original_by_key = {bid.key: bid for bid in instance.bids}
        reduced = WSPInstance(
            bids=admissible,
            demand=instance.demand,
            price_ceiling=instance.price_ceiling,
        )
        resilience = None
        if self._injector is not None:
            outcome, resilience = self._resilient_round(
                reduced, pre_events=pre_events, round_index=round_index
            )
            if (
                resilience is not None
                and self._policy.carry_uncovered
                and resilience.uncovered
            ):
                for buyer, units in resilience.uncovered.items():
                    self._carry[buyer] = self._carry.get(buyer, 0) + units
        else:
            try:
                outcome = self._runner(reduced, **self._options)
            except InfeasibleInstanceError:
                if self._on_infeasible == "raise":
                    raise
                outcome = _empty_outcome(
                    reduced,
                    mechanism=self._name,
                    payment_rule=self._payment_rule,
                )
        self._beta_observed = min(
            self._beta_observed, capacity_margin(self._capacities, admissible)
        )
        for winner in outcome.winners:
            self._chi[winner.bid.seller] = (
                self._chi.get(winner.bid.seller, 0) + winner.bid.size
            )
        result = RoundResult(
            round_index=round_index,
            outcome=outcome,
            original_bids=original_by_key,
            # No price scaling: selection prices are the announced prices.
            scaled_prices={bid.key: bid.price for bid in admissible},
            psi_after={seller: 0.0 for seller in self._capacities},
            capacity_used=self.capacity_used,
            resilience=resilience,
        )
        self._rounds.append(result)
        return result

    def _resilient_round(
        self,
        reduced: WSPInstance,
        *,
        pre_events: Sequence,
        round_index: int,
    ):
        """Run the round through the fault-recovery engine.

        Mirrors :meth:`MultiStageOnlineAuction._resilient_round`: a
        degradation-policy ``"raise"`` escalation falls back to this
        adapter's ``on_infeasible`` handling.
        """
        from repro.faults.report import RoundResilience
        from repro.faults.resilience import execute_with_resilience

        def runner(inst: WSPInstance) -> AuctionOutcome:
            return self._runner(inst, **self._options)

        try:
            return execute_with_resilience(
                reduced,
                runner,
                round_index=round_index,
                injector=self._injector,
                policy=self._policy,
                pre_events=pre_events,
            )
        except InfeasibleInstanceError:
            if self._on_infeasible == "raise":
                raise
            outcome = _empty_outcome(
                reduced, mechanism=self._name, payment_rule=self._payment_rule
            )
            report = (
                RoundResilience(events=tuple(pre_events))
                if pre_events
                else None
            )
            return outcome, report

    def finalize(self) -> OnlineOutcome:
        """Package the horizon's rounds into an :class:`OnlineOutcome`."""
        outcome = OnlineOutcome(
            rounds=tuple(self._rounds),
            capacities=dict(self._capacities),
            alpha=float("nan"),
            beta=self._beta_observed,
            competitive_bound=float("nan"),
            mechanism=self._name,
        )
        outcome.verify_capacities()
        return outcome
