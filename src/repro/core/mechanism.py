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
* :class:`SingleRoundOnlineAdapter` — a clearing-seam subclass of
  :class:`~repro.core.msoa.MultiStageOnlineAuction` (built like
  :class:`~repro.shard.msoa.ShardedOnlineAuction`) that clears each round
  with a single-round mechanism and ``ψ ≡ 0``, so baselines drive the
  full multi-round platform loop (Figure 2) end-to-end under MSOA's
  capacity screen, χ accounting and fault handling.

The string-keyed registry over these protocols lives in
:mod:`repro.core.registry`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from itertools import compress
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.core.bids import Bid
from repro.core.duals import DualSolution
from repro.core.msoa import MultiStageOnlineAuction
from repro.core.outcomes import (
    AuctionOutcome,
    OnlineOutcome,
    RoundResult,
    WinningBid,
)
from repro.core.wsp import CoverageState, WSPInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → core)
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.faults.policies import ResiliencePolicy

__all__ = [
    "Mechanism",
    "OnlineMechanism",
    "outcome_from_selection",
    "SingleRoundOnlineAdapter",
]


@runtime_checkable
class Mechanism(Protocol):
    """A single-round mechanism: ``WSPInstance → AuctionOutcome``.

    Implementations may accept mechanism-specific keyword options (e.g.
    ``payment_rule`` for SSAM, ``unit_price`` for posted pricing); the
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


class SingleRoundOnlineAdapter(MultiStageOnlineAuction):
    """Drive any single-round mechanism through MSOA's online loop.

    A clearing-seam subclass of :class:`MultiStageOnlineAuction`, built
    like :class:`~repro.shard.msoa.ShardedOnlineAuction`: the line-5
    capacity screen (bids that would overflow a seller's remaining
    long-run capacity ``Θᵢ`` are excluded), line-12 χ accounting, fault
    handling and ``on_infeasible`` all come from MSOA, but there are no
    scarcity prices — each round clears the wrapped mechanism on
    announced prices (``ψ ≡ 0``).  This is exactly the "what if a
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
        # A fixed α skips the round-0 Theorem-3 estimate; with ψ ≡ 0 the
        # ψ update that would use it never runs.
        super().__init__(
            capacities,
            alpha=1.0,
            payment_rule=payment_rule,
            on_infeasible=on_infeasible,
            faults=faults,
            resilience=resilience,
        )
        self._runner = runner
        self._name = name
        self._options = dict(options or {})

    def _reprice(self, bids, frame, admitted, prices):
        # ψ ≡ 0: selection runs on the announced bids themselves.
        return tuple(compress(bids, admitted)), frame.view(prices, admitted)

    def _execute_ssam(
        self,
        instance: WSPInstance,
        *,
        original_prices: Mapping[tuple[int, int], float] | None = None,
    ) -> AuctionOutcome:
        # Bids carry their announced prices, so there is nothing to unscale.
        return self._runner(instance, **self._options)

    def _skip_outcome(self, instance: WSPInstance) -> AuctionOutcome:
        # Keeps the round's demand, so the skip reports its unmet units.
        return AuctionOutcome(
            instance=instance,
            winners=(),
            duals=DualSolution(instance=instance),
            ratio_bound=float("nan"),
            payment_rule=self._payment_rule,
            iterations=0,
            mechanism=self._name,
        )

    def _apply_win(self, bid: Bid) -> int:
        return self._charge(bid)  # line 12 only: χ advances, ψ stays 0

    def finalize(self) -> OnlineOutcome:
        """Package the horizon; no online guarantee (α, bound ``nan``)."""
        return self._package(self._name, float("nan"), float("nan"))
