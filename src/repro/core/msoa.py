"""MSOA — the Multi-Stage Online Auction (Algorithm 2).

MSOA decomposes the online winner-selection problem into one SSAM run per
round, joined by two pieces of per-seller state:

* ``χᵢ`` — coverage units the seller has already committed (line 12);
* ``ψᵢ`` — a dual "scarcity price" that grows multiplicatively each time
  the seller wins (line 11), so a seller whose long-run capacity ``Θᵢ`` is
  nearly depleted looks *more expensive* to the greedy selection.

Each round, bids that would overflow a seller's remaining capacity are
excluded outright (line 5), and surviving bids enter SSAM at the scaled
price ``∇ᵗᵢⱼ = Jᵗᵢⱼ + |Sᵗᵢⱼ|·ψᵢᵗ⁻¹`` (line 8).  The multiplicative update
is what yields the ``αβ/(β−1)`` competitive ratio of Theorem 7, with
``α`` the single-stage approximation ratio and ``β = min Θᵢ/|Sᵗᵢⱼ|``.

Winners are paid during each round's SSAM execution (on the scaled
prices), which preserves individual rationality — a scaled price is never
below the announced price, and the critical payment is never below the
scaled price.

:class:`MultiStageOnlineAuction` keeps ψ, χ and Θ as arrays over a
seller slot table, so a round is column work: line 5 is one mask
``size ≤ Θ − χ``, line 8 one expression ``price + size·ψ[slot]``, β one
``min``, and ``χ ≤ Θ`` is checked after every round.  The scaled bids
are a lazy :class:`~repro.core.outcomes.ScaledBids` view: a :class:`Bid`
is built only for what reads one (the winners, or a consumer iterating).

It is the repo's one online round loop.  Subclasses change how a round
is priced or cleared through a few overridable seams — ``_reprice``
(line 8), ``_execute_ssam`` (the clearing), ``_skip_outcome``,
``_apply_win`` (lines 11–12) — and keep the screen (``_screen``, line
5), fault handling and ``on_infeasible`` dispatch.
:class:`~repro.shard.msoa.ShardedOnlineAuction` swaps the clearing for
the sharded pipeline; :class:`~repro.core.mechanism.
SingleRoundOnlineAdapter` runs a single-round baseline on the announced
bids (``ψ ≡ 0``, χ only).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bids import Bid
from repro.core.outcomes import (
    OnlineOutcome,
    RoundResult,
    RowMapping,
    ScaledBids,
)
from repro.core.ratios import msoa_competitive_bound, ssam_ratio_bound
from repro.core.ssam import (
    PaymentRule,
    resolve_engine,
    run_ssam,
    warn_ignored,
)
from repro.core.wsp import WSPInstance, clear_supply_clamped
from repro.errors import (
    ConfigurationError,
    InfeasibleInstanceError,
    MechanismError,
)
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → core)
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.faults.policies import ResiliencePolicy

__all__ = ["MultiStageOnlineAuction", "run_msoa"]

_STRUCTURE = attrgetter("seller", "index", "covered")
_PRICE = attrgetter("price")


class _BidFrame:
    """One round's ``(seller, index, covered)`` rows as columns, kept
    while the structure repeats: per row the seller's slot (0 for a
    seller without one, which screens and prices like an unconstrained
    seller's own slot), ``|Sᵗᵢⱼ|`` and the bid key.  It is MSOA's only
    structure index, so it also carries the columnar layout last built
    for its admitted rows (see :meth:`columnar`)."""

    __slots__ = ("structure", "slots", "sizes", "keys", "row_of", "layout")

    def __init__(self, structure: tuple, slot_of: Mapping[int, int]) -> None:
        self.structure = structure
        self.slots = np.array([slot_of.get(s, 0) for s, _, _ in structure], np.int64)
        self.sizes = np.array([len(c) for _, _, c in structure], np.int64)
        self.keys = [(s, i) for s, i, _ in structure]
        self.row_of = {key: row for row, key in enumerate(self.keys)}
        # (admitted mask, positive demand items, ColumnarInstance)
        self.layout: tuple | None = None

    @classmethod
    def of(
        cls,
        bids: Sequence[Bid],
        previous: "_BidFrame | None",
        slot_of: Mapping[int, int],
    ) -> "_BidFrame":
        """``previous`` while ``bids`` repeat its rows — the round's one
        structure check — else a new frame for them."""
        structure = tuple(map(_STRUCTURE, bids))
        if previous is not None and previous.structure == structure:
            return previous
        return cls(structure, slot_of)

    def view(self, values: Sequence, mask: np.ndarray | None = None):
        """``key → values[row]`` over the rows ``mask`` selects."""
        return RowMapping(self.keys, self.row_of, values, mask)

    def columnar(
        self, admitted: np.ndarray, bids: ScaledBids, demand: Mapping[int, int]
    ):
        """The layout of the ``admitted`` rows' ``bids`` for the positive
        ``demand``: the carried one re-priced when the mask and the demand
        items repeat (ψ only moves prices), else a fresh build, carried
        in its place."""
        from repro.core.columnar import ColumnarInstance

        items = tuple(demand.items())
        carried = self.layout
        if (
            carried is not None
            and carried[1] == items
            and np.array_equal(carried[0], admitted)
        ):
            layout = carried[2].with_bids(bids, bids.prices)
            if _OBS.enabled:
                _OBS.metrics.counter("engine.columnar.cache_hits").inc()
        else:
            layout = ColumnarInstance.build(bids, demand)
            if _OBS.enabled:
                _OBS.metrics.counter("engine.columnar.cache_misses").inc()
        self.layout = (admitted, items, layout)
        return layout


def resolve_fault_args(faults, resilience):
    """Resolve ``faults=``/``resilience=`` kwargs into (injector, policy).

    Shared by every fault-aware online loop (MSOA and its subclasses,
    the baseline adapters included).  Imports :mod:`repro.faults`
    lazily so :mod:`repro.core` never depends on it at import time
    (faults imports core, not vice versa).  A null plan resolves to *no*
    injector: the round loop then takes the exact unfaulted code path,
    which is what makes the all-zero-plan bit-identity guarantee true by
    construction.
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


class MultiStageOnlineAuction:
    """Stateful online auctioneer processing rounds as they arrive.

    Parameters
    ----------
    capacities:
        ``Θᵢ`` per seller.  Sellers absent from the map are treated as
        capacity-unconstrained: they are never excluded and their scarcity
        price stays zero (the ``Θ → ∞`` limit of the update rule).
    alpha:
        The single-stage approximation ratio used in the ψ update (the
        paper's ``π``/``α``).  ``None`` (default) estimates it from the
        first round's Theorem-3 bound ``W·Ξ``.
    payment_rule:
        Forwarded to each round's SSAM run.
    engine:
        Engine for every round (:data:`~repro.core.ssam.ENGINES`):
        ``"columnar"`` (default; numpy-vectorized kernels with
        round-to-round layout carry) or ``"reference"`` (the naive
        oracle loop).
    columnar_incremental:
        ``engine="columnar"`` only: carry the columnar layout across
        rounds and refresh just the ψ-scaled price column whenever a
        round's market *structure* (bids' sellers/indices/coverage and
        the positive demand map) is unchanged, instead of rebuilding the
        index arrays from scratch.  Outcomes are bit-identical either
        way (an incrementality test enforces it); disable only to
        benchmark the cold-rebuild path.
    on_infeasible:
        ``"raise"`` (default) propagates an infeasible round;
        ``"skip"`` records the round with an empty winner set instead;
        ``"best_effort"`` clamps each buyer's demand to what the round's
        admissible bids can still cover and serves that — the honest
        accounting for experiment sweeps, where capacity depletion should
        shrink service, not erase the round's cost.
    faults:
        A :class:`~repro.faults.models.FaultPlan` (or prepared
        :class:`~repro.faults.injector.FaultInjector`) to execute over
        the horizon.  ``None`` (default) and null plans take the exact
        unfaulted code path — outcomes are bit-identical to a run
        without the parameter.
    resilience:
        The :class:`~repro.faults.policies.ResiliencePolicy` governing
        retries, backoff, bid timeouts, degradation, and demand
        carryover when ``faults`` is active.  Defaults to
        :data:`~repro.faults.policies.DEFAULT_POLICY`; rejected without
        ``faults``.
    retain_rounds:
        Whether :meth:`process_round` keeps every :class:`RoundResult`
        (default ``True``, required by :meth:`finalize`'s horizon view).
        ``False`` is the bounded-memory streaming mode: ψ/χ state still
        evolves normally and each call still returns its result, but
        nothing is retained — a 10^6-demand-unit horizon holds one round
        of bids in memory at a time.  :attr:`rounds` stays empty and
        :meth:`finalize` sees an empty horizon in this mode; ``χ ≤ Θ``
        is still checked, from the state arrays, every round and there.
    """

    def __init__(
        self,
        capacities: Mapping[int, int],
        *,
        alpha: float | None = None,
        payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
        engine: str = "columnar",
        columnar_incremental: bool = True,
        on_infeasible: str = "raise",
        faults: "FaultPlan | FaultInjector | None" = None,
        resilience: "ResiliencePolicy | None" = None,
        retain_rounds: bool = True,
    ) -> None:
        for seller, capacity in capacities.items():
            if capacity <= 0:
                raise ConfigurationError(
                    f"seller {seller} capacity must be positive, got {capacity}"
                )
        if on_infeasible not in ("raise", "skip", "best_effort"):
            raise ConfigurationError(
                "on_infeasible must be 'raise', 'skip' or 'best_effort', "
                f"got {on_infeasible!r}"
            )
        if alpha is not None and alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        self._capacities = dict(capacities)
        self._alpha = alpha
        self._payment_rule = payment_rule
        self._engine = resolve_engine(engine)
        self._on_infeasible = on_infeasible
        self._columnar_incremental = bool(columnar_incremental)
        self._injector, self._policy = resolve_fault_args(faults, resilience)
        self._carry: dict[int, int] = {}
        # The only ψ/χ/Θ store.  Slot k ≥ 1 is seller ``_sellers[k - 1]``:
        # the capacities in order, then unconstrained sellers from their
        # first win.  Slot 0 is every slotless seller (Θ = ∞, ψ = 0).
        self._sellers: list[int] = list(self._capacities)
        self._slot_of = {s: k for k, s in enumerate(self._sellers, 1)}
        self._theta = np.array(
            [math.inf, *self._capacities.values()], dtype=np.float64
        )
        self._chi = np.zeros(self._theta.size, dtype=np.int64)
        self._psi = np.zeros(self._theta.size, dtype=np.float64)
        self._frame: _BidFrame | None = None
        # (scaled instance, frame, admitted mask) of the latest round.
        self._round: tuple = (None, None, None)
        self._retain_rounds = bool(retain_rounds)
        self._rounds: list[RoundResult] = []
        self._round_count = 0
        self._beta_observed = math.inf

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    @property
    def psi(self) -> dict[int, float]:
        """Current scarcity prices ``ψᵢ`` of the capacity-bound sellers."""
        n = len(self._capacities)
        return dict(zip(self._sellers[:n], self._psi[1 : n + 1].tolist()))

    @property
    def capacity_used(self) -> dict[int, int]:
        """Cumulative coverage units committed per seller ``χᵢ``: the
        capacity-bound sellers, then unconstrained winners by first win."""
        return dict(zip(self._sellers, self._chi[1:].tolist()))

    @property
    def alpha(self) -> float | None:
        """The ψ-update ratio (``None`` until auto-estimated)."""
        return self._alpha

    @property
    def rounds(self) -> tuple[RoundResult, ...]:
        """Results of all rounds processed so far.

        Always empty with ``retain_rounds=False`` (streaming mode); use
        :attr:`round_count` for the number of rounds processed.
        """
        return tuple(self._rounds)

    @property
    def round_count(self) -> int:
        """Rounds processed so far (retained or not)."""
        return self._round_count

    def remaining_capacity(self, seller: int) -> int | None:
        """Units seller may still commit; ``None`` if unconstrained."""
        capacity = self._capacities.get(seller)
        if capacity is None:
            return None
        return capacity - int(self._chi[self._slot_of[seller]])

    # ------------------------------------------------------------------
    # the online loop
    # ------------------------------------------------------------------
    def _screen(self, frame: "_BidFrame") -> np.ndarray:
        """Line 5: the rows whose size fits the seller's ``Θᵢ − χᵢ``."""
        return frame.sizes <= (self._theta - self._chi)[frame.slots]

    def _reprice(self, bids, frame, admitted, prices):
        """Line 8: the admitted bids at ``∇ᵗᵢⱼ = Jᵗᵢⱼ + |Sᵗᵢⱼ|·ψᵢᵗ⁻¹`` and
        their ``key → ∇`` map — the same IEEE-754 operations as
        ``bid.price + bid.size * psi``, as one expression."""
        scaled = np.asarray(prices, np.float64) + frame.sizes * self._psi[frame.slots]
        rows = np.flatnonzero(admitted)
        scaled_bids = ScaledBids(bids, rows, scaled[rows])
        return scaled_bids, frame.view(scaled.tolist(), admitted)

    def _columnar_kwargs(self, instance: WSPInstance) -> dict:
        """The ``columnar=`` forward for a round's :func:`run_ssam` call.

        On the columnar engine with incrementality enabled, the round's
        own clearing takes its layout from the bid frame
        (:meth:`_BidFrame.columnar`): a pure price-column refresh while
        the bids, the capacity exclusions and the positive demand
        repeat, a rebuild otherwise.  The re-auctions inside a round
        (fault recovery, best-effort clamping) build their own layouts.
        """
        if (
            self._engine != "columnar"
            or not self._columnar_incremental
            or instance is not self._round[0]
        ):
            return {}
        demand = {b: u for b, u in instance.demand.items() if u > 0}
        if not demand:
            return {}
        _, frame, admitted = self._round
        return {"columnar": frame.columnar(admitted, instance.bids, demand)}

    def _execute_ssam(
        self,
        instance: WSPInstance,
        *,
        original_prices: Mapping[tuple[int, int], float] | None = None,
    ):
        """The single seam through which every round's clearing flows.

        All of MSOA's round paths — the normal path, the fault-recovery
        runner, best-effort clamping, and the empty-round fallbacks —
        call this method instead of :func:`~repro.core.ssam.run_ssam`
        directly, so a subclass can swap the clearing strategy (e.g. the
        sharded decomposition in :mod:`repro.shard`) without touching
        the admissibility/ψ/χ/fault machinery around it.
        """
        return run_ssam(
            instance,
            payment_rule=self._payment_rule,
            original_prices=original_prices,
            engine=self._engine,
            **self._columnar_kwargs(instance),
        )

    @profiled("msoa.round")
    def process_round(self, instance: WSPInstance) -> RoundResult:
        """Run one auction round online and update ψ/χ for the winners."""
        round_index = self._round_count
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
        tracer = _OBS.tracer
        with tracer.span(
            "msoa.round", round_index=round_index, bids=len(instance.bids)
        ) as round_span:
            bids = instance.bids
            frame = self._frame = _BidFrame.of(bids, self._frame, self._slot_of)
            admitted = self._screen(frame)
            prices = list(map(_PRICE, bids))
            original_prices = frame.view(prices, admitted)
            scaled_bids, scaled_prices = self._reprice(
                bids, frame, admitted, prices
            )
            if _OBS.enabled:
                metrics = _OBS.metrics
                metrics.counter("msoa.rounds").inc()
                metrics.counter("msoa.bids_admitted").inc(len(scaled_bids))
                metrics.counter("msoa.bids_excluded").inc(
                    len(bids) - len(scaled_bids)
                )
                tracer.event(
                    "price-scaling",
                    admissible=len(scaled_bids),
                    excluded=len(bids) - len(scaled_bids),
                    psi_max=float(self._psi.max()),
                )
            scaled_instance = WSPInstance(
                bids=scaled_bids,
                demand=instance.demand,
                price_ceiling=instance.price_ceiling,
            )
            if self._alpha is None:
                # Auto-estimate α from the first round's Theorem-3 bound,
                # computed on the announced (unscaled) prices.
                self._alpha = max(
                    1.0,
                    ssam_ratio_bound(
                        instance.total_demand, list(compress(bids, admitted))
                    ),
                )
            self._round = (scaled_instance, frame, admitted)
            outcome, resilience = self._clear_round(
                scaled_instance,
                original_prices,
                pre_events=pre_events,
                round_index=round_index,
            )
            if (
                resilience is not None
                and self._policy.carry_uncovered
                and resilience.uncovered
            ):
                for buyer, units in resilience.uncovered.items():
                    self._carry[buyer] = self._carry.get(buyer, 0) + units
            # β = min Θᵢ/|Sᵗᵢⱼ| over the admitted rows (Θ = ∞ rows drop
            # out); exact like ``capacity / bid.size`` for Θ below 2⁵³.
            margins = self._theta[frame.slots[admitted]] / frame.sizes[admitted]
            self._beta_observed = min(
                self._beta_observed, float(np.min(margins, initial=math.inf))
            )
            for winner in outcome.winners:
                original = bids[frame.row_of[winner.bid.key]]
                slot = self._apply_win(original)
                if _OBS.enabled:
                    tracer.event(
                        "psi-update",
                        seller=original.seller,
                        psi=float(self._psi[slot]),
                        chi=int(self._chi[slot]),
                    )
            self._check_capacities()
            result = RoundResult(
                round_index=round_index,
                outcome=outcome,
                original_bids=frame.view(bids),
                scaled_prices=scaled_prices,
                psi_after=self.psi,
                capacity_used=self.capacity_used,
                resilience=resilience,
            )
            tracer.annotate(
                round_span,
                social_cost=result.social_cost,
                total_payment=result.total_payment,
                winners=len(outcome.winners),
            )
            self._round_count += 1
            if self._retain_rounds:
                self._rounds.append(result)
            return result

    def _clear_round(
        self,
        scaled_instance: WSPInstance,
        original_prices: Mapping[tuple[int, int], float],
        *,
        pre_events: Sequence,
        round_index: int,
    ):
        """Clear a screened, price-scaled round; ``(outcome, resilience)``.

        With faults active the round runs through the fault-recovery
        engine.  An infeasible round — or a degradation-policy
        ``"raise"`` escalation — is then handled by ``on_infeasible``
        alone, so faulted and unfaulted runs treat unrecoverable rounds
        uniformly.
        """

        def clear(inst: WSPInstance):
            # ``inst`` is the round or a subset of its bids (fault
            # re-auctions, best-effort clamping); prices are looked up
            # per winner, so the round's full map serves every call.
            return self._execute_ssam(inst, original_prices=original_prices)

        try:
            if self._injector is None:
                return clear(scaled_instance), None
            from repro.faults.resilience import execute_with_resilience

            return execute_with_resilience(
                scaled_instance,
                clear,
                round_index=round_index,
                injector=self._injector,
                policy=self._policy,
                pre_events=pre_events,
            )
        except InfeasibleInstanceError:
            if self._on_infeasible == "raise":
                raise
        if self._on_infeasible == "best_effort":
            outcome = self._best_effort_round(scaled_instance, clear)
        else:
            outcome = self._skip_outcome(scaled_instance)
        if not pre_events:
            return outcome, None
        from repro.faults.report import RoundResilience

        return outcome, RoundResilience(events=tuple(pre_events))

    def _best_effort_round(self, scaled_instance: WSPInstance, clear):
        """Serve the largest demand the admissible bids can still cover
        (:func:`~repro.core.wsp.clear_supply_clamped`); if even the
        clamped round is stuck (pathological seller overlap), fall back
        to the skipped round."""

        def repair(clamped: WSPInstance):
            if _OBS.enabled:
                _OBS.metrics.counter("msoa.capacity_repairs").inc()
                _OBS.tracer.event(
                    "capacity-repair",
                    demand={str(b): u for b, u in scaled_instance.demand.items()},
                    clamped={str(b): u for b, u in clamped.demand.items()},
                )
            return clear(clamped)

        return clear_supply_clamped(scaled_instance, repair, self._skip_outcome)

    def _skip_outcome(self, instance: WSPInstance):
        """The empty-winner outcome recorded for a skipped round."""
        return self._execute_ssam(
            WSPInstance(bids=instance.bids, demand={}, price_ceiling=None)
        )

    def _apply_win(self, bid: Bid) -> int:
        """Lines 11–12: multiplicative ψ update and χ accounting; returns
        the seller's slot.  Scalar Python per winner, in the paper's
        operand order: ``capacity**2`` stays a Python int (an int64 Θ²
        overflows once Θ > 3.03e9)."""
        slot = self._charge(bid)
        capacity = self._capacities.get(bid.seller)
        if capacity is None:
            return slot  # unconstrained seller: ψ stays 0 (Θ → ∞ limit)
        alpha = self._alpha if self._alpha is not None else 1.0
        psi_prev = float(self._psi[slot])
        self._psi[slot] = psi_prev * (
            1.0 + bid.size / (alpha * capacity)
        ) + bid.price * bid.size / (alpha * capacity**2)
        return slot

    def _charge(self, bid: Bid) -> int:
        """Line 12: add the bid's units to its seller's χ (an unconstrained
        seller's first win appends its slot); return the slot."""
        slot = self._slot_of.get(bid.seller)
        if slot is None:
            slot = self._slot_of[bid.seller] = self._theta.size
            self._sellers.append(bid.seller)
            self._theta = np.append(self._theta, math.inf)
            self._chi = np.append(self._chi, 0)
            self._psi = np.append(self._psi, 0.0)
        self._chi[slot] += bid.size
        return slot

    def _check_capacities(self) -> None:
        """Raise :class:`MechanismError` unless ``χᵢ ≤ Θᵢ`` for every
        seller: one compare, after every round and in :meth:`finalize` —
        streaming mode retains no rounds to verify afterwards."""
        over = np.flatnonzero(self._chi > self._theta)
        if over.size:
            seller = self._sellers[int(over[0]) - 1]
            raise MechanismError(
                f"seller {seller} used {int(self._chi[over[0]])} units, "
                f"exceeding capacity {self._capacities[seller]}"
            )

    def finalize(self) -> OnlineOutcome:
        """Package the horizon's rounds into an :class:`OnlineOutcome`."""
        alpha = self._alpha if self._alpha is not None else 1.0
        return self._package(
            "msoa", alpha, msoa_competitive_bound(alpha, self._beta_observed)
        )

    def _package(
        self, mechanism: str, alpha: float, competitive_bound: float
    ) -> OnlineOutcome:
        self._check_capacities()  # the retained rounds' χ is the arrays' χ
        return OnlineOutcome(
            rounds=tuple(self._rounds),
            capacities=dict(self._capacities),
            alpha=alpha,
            beta=self._beta_observed,
            competitive_bound=competitive_bound,
            mechanism=mechanism,
        )


def run_msoa(
    rounds: Iterable[WSPInstance] | Sequence[WSPInstance],
    capacities: Mapping[int, int],
    *,
    alpha: float | None = None,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    columnar_incremental: bool = True,
    on_infeasible: str = "raise",
    faults: "FaultPlan | FaultInjector | None" = None,
    resilience: "ResiliencePolicy | None" = None,
    parallelism: int | str | None = None,
) -> OnlineOutcome:
    """Convenience wrapper: feed a whole horizon through MSOA.

    The auctioneer still processes rounds strictly online — each round's
    decisions depend only on past rounds — this helper merely drives the
    loop and finalizes the outcome.  All options are keyword-only and
    forwarded to :class:`MultiStageOnlineAuction`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.workload import MarketConfig, generate_horizon
    >>> rounds, capacities = generate_horizon(
    ...     MarketConfig(), np.random.default_rng(7), rounds=3)
    >>> outcome = run_msoa(rounds, capacities)
    >>> len(outcome.rounds)
    3

    A seeded :class:`~repro.faults.FaultPlan` injects failures into the
    horizon; defaults are recovered by re-auction under the (optional)
    :class:`~repro.faults.ResiliencePolicy`:

    >>> from repro.faults import FaultPlan, SellerDefault
    >>> plan = FaultPlan(seed=3,
    ...                  seller_defaults=(SellerDefault(probability=0.4),))
    >>> faulted = run_msoa(rounds, capacities, faults=plan)
    >>> faulted.fault_events > 0
    True

    .. deprecated:: 1.3
        ``parallelism=`` warns and changes nothing (see
        :func:`~repro.core.ssam.warn_ignored`).
    """
    warn_ignored("parallelism", parallelism)
    auction = MultiStageOnlineAuction(
        capacities,
        alpha=alpha,
        payment_rule=payment_rule,
        engine=engine,
        columnar_incremental=columnar_incremental,
        on_infeasible=on_infeasible,
        faults=faults,
        resilience=resilience,
    )
    tracer = _OBS.tracer
    with tracer.span(
        "msoa.horizon", engine=engine, on_infeasible=on_infeasible
    ) as horizon_span:
        for instance in rounds:
            auction.process_round(instance)
        outcome = auction.finalize()
        tracer.annotate(
            horizon_span,
            rounds=len(outcome.rounds),
            social_cost=outcome.social_cost,
            total_payment=outcome.total_payment,
        )
        return outcome
