"""The winner-selection problem (WSP) — the paper's ILP (12)–(15).

A :class:`WSPInstance` is one round of the auction: a set of bids and a
per-buyer integer demand vector.  The objective is to pick winning bids of
minimum total price such that

* every buyer ``b`` receives at least ``demand[b]`` coverage units
  (constraint 13 — generalized set multicover),
* each seller wins at most one bid (constraint 14),
* decisions are binary (constraint 15).

The instance also exposes the constraint matrices of the LP relaxation so
the exact solvers (:mod:`repro.solvers`) and the dual bookkeeping
(:mod:`repro.core.duals`) share a single source of truth for the
formulation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bids import Bid, group_bids_by_seller, validate_bids
from repro.errors import ConfigurationError, InfeasibleInstanceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (outcomes → wsp)
    from repro.core.outcomes import AuctionOutcome

__all__ = [
    "WSPInstance",
    "CoverageState",
    "supply_clamped_demand",
    "clear_supply_clamped",
]


@dataclass(frozen=True)
class WSPInstance:
    """One round's winner-selection problem.

    Attributes
    ----------
    bids:
        All submitted bids (already validated; see :func:`from_bids`): a
        tuple, or MSOA's lazy :class:`~repro.core.outcomes.ScaledBids`.
    demand:
        Mapping from buyer microservice id to its required coverage units
        (the per-buyer decomposition of the round's aggregate demand
        ``Xᵗ``).  Buyers with zero demand are allowed and simply ignored.
    price_ceiling:
        The publicly known maximum admissible per-unit price.  It caps
        critical payments when a winner faces no competition (a monopolist
        seller).  ``None`` defaults to the maximum announced bid price.
    """

    bids: Sequence[Bid]
    demand: Mapping[int, int]
    price_ceiling: float | None = None

    @staticmethod
    def from_bids(
        bids: Iterable[Bid],
        demand: Mapping[int, int],
        price_ceiling: float | None = None,
    ) -> "WSPInstance":
        """Validate inputs and build an instance.

        Raises :class:`~repro.errors.ConfigurationError` on malformed input
        (negative demand, duplicate bid keys, unknown buyers, ...).
        """
        for buyer, units in demand.items():
            if units < 0:
                raise ConfigurationError(
                    f"buyer {buyer} has negative demand {units}"
                )
            if int(units) != units:
                raise ConfigurationError(
                    f"buyer {buyer} demand must be integral, got {units}"
                )
        validated = validate_bids(bids, demand)
        if price_ceiling is not None and price_ceiling <= 0:
            raise ConfigurationError(
                f"price_ceiling must be positive, got {price_ceiling}"
            )
        return WSPInstance(
            bids=validated,
            demand={int(b): int(u) for b, u in demand.items()},
            price_ceiling=price_ceiling,
        )

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------
    @property
    def buyers(self) -> tuple[int, ...]:
        """Buyers with positive demand, in sorted order."""
        return tuple(sorted(b for b, u in self.demand.items() if u > 0))

    @property
    def sellers(self) -> tuple[int, ...]:
        """Distinct sellers appearing among the bids, in sorted order."""
        return tuple(sorted({bid.seller for bid in self.bids}))

    @property
    def total_demand(self) -> int:
        """``Σ_b demand[b]`` — the round's aggregate coverage units."""
        return sum(u for u in self.demand.values() if u > 0)

    @property
    def effective_ceiling(self) -> float:
        """The per-unit price cap actually used for monopolist payments."""
        if self.price_ceiling is not None:
            return self.price_ceiling
        if not self.bids:
            return 1.0
        return max(bid.price for bid in self.bids)

    def bids_of(self, seller: int) -> tuple[Bid, ...]:
        """All bids submitted by ``seller`` in this round."""
        return tuple(bid for bid in self.bids if bid.seller == seller)

    def without_seller(self, seller: int) -> "WSPInstance":
        """The same instance with all of ``seller``'s bids removed.

        Used by the critical-payment rule: a winner's threshold price is
        derived from the greedy run on the market without that seller.
        """
        return WSPInstance(
            bids=tuple(bid for bid in self.bids if bid.seller != seller),
            demand=self.demand,
            price_ceiling=self.price_ceiling,
        )

    def replace_bid(self, new_bid: Bid) -> "WSPInstance":
        """The same instance with the bid keyed like ``new_bid`` swapped out.

        Used by truthfulness audits to inject a unilateral price deviation.
        """
        keys = {bid.key for bid in self.bids}
        if new_bid.key not in keys:
            raise ConfigurationError(f"no existing bid with key {new_bid.key}")
        replaced = tuple(
            new_bid if bid.key == new_bid.key else bid for bid in self.bids
        )
        return WSPInstance(
            bids=replaced, demand=self.demand, price_ceiling=self.price_ceiling
        )

    def bid_by_key(self, key: tuple[int, int]) -> Bid:
        """The bid with ``(seller, index)`` key ``key`` (ConfigurationError
        if absent)."""
        for bid in self.bids:
            if bid.key == key:
                return bid
        raise ConfigurationError(f"no existing bid with key {key}")

    def perturb_bid(self, key: tuple[int, int], price: float) -> "WSPInstance":
        """The same instance with bid ``key`` re-priced at ``price``.

        The bid's private cost is pinned to its current :attr:`Bid.cost`,
        so the perturbation models a unilateral *misreport*: the economics
        audits (monotonicity probes, the critical-payment bisection oracle,
        truthfulness sweeps in :mod:`repro.verify`) all edit instances
        through this one helper.
        """
        return self.replace_bid(self.bid_by_key(key).with_price(price))

    def restrict_seller_to(self, key: tuple[int, int]) -> "WSPInstance":
        """Drop the keyed bid's sibling alternatives (same seller).

        This is the single-parameter projection behind the paper's
        truthfulness proof (Theorem 4): with its alternative bids held
        out, a seller's strategy space collapses to the one price of bid
        ``key``, which is exactly the setting where monotone allocation
        plus critical payments imply truthfulness.  With siblings left
        in, a seller can inflate one alternative to prop up the critical
        payment of another — a menu deviation the theorem does not cover.
        """
        anchor = self.bid_by_key(key)  # validates the key exists
        return WSPInstance(
            bids=tuple(
                bid
                for bid in self.bids
                if bid.seller != anchor.seller or bid.key == key
            ),
            demand=self.demand,
            price_ceiling=self.price_ceiling,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return {
            "bids": [bid.to_dict() for bid in self.bids],
            "demand": {str(buyer): units for buyer, units in self.demand.items()},
            "price_ceiling": self.price_ceiling,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "WSPInstance":
        """Rebuild an instance from its :meth:`to_dict` form."""
        return WSPInstance(
            bids=tuple(Bid.from_dict(item) for item in data["bids"]),
            demand={int(buyer): int(units) for buyer, units in data["demand"].items()},
            price_ceiling=(
                float(data["price_ceiling"])
                if data.get("price_ceiling") is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleInstanceError` if no solution can exist.

        Because every seller wins at most one bid and a bid gives each
        covered buyer one unit, buyer ``b`` can receive at most one unit per
        *distinct seller* covering it.  Feasibility therefore requires that
        the number of distinct sellers covering ``b`` is at least
        ``demand[b]``.  This condition is also sufficient: picking, for each
        buyer in turn, bids from unused sellers is a matching problem that
        the greedy mechanism resolves (and the MILP confirms).
        """
        sellers_covering = _sellers_covering(self.bids)
        for buyer in self.buyers:
            covering = len(sellers_covering.get(buyer, ()))
            if covering < self.demand[buyer]:
                raise InfeasibleInstanceError(
                    f"buyer {buyer} needs {self.demand[buyer]} units but only "
                    f"{covering} distinct sellers cover it"
                )
        if not self._flow_feasible():
            raise InfeasibleInstanceError(
                "demand cannot be met with at most one winning bid per seller"
            )

    def _flow_feasible(self) -> bool:
        """Exact feasibility for tiny instances, run after the seller count.

        One winning bid per seller supplies one unit to *each* buyer it
        covers, so the distinct-seller condition of
        :meth:`check_feasible` is necessary but not sufficient when one
        seller's bids cover different buyers.  The exact question is
        itself the NP-hard WSP feasibility, so it is searched
        exhaustively only for tiny instances; at scale the distinct-seller
        condition is relied on, which is tight for the instance families
        in this library.
        """
        by_seller = group_bids_by_seller(self.bids)
        if len(by_seller) > 16 or len(self.bids) > 20:
            return True  # rely on the necessary condition at scale
        return self._exhaustive_feasible(by_seller)

    def _exhaustive_feasible(self, by_seller: Mapping[int, Sequence[Bid]]) -> bool:
        sellers = sorted(by_seller)

        def recurse(idx: int, coverage: dict[int, int]) -> bool:
            if all(coverage[b] >= self.demand[b] for b in self.buyers):
                return True
            if idx == len(sellers):
                return False
            remaining_possible = len(sellers) - idx
            deficit = max(
                self.demand[b] - coverage[b] for b in self.buyers
            ) if self.buyers else 0
            if deficit > remaining_possible:
                return False
            seller = sellers[idx]
            for bid in by_seller[seller]:
                updated = dict(coverage)
                for buyer in bid.covered:
                    if buyer in updated:
                        updated[buyer] += 1
                if recurse(idx + 1, updated):
                    return True
            return recurse(idx + 1, coverage)

        return recurse(0, {b: 0 for b in self.buyers})

    def is_feasible(self) -> bool:
        """Boolean wrapper around :meth:`check_feasible`."""
        try:
            self.check_feasible()
        except InfeasibleInstanceError:
            return False
        return True

    # ------------------------------------------------------------------
    # LP / ILP matrix forms (shared by solvers and dual bookkeeping)
    # ------------------------------------------------------------------
    def constraint_matrices(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(c, A_cover, b_cover, A_seller, b_seller)``.

        * ``c`` — objective coefficients (bid prices), one per bid, in
          :attr:`bids` order.
        * ``A_cover @ x >= b_cover`` — per-buyer coverage constraints (13).
        * ``A_seller @ x <= b_seller`` — per-seller at-most-one constraints
          (14).
        """
        n = len(self.bids)
        buyers = self.buyers
        sellers = self.sellers
        c = np.array([bid.price for bid in self.bids], dtype=float)
        a_cover = np.zeros((len(buyers), n))
        buyer_row = {b: r for r, b in enumerate(buyers)}
        for col, bid in enumerate(self.bids):
            for buyer in bid.covered:
                row = buyer_row.get(buyer)
                if row is not None:
                    a_cover[row, col] = 1.0
        b_cover = np.array([self.demand[b] for b in buyers], dtype=float)
        a_seller = np.zeros((len(sellers), n))
        seller_row = {s: r for r, s in enumerate(sellers)}
        for col, bid in enumerate(self.bids):
            a_seller[seller_row[bid.seller], col] = 1.0
        b_seller = np.ones(len(sellers))
        return c, a_cover, b_cover, a_seller, b_seller

    def solution_cost(self, chosen: Iterable[Bid]) -> float:
        """Total announced price of a set of bids (the social cost)."""
        return float(sum(bid.price for bid in chosen))

    def verify_solution(self, chosen: Sequence[Bid]) -> None:
        """Assert that ``chosen`` is primal feasible; raise otherwise."""
        keys = [bid.key for bid in chosen]
        if len(set(keys)) != len(keys):
            raise InfeasibleInstanceError("a bid was selected twice")
        sellers = [bid.seller for bid in chosen]
        if len(set(sellers)) != len(sellers):
            raise InfeasibleInstanceError("a seller won more than one bid")
        coverage = {b: 0 for b in self.buyers}
        for bid in chosen:
            for buyer in bid.covered:
                if buyer in coverage:
                    coverage[buyer] += 1
        for buyer in self.buyers:
            if coverage[buyer] < self.demand[buyer]:
                raise InfeasibleInstanceError(
                    f"buyer {buyer} covered {coverage[buyer]} < demand "
                    f"{self.demand[buyer]}"
                )


def _sellers_covering(bids: Iterable[Bid]) -> dict[int, set[int]]:
    """Map each covered buyer to the distinct sellers with a bid covering it."""
    sellers_covering: dict[int, set[int]] = {}
    for bid in bids:
        for buyer in bid.covered:
            sellers_covering.setdefault(buyer, set()).add(bid.seller)
    return sellers_covering


def supply_clamped_demand(instance: WSPInstance) -> dict[int, int]:
    """Clamp each buyer's demand to the distinct sellers covering it.

    Each seller wins at most one bid (constraint 14), so a buyer can be
    granted at most one unit per distinct covering seller.
    :func:`clear_supply_clamped` re-runs an infeasible round on this
    demand to serve what the bid pool can still supply.
    """
    sellers_covering = _sellers_covering(instance.bids)
    return {
        buyer: min(units, len(sellers_covering.get(buyer, ())))
        for buyer, units in instance.demand.items()
    }


def clear_supply_clamped(
    instance: WSPInstance,
    clear: Callable[[WSPInstance], AuctionOutcome],
    fallback: Callable[[WSPInstance], AuctionOutcome] | None = None,
) -> AuctionOutcome:
    """Clear ``instance`` at its :func:`supply_clamped_demand`.

    The one best-effort repair of an infeasible round: ``clear`` runs on
    the clamped demand, and if even that is stuck (e.g. every bid priced
    above the ceiling) the result is ``fallback(instance)`` — by default
    ``clear`` on the round with its demand emptied, an empty outcome.
    """
    clamped = WSPInstance(
        bids=instance.bids,
        demand=supply_clamped_demand(instance),
        price_ceiling=instance.price_ceiling,
    )
    try:
        return clear(clamped)
    except InfeasibleInstanceError:
        if fallback is not None:
            return fallback(instance)
        return clear(WSPInstance(bids=instance.bids, demand={}, price_ceiling=None))


@dataclass
class CoverageState:
    """Mutable coverage bookkeeping shared by the greedy mechanisms.

    Tracks, per buyer, how many units have been granted so far, and exposes
    the marginal-utility function ``Uᵢⱼ(𝔼ᵗ)`` of the paper (Eq. 19): the
    number of covered buyers whose demand is still unmet.
    """

    demand: Mapping[int, int]
    granted: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for buyer in self.demand:
            self.granted.setdefault(buyer, 0)

    def utility_of(self, bid: Bid) -> int:
        """Marginal units this bid would contribute right now."""
        return sum(
            1
            for buyer in bid.covered
            if self.granted.get(buyer, 0) < self.demand.get(buyer, 0)
        )

    def apply(self, bid: Bid) -> int:
        """Grant the bid's coverage; return the marginal units contributed."""
        gained = 0
        for buyer in bid.covered:
            if buyer in self.granted:
                if self.granted[buyer] < self.demand.get(buyer, 0):
                    gained += 1
                self.granted[buyer] += 1
        return gained

    @property
    def unmet(self) -> int:
        """Total coverage units still missing across all buyers."""
        return sum(
            max(0, self.demand[b] - self.granted.get(b, 0)) for b in self.demand
        )

    @property
    def satisfied(self) -> bool:
        """Whether every buyer's demand is fully covered."""
        return self.unmet == 0

    def copy(self) -> "CoverageState":
        """An independent copy (used by payment re-runs)."""
        return CoverageState(demand=self.demand, granted=dict(self.granted))

