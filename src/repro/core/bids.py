"""Bid and bidder data structures for the resource-sharing auction.

Model recap (Sections II and IV of the paper, reconstructed as documented
in DESIGN.md): needy microservices ("buyers") each require an integer number
of *coverage units* of spare resources; helper microservices ("sellers")
submit up to ``J`` alternative bids, each of which names the set of buyers
the offer can serve and a compensation price.  A winning bid contributes
exactly one coverage unit to every buyer it names, and each seller can win
at most one bid per round.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Bid", "BidderProfile", "group_bids_by_seller", "validate_bids"]


@dataclass(frozen=True)
class Bid:
    """One alternative offer from a seller microservice.

    Attributes
    ----------
    seller:
        Identifier of the microservice making the offer (``i`` in the paper).
    index:
        The alternative-bid index within this seller's offers (``j``).
    covered:
        Buyer microservices this offer can serve (``Ŝᵢⱼ``); the bid
        contributes one coverage unit to each of them if it wins.
    price:
        The compensation the seller asks for (``Jᵗᵢⱼ``, the bidding price).
    true_cost:
        The seller's private cost of yielding the resources (``Gᵗᵢⱼ``).
        Under truthful bidding ``true_cost == price``; truthfulness
        experiments set them apart to measure deviation utility.
    """

    seller: int
    index: int
    covered: frozenset[int]
    price: float
    true_cost: float | None = None

    def __post_init__(self) -> None:
        if not self.covered:
            raise ConfigurationError(
                f"bid ({self.seller}, {self.index}) must cover at least one buyer"
            )
        # ``not x >= 0`` rejects NaN as well as negatives; +∞ stays legal
        # (payment replays price a winner out with ``with_price(inf)``).
        if not self.price >= 0:
            raise ConfigurationError(
                f"bid ({self.seller}, {self.index}) has invalid price "
                f"{self.price} (must be >= 0, not NaN)"
            )
        if self.true_cost is not None and not self.true_cost >= 0:
            raise ConfigurationError(
                f"bid ({self.seller}, {self.index}) has invalid true cost "
                f"{self.true_cost} (must be >= 0, not NaN)"
            )
        if self.seller in self.covered:
            raise ConfigurationError(
                f"seller {self.seller} cannot cover itself (a microservice does "
                "not buy its own spare resources)"
            )

    @property
    def key(self) -> tuple[int, int]:
        """The ``(seller, index)`` pair identifying this bid in a round."""
        return (self.seller, self.index)

    @property
    def size(self) -> int:
        """``|Ŝᵢⱼ|`` — how many buyers the bid covers (its coverage units)."""
        return len(self.covered)

    @property
    def cost(self) -> float:
        """The seller's private cost, defaulting to the announced price."""
        return self.price if self.true_cost is None else self.true_cost

    def with_price(self, price: float) -> "Bid":
        """Return a copy with a different announced price (same true cost).

        Used by truthfulness audits to model a unilateral price deviation:
        the private cost is pinned to this bid's :attr:`cost`.
        """
        return Bid(
            seller=self.seller,
            index=self.index,
            covered=self.covered,
            price=price,
            true_cost=self.cost,
        )

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        data: dict = {
            "seller": self.seller,
            "index": self.index,
            "covered": sorted(self.covered),
            "price": self.price,
        }
        if self.true_cost is not None:
            data["true_cost"] = self.true_cost
        return data

    @staticmethod
    def from_dict(data: Mapping) -> "Bid":
        """Rebuild a bid from its :meth:`to_dict` form (validates afresh)."""
        return Bid(
            seller=int(data["seller"]),
            index=int(data["index"]),
            covered=frozenset(int(b) for b in data["covered"]),
            price=float(data["price"]),
            true_cost=(
                float(data["true_cost"]) if data.get("true_cost") is not None else None
            ),
        )


@dataclass(frozen=True)
class BidderProfile:
    """A seller's long-run participation profile for the online mechanism.

    Attributes
    ----------
    seller:
        The seller microservice's identifier.
    capacity:
        ``Θᵢ`` — the total number of coverage units the seller is willing to
        share over the whole horizon.  The online mechanism (MSOA) never
        lets the seller's cumulative winning coverage exceed this.
    """

    seller: int
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(
                f"seller {self.seller} capacity must be positive, got {self.capacity}"
            )


def group_bids_by_seller(bids: Iterable[Bid]) -> dict[int, list[Bid]]:
    """Group bids by their seller, preserving submission order."""
    grouped: dict[int, list[Bid]] = {}
    for bid in bids:
        grouped.setdefault(bid.seller, []).append(bid)
    return grouped


def validate_bids(bids: Iterable[Bid], demand: Mapping[int, int]) -> tuple[Bid, ...]:
    """Validate a round's bid collection against the buyer demand map.

    Checks that bid keys are unique, that covered buyers actually appear in
    the demand map, and that no seller is also a buyer (a microservice
    cannot simultaneously need and offer spare resources in one round).

    Returns the bids as a tuple in submission order.
    """
    seen: set[tuple[int, int]] = set()
    buyers = set(demand)
    result: list[Bid] = []
    for bid in bids:
        if bid.key in seen:
            raise ConfigurationError(f"duplicate bid key {bid.key}")
        seen.add(bid.key)
        unknown = bid.covered - buyers
        if unknown:
            raise ConfigurationError(
                f"bid {bid.key} covers unknown buyers {sorted(unknown)}"
            )
        if bid.seller in buyers:
            raise ConfigurationError(
                f"microservice {bid.seller} appears as both seller and buyer"
            )
        result.append(bid)
    return tuple(result)
