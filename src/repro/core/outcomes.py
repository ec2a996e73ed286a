"""Result objects returned by the auction mechanisms.

These are deliberately rich: the benchmark harness, the economics audits,
and the online framework all read from the same outcome types, so every
quantity the paper plots (social cost, payments, per-winner prices,
coverage, ratio bounds) is available as a property instead of being
recomputed ad hoc at call sites.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bids import Bid
from repro.core.duals import DualSolution
from repro.core.wsp import WSPInstance
from repro.errors import MechanismError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → core)
    from repro.faults.report import RoundResilience

__all__ = [
    "WinningBid",
    "AuctionOutcome",
    "RoundResult",
    "OnlineOutcome",
    "ScaledBids",
    "BidRows",
    "RowMapping",
]


class ScaledBids(Sequence):
    """Read-only view of a round's re-priced bids (MSOA line 8): row ``i``
    is ``bids[rows[i]]`` at ``prices[i]``, with the announced bid's cost
    as true cost.  Each :class:`Bid` is built on first access and kept,
    so a round builds only the bids something reads."""

    __slots__ = ("_bids", "_rows", "prices", "_built")

    def __init__(self, bids: Sequence[Bid], rows: np.ndarray, prices: np.ndarray):
        self._bids, self._rows, self.prices = bids, rows, prices
        self._built: dict[int, Bid] = {}

    def __len__(self) -> int:
        return len(self.prices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        if i < 0:
            i += len(self)
        bid = self._built.get(i)
        if bid is None:
            if not 0 <= i < len(self):
                raise IndexError(f"bid row {i} out of range")
            original = self._bids[self._rows[i]]
            bid = self._built[i] = Bid(
                seller=original.seller,
                index=original.index,
                covered=original.covered,
                price=float(self.prices[i]),
                true_cost=original.cost,
            )
        return bid

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        is_sequence = isinstance(other, Sequence)
        return tuple(self) == tuple(other) if is_sequence else NotImplemented

    def __repr__(self) -> str:
        return f"ScaledBids({tuple(self)!r})"

    def announced(self) -> list[Bid]:
        """Each row's announced bid: the seller, index and cover of row
        ``i`` (at the announced price), read without building row ``i``."""
        bids = self._bids
        return [bids[r] for r in self._rows.tolist()]


class BidRows(Sequence):
    """Read-only view of the rows ``rows`` of ``bids``: row ``i`` is
    ``bids[rows[i]]``, read on access, so a view over a lazy
    :class:`ScaledBids` builds only the bids something reads."""

    __slots__ = ("_bids", "_rows")

    def __init__(self, bids: Sequence[Bid], rows: Sequence[int]):
        self._bids, self._rows = bids, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return self._bids[self._rows[i]]

    def __iter__(self):
        return map(self._bids.__getitem__, self._rows)

    def __eq__(self, other) -> bool:
        is_sequence = isinstance(other, Sequence)
        return tuple(self) == tuple(other) if is_sequence else NotImplemented

    def __repr__(self) -> str:
        return f"BidRows({tuple(self)!r})"


class RowMapping(Mapping):
    """Read-only ``bid key → value`` view over one round's bid rows, in
    row order: ``keys[r]`` is row ``r``'s key, ``row_of`` its inverse,
    ``values[r]`` its value, and ``mask`` (default: all) the rows shown.
    MSOA's per-round bid and price maps are these views."""

    __slots__ = ("_keys", "_row_of", "_values", "_mask", "_len")

    def __init__(self, keys, row_of, values, mask: np.ndarray | None = None):
        self._keys, self._row_of, self._values, self._mask = keys, row_of, values, mask
        self._len = len(keys) if mask is None else int(mask.sum())

    def __getitem__(self, key):
        row = self._row_of[key]
        if self._mask is not None and not self._mask[row]:
            raise KeyError(key)
        return self._values[row]

    def __iter__(self):
        if self._mask is None:
            return iter(self._keys)
        return map(self._keys.__getitem__, np.flatnonzero(self._mask).tolist())

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return f"RowMapping({dict(self)!r})"


OUTCOME_SCHEMA_VERSION = 1
"""Version tag embedded in every serialized outcome (bump on breaking
changes to the ``to_dict`` schema)."""


def _key_str(key: tuple[int, int]) -> str:
    """Encode a ``(seller, index)`` bid key as a JSON-safe mapping key."""
    return f"{key[0]}:{key[1]}"


def _key_from_str(text: str) -> tuple[int, int]:
    seller, _, index = text.partition(":")
    return int(seller), int(index)


@dataclass(frozen=True)
class WinningBid:
    """One accepted bid, its payment, and its greedy-selection context.

    Attributes
    ----------
    bid:
        The accepted bid (with the price the selection actually used —
        under MSOA this is the *scaled* price ``∇ᵗᵢⱼ``).
    payment:
        The remuneration ``pᵗᵢ`` paid to the seller.
    iteration:
        The greedy iteration (0-based) at which the bid was selected.
    marginal_utility:
        ``Uᵢⱼ(𝔼ᵗ)`` — demand units the bid contributed when selected.
    average_price:
        ``∇ᵢⱼ/Uᵢⱼ(𝔼ᵗ)`` — the greedy's selection key for the bid.
    original_price:
        The unscaled announced price ``Jᵗᵢⱼ`` (equals ``bid.price`` for a
        standalone single-stage auction).
    """

    bid: Bid
    payment: float
    iteration: int
    marginal_utility: int
    average_price: float
    original_price: float

    def __post_init__(self) -> None:
        if self.payment < 0:
            raise MechanismError(
                f"negative payment {self.payment} for bid {self.bid.key}"
            )
        if self.marginal_utility <= 0:
            raise MechanismError(
                f"winning bid {self.bid.key} contributed no demand units"
            )

    @property
    def utility(self) -> float:
        """The seller's quasi-linear utility ``payment − true cost`` (Eq. 3)."""
        return self.payment - self.bid.cost

    # Bid delegation: a WinningBid can stand in wherever a plain Bid is
    # expected (``verify_solution``, reporting code iterating winners), so
    # call sites need not reach through ``.bid`` for the common fields.
    @property
    def key(self) -> tuple[int, int]:
        """The underlying bid's ``(seller, index)`` key."""
        return self.bid.key

    @property
    def seller(self) -> int:
        """The underlying bid's seller id."""
        return self.bid.seller

    @property
    def covered(self) -> frozenset[int]:
        """The underlying bid's covered buyer set."""
        return self.bid.covered

    @property
    def price(self) -> float:
        """The underlying bid's (selection) price."""
        return self.bid.price

    @property
    def size(self) -> int:
        """The underlying bid's coverage size ``|Ŝᵢⱼ|``."""
        return self.bid.size

    @property
    def cost(self) -> float:
        """The underlying bid's private cost."""
        return self.bid.cost

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`)."""
        return {
            "bid": self.bid.to_dict(),
            "payment": self.payment,
            "iteration": self.iteration,
            "marginal_utility": self.marginal_utility,
            "average_price": self.average_price,
            "original_price": self.original_price,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "WinningBid":
        """Rebuild a winning bid from its :meth:`to_dict` form."""
        return WinningBid(
            bid=Bid.from_dict(data["bid"]),
            payment=float(data["payment"]),
            iteration=int(data["iteration"]),
            marginal_utility=int(data["marginal_utility"]),
            average_price=float(data["average_price"]),
            original_price=float(data["original_price"]),
        )


@dataclass(frozen=True)
class AuctionOutcome:
    """The full result of one single-stage auction run.

    Every single-round mechanism in the registry (SSAM, VCG, the pricing
    and greedy baselines) emits this type; :attr:`mechanism` records which
    one produced it so saved outcomes stay self-describing.
    """

    instance: WSPInstance
    winners: tuple[WinningBid, ...]
    duals: DualSolution
    ratio_bound: float
    payment_rule: str
    iterations: int
    mechanism: str = "ssam"

    @property
    def winner_keys(self) -> frozenset[tuple[int, int]]:
        """Keys ``(seller, index)`` of every accepted bid."""
        return frozenset(w.bid.key for w in self.winners)

    @property
    def winning_sellers(self) -> frozenset[int]:
        """Sellers who won (at most one bid each)."""
        return frozenset(w.bid.seller for w in self.winners)

    @property
    def social_cost(self) -> float:
        """``Σ`` winning original prices — the paper's social cost (Def. 4)."""
        return float(sum(w.original_price for w in self.winners))

    @property
    def selection_cost(self) -> float:
        """``Σ`` winning selection prices (scaled prices under MSOA)."""
        return float(sum(w.bid.price for w in self.winners))

    @property
    def total_payment(self) -> float:
        """Aggregate remuneration the platform pays out."""
        return float(sum(w.payment for w in self.winners))

    @property
    def coverage(self) -> dict[int, int]:
        """Units granted per buyer by the winning bids (capped at demand)."""
        granted = {b: 0 for b in self.instance.buyers}
        for winner in self.winners:
            for buyer in winner.bid.covered:
                if buyer in granted:
                    granted[buyer] += 1
        return granted

    @property
    def payments(self) -> dict[tuple[int, int], float]:
        """Payment per winning bid key (VCG's old result exposed this)."""
        return {w.bid.key: w.payment for w in self.winners}

    @property
    def unmet_units(self) -> int:
        """Demand units the winner set leaves uncovered (0 when complete).

        Incomplete mechanisms (posted price with a too-low price) can
        leave demand unmet; complete mechanisms always report 0 here.
        """
        coverage = self.coverage
        return sum(
            max(0, self.instance.demand[b] - coverage[b])
            for b in self.instance.buyers
        )

    @property
    def satisfied(self) -> bool:
        """Whether the winner set covers every buyer's full demand."""
        return self.unmet_units == 0

    def payment_of(self, seller: int) -> float:
        """Payment to ``seller`` (0 if it did not win)."""
        for winner in self.winners:
            if winner.bid.seller == seller:
                return winner.payment
        return 0.0

    def utility_of(self, seller: int) -> float:
        """Quasi-linear utility of ``seller`` (0 for losers, Eq. 3)."""
        for winner in self.winners:
            if winner.bid.seller == seller:
                return winner.utility
        return 0.0

    def verify(self) -> None:
        """Re-check primal feasibility of the winner set (Theorem 2)."""
        self.instance.verify_solution([w.bid for w in self.winners])

    def to_dict(self) -> dict:
        """One JSON-compatible schema for every outcome consumer.

        Experiment storage, the CLI, and the engine bench harness all
        serialize through this method (and :meth:`from_dict`) instead of
        picking attributes ad hoc, so saved outcomes stay comparable
        across tools and releases.
        """
        return {
            "kind": "auction",
            "schema_version": OUTCOME_SCHEMA_VERSION,
            "mechanism": self.mechanism,
            "instance": self.instance.to_dict(),
            "winners": [w.to_dict() for w in self.winners],
            "duals": self.duals.to_dict(),
            "ratio_bound": self.ratio_bound,
            "payment_rule": self.payment_rule,
            "iterations": self.iterations,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "AuctionOutcome":
        """Rebuild an outcome from its :meth:`to_dict` form."""
        _check_schema(data, "auction")
        instance = WSPInstance.from_dict(data["instance"])
        return AuctionOutcome(
            instance=instance,
            winners=tuple(WinningBid.from_dict(w) for w in data["winners"]),
            duals=DualSolution.from_dict(data["duals"], instance),
            ratio_bound=float(data["ratio_bound"]),
            payment_rule=str(data["payment_rule"]),
            iterations=int(data["iterations"]),
            # Pre-tag files (schema 1 before the registry) were all SSAM.
            mechanism=str(data.get("mechanism", "ssam")),
        )


@dataclass(frozen=True)
class RoundResult:
    """One round of the multi-stage online mechanism (MSOA).

    Wraps the round's single-stage outcome together with the original
    (unscaled) bids, the scaled prices used for selection, and the dual
    state ``ψ`` after the round.  Under MSOA the two bid maps are
    read-only :class:`RowMapping` views over the round's columns.
    """

    round_index: int
    outcome: AuctionOutcome
    original_bids: Mapping[tuple[int, int], Bid]
    scaled_prices: Mapping[tuple[int, int], float]
    psi_after: Mapping[int, float]
    capacity_used: Mapping[int, int]
    resilience: "RoundResilience | None" = None

    @property
    def degraded(self) -> bool:
        """Whether the round ended with unserved demand (fault path only)."""
        return self.resilience is not None and self.resilience.degraded

    @property
    def social_cost(self) -> float:
        """Round social cost at *original* prices ``Σ Jᵗᵢⱼ xᵗᵢⱼ``."""
        return float(
            sum(
                self.original_bids[w.bid.key].price
                for w in self.outcome.winners
            )
        )

    @property
    def total_payment(self) -> float:
        """Round payments (computed by SSAM on the scaled prices)."""
        return self.outcome.total_payment

    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via :meth:`from_dict`).

        The ``resilience`` key is emitted only when the round actually saw
        fault activity — fault-free rounds serialize byte-identically to
        rounds produced before :mod:`repro.faults` existed, which is how
        the null-plan guard tests can compare files directly.
        """
        data = {
            "round_index": self.round_index,
            "outcome": self.outcome.to_dict(),
            "original_bids": [
                bid.to_dict() for _, bid in sorted(self.original_bids.items())
            ],
            "scaled_prices": {
                _key_str(key): price
                for key, price in sorted(self.scaled_prices.items())
            },
            "psi_after": {str(s): psi for s, psi in self.psi_after.items()},
            "capacity_used": {
                str(s): used for s, used in self.capacity_used.items()
            },
        }
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        return data

    @staticmethod
    def from_dict(data: Mapping) -> "RoundResult":
        """Rebuild a round result from its :meth:`to_dict` form."""
        original = [Bid.from_dict(item) for item in data["original_bids"]]
        resilience = None
        if data.get("resilience") is not None:
            from repro.faults.report import RoundResilience

            resilience = RoundResilience.from_dict(data["resilience"])
        return RoundResult(
            round_index=int(data["round_index"]),
            outcome=AuctionOutcome.from_dict(data["outcome"]),
            original_bids={bid.key: bid for bid in original},
            scaled_prices={
                _key_from_str(key): float(price)
                for key, price in data["scaled_prices"].items()
            },
            psi_after={int(s): float(p) for s, p in data["psi_after"].items()},
            capacity_used={
                int(s): int(u) for s, u in data["capacity_used"].items()
            },
            resilience=resilience,
        )


@dataclass(frozen=True)
class OnlineOutcome:
    """The aggregate result of a full MSOA horizon."""

    rounds: tuple[RoundResult, ...]
    capacities: Mapping[int, int]
    alpha: float
    beta: float
    competitive_bound: float
    mechanism: str = "msoa"

    @property
    def social_cost(self) -> float:
        """Long-run social cost ``Σ_t Σ Jᵗᵢⱼ xᵗᵢⱼ`` (the paper's objective 7)."""
        return float(sum(r.social_cost for r in self.rounds))

    @property
    def total_payment(self) -> float:
        """Long-run payments across all rounds."""
        return float(sum(r.total_payment for r in self.rounds))

    @property
    def capacity_used(self) -> dict[int, int]:
        """Final cumulative coverage units consumed per seller (``χᵢ``)."""
        if not self.rounds:
            return {}
        return dict(self.rounds[-1].capacity_used)

    @property
    def winners_per_round(self) -> list[int]:
        """Number of accepted bids in each round."""
        return [len(r.outcome.winners) for r in self.rounds]

    @property
    def degraded_rounds(self) -> list[int]:
        """Indices of rounds that ended with unserved demand (fault runs)."""
        return [r.round_index for r in self.rounds if r.degraded]

    @property
    def uncovered_units(self) -> int:
        """Total demand units the horizon left unserved (0 when fault-free)."""
        return sum(
            r.resilience.uncovered_units
            for r in self.rounds
            if r.resilience is not None
        )

    @property
    def fault_events(self) -> int:
        """Total faults injected across the horizon (0 when fault-free)."""
        return sum(
            len(r.resilience.events)
            for r in self.rounds
            if r.resilience is not None
        )

    def verify_capacities(self) -> None:
        """Assert no seller exceeded its long-run capacity ``Θᵢ``."""
        for seller, used in self.capacity_used.items():
            capacity = self.capacities.get(seller)
            if capacity is not None and used > capacity:
                raise MechanismError(
                    f"seller {seller} used {used} units, exceeding capacity "
                    f"{capacity}"
                )

    def to_dict(self) -> dict:
        """One JSON-compatible schema for every outcome consumer.

        The online counterpart of :meth:`AuctionOutcome.to_dict`; note
        ``beta`` may be infinite (an unconstrained horizon), which the
        JSON writer emits as ``Infinity`` and :meth:`from_dict` reads
        back losslessly.
        """
        return {
            "kind": "online",
            "schema_version": OUTCOME_SCHEMA_VERSION,
            "mechanism": self.mechanism,
            "rounds": [r.to_dict() for r in self.rounds],
            "capacities": {str(s): cap for s, cap in self.capacities.items()},
            "alpha": self.alpha,
            "beta": self.beta,
            "competitive_bound": self.competitive_bound,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "OnlineOutcome":
        """Rebuild an online outcome from its :meth:`to_dict` form."""
        _check_schema(data, "online")
        return OnlineOutcome(
            rounds=tuple(RoundResult.from_dict(r) for r in data["rounds"]),
            capacities={int(s): int(c) for s, c in data["capacities"].items()},
            alpha=float(data["alpha"]),
            beta=float(data["beta"]),
            competitive_bound=float(data["competitive_bound"]),
            # Pre-tag files (schema 1 before the registry) were all MSOA.
            mechanism=str(data.get("mechanism", "msoa")),
        )


def _check_schema(data: Mapping, kind: str) -> None:
    found_kind = data.get("kind")
    if found_kind != kind:
        raise MechanismError(
            f"serialized outcome has kind {found_kind!r}, expected {kind!r}"
        )
    version = data.get("schema_version")
    if version != OUTCOME_SCHEMA_VERSION:
        raise MechanismError(
            f"unsupported outcome schema version {version!r} "
            f"(this build reads version {OUTCOME_SCHEMA_VERSION})"
        )
