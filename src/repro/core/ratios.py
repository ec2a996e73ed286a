"""Approximation- and competitive-ratio arithmetic (Theorems 3 and 7).

The paper bounds SSAM's approximation ratio by ``π = W·Ξ`` where ``W`` is a
harmonic number over the demand units and ``Ξ`` the price-spread factor
across a seller's alternative bids, and bounds MSOA's competitive ratio by
``αβ/(β−1)`` where ``α`` is the single-stage ratio and
``β = min Θᵢ/|Sᵗᵢⱼ|`` the capacity-to-bid-size margin.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from repro.core.bids import Bid, group_bids_by_seller
from repro.errors import ConfigurationError

__all__ = [
    "harmonic",
    "price_spread",
    "ssam_ratio_bound",
    "capacity_margin",
    "msoa_competitive_bound",
]


def harmonic(n: int) -> float:
    """The n-th harmonic number ``H(n) = Σ_{k=1..n} 1/k`` (``W`` in the paper).

    ``H(0)`` is defined as 0 so empty instances get a vacuous bound.
    """
    if n < 0:
        raise ConfigurationError(f"harmonic number needs n >= 0, got {n}")
    if n > 10_000:
        # Asymptotic expansion: accurate to ~1e-10 at this size and O(1).
        gamma = 0.5772156649015329
        return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)
    return sum(1.0 / k for k in range(1, n + 1))


def price_spread(bids: Iterable[Bid]) -> float:
    """``Ξ`` — the worst max/min price spread across any seller's own bids.

    A seller submitting a single bid contributes spread 1; the factor only
    exceeds 1 when some seller submits multiple alternative bids at
    different prices (the case Theorem 3 pays for with Ξ).  Zero-priced
    bids make the spread unbounded; we treat a zero minimum with a positive
    maximum as spread ``inf`` (the bound degenerates, matching the theory).
    """
    spread = 1.0
    for seller_bids in group_bids_by_seller(bids).values():
        prices = [bid.price for bid in seller_bids]
        top, bottom = max(prices), min(prices)
        if top == 0:
            continue
        seller_spread = math.inf if bottom == 0 else top / bottom
        spread = max(spread, seller_spread)
    return spread


def ssam_ratio_bound(total_demand_units: int, bids: Iterable[Bid]) -> float:
    """Theorem 3's bound ``π = W·Ξ`` for a single-stage instance.

    ``W = H(total demand units)`` and ``Ξ`` is :func:`price_spread`.  With
    one bid per seller the bound reduces to the harmonic number alone, the
    "typical scenario" the paper highlights.
    """
    return harmonic(max(1, total_demand_units)) * price_spread(bids)


def capacity_margin(
    capacities: Mapping[int, int], bids: Iterable[Bid]
) -> float:
    """``β = min over bids of Θᵢ / |Sᵗᵢⱼ|`` (Lemma 4).

    Bids from sellers without a declared capacity are skipped (they are
    unconstrained, i.e. their margin is infinite).  Returns ``inf`` when no
    bid is capacity-constrained.
    """
    beta = math.inf
    for bid in bids:
        capacity = capacities.get(bid.seller)
        if capacity is None:
            continue
        beta = min(beta, capacity / bid.size)
    return beta


def msoa_competitive_bound(alpha: float, beta: float) -> float:
    """Theorem 7's competitive ratio ``αβ/(β−1)``.

    Requires ``β > 1`` — a seller whose capacity equals its bid size can be
    fully depleted by a single win, and the multiplicative-update argument
    gives no finite guarantee there; we return ``inf`` in that case rather
    than raising, because empirical runs are still meaningful.  ``β = ∞``
    (no admitted bid is capacity-bound) gives the limit ``α``, not the
    ``inf/inf`` of the formula.
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if beta <= 1:
        return math.inf
    if math.isinf(beta):
        return alpha
    return alpha * beta / (beta - 1.0)
