"""Shared hypothesis strategies generating random auction instances.

Instances are built to be feasible by construction (mirroring the market
generator's repair): random bids are drawn, then each buyer's demand is
clamped to the number of distinct sellers whose *first* bid covers it.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.bids import Bid
from repro.core.wsp import WSPInstance

__all__ = [
    "wsp_instances",
    "single_bid_instances",
    "horizons",
    "sharded_horizons",
]


@st.composite
def wsp_instances(
    draw,
    max_sellers: int = 8,
    max_buyers: int = 4,
    max_bids_per_seller: int = 2,
    max_demand: int = 3,
    min_price: float = 1.0,
    max_price: float = 50.0,
    price_choices: tuple[float, ...] | None = None,
    min_sellers: int = 2,
    min_buyers: int = 1,
    max_covered: int | None = None,
):
    """A feasible random WSP instance.

    ``price_choices`` draws every price from that small set instead of
    the continuous ``[min_price, max_price]`` range, so selection-key
    ties (equal ratios, equal prices) become common.  ``max_covered``
    caps a bid's coverage set (default: every buyer), so narrow markets
    need many winners.
    """
    price_strategy = (
        st.floats(min_price, max_price, allow_nan=False, allow_infinity=False)
        if price_choices is None
        else st.sampled_from(price_choices)
    )
    n_sellers = draw(st.integers(min_sellers, max_sellers))
    n_buyers = draw(st.integers(min_buyers, max_buyers))
    buyers = list(range(n_buyers))
    sellers = list(range(100, 100 + n_sellers))
    bids = []
    bid0_cover: dict[int, set[int]] = {b: set() for b in buyers}
    for seller in sellers:
        n_bids = draw(st.integers(1, max_bids_per_seller))
        for index in range(n_bids):
            covered = draw(
                st.sets(
                    st.sampled_from(buyers),
                    min_size=1,
                    max_size=min(n_buyers, max_covered or n_buyers),
                )
            )
            price = draw(price_strategy)
            bids.append(
                Bid(
                    seller=seller,
                    index=index,
                    covered=frozenset(covered),
                    price=price,
                )
            )
            if index == 0:
                for buyer in covered:
                    bid0_cover[buyer].add(seller)
    # Buyers with no bid-0 coverage keep zero demand (they are named by
    # some bids, so they must stay in the demand map for validation).
    demand = {buyer: 0 for buyer in buyers}
    for buyer in buyers:
        available = len(bid0_cover[buyer])
        if available > 0:
            demand[buyer] = draw(st.integers(1, min(max_demand, available)))
    if all(units == 0 for units in demand.values()):
        # Guarantee at least one unit of demand somewhere coverable.
        buyer = buyers[0]
        bids.append(
            Bid(
                seller=sellers[0],
                index=max_bids_per_seller,
                covered=frozenset({buyer}),
                price=draw(st.floats(min_price, max_price)),
            )
        )
        demand[buyer] = 1
    return WSPInstance.from_bids(bids, demand, price_ceiling=max_price * 2)


def single_bid_instances(**kwargs):
    """Instances where every seller submits exactly one bid (J = 1).

    This is the "typical scenario" of Theorem 3 for which the classical
    H(n) approximation and exact Myerson truthfulness hold without the
    multi-minded caveats.
    """
    kwargs.setdefault("max_bids_per_seller", 1)
    return wsp_instances(**kwargs)


@st.composite
def horizons(
    draw,
    max_rounds: int = 4,
    *,
    max_sellers: int = 6,
    max_buyers: int = 3,
    max_demand: int = 2,
):
    """A short online horizon over one instance family + ample capacities.

    Capacities are drawn generously (each seller can win most rounds) so
    the offline problem is feasible by construction; tighter-capacity
    behaviour is exercised by the unit tests.
    """
    rounds = [
        draw(
            wsp_instances(
                max_sellers=max_sellers,
                max_buyers=max_buyers,
                max_demand=max_demand,
            )
        )
        for _ in range(draw(st.integers(1, max_rounds)))
    ]
    sellers = {bid.seller for instance in rounds for bid in instance.bids}
    max_size = max(
        (bid.size for instance in rounds for bid in instance.bids), default=1
    )
    capacities = {
        seller: draw(
            st.integers(max_size * len(rounds), max_size * len(rounds) + 10)
        )
        for seller in sellers
    }
    return rounds, capacities


@st.composite
def sharded_horizons(draw, max_rounds: int = 3, max_shards: int = 4):
    """A :func:`horizons` draw labelled with a shard count.

    The shard equivalence suite feeds these to
    :func:`repro.shard.run_sharded_msoa`: one shard must be bit-identical
    to unsharded MSOA, and any count must preserve the ψ/χ invariants.
    """
    rounds, capacities = draw(horizons(max_rounds=max_rounds))
    n_shards = draw(st.integers(1, max_shards))
    return rounds, capacities, n_shards
