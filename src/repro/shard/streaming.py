"""Streamed round generation: bounded-memory markets at 10^6-unit scale.

:func:`stream_rounds` is a *lazy, region-structured market generator*.
Each round is synthesized vectorized (numpy draws, no per-bid Python
RNG calls) and yielded one at a time, so a horizon totalling millions
of demand units never materializes more than one round of bids.
Regions map one-to-one onto shards via :func:`region_plan`, and a
configurable fraction of sellers place *cross-region* bids — exactly
the bids the reconciliation pass exists for.

Long streamed runs pair naturally with the bounded tracer modes
(``--trace-limit``/``--trace-sample``): tracing stays O(limit), not
O(rounds).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.bids import Bid
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError
from repro.shard.plan import RegionShardPlan

__all__ = [
    "StreamConfig",
    "stream_rounds",
    "stream_capacities",
    "region_plan",
]

_SELLER_BASE = 1_000_000  # seller ids live far above buyer ids


@dataclass(frozen=True)
class StreamConfig:
    """Shape of a region-structured streamed market.

    ``rounds × regions × buyers_per_region × mean(demand_range)`` is the
    horizon's total demand-unit volume — size these to hit a target
    scale (the 10^6-unit bench case uses 1000 × 16 × 25 × 2.5).  Many
    small rounds beat few huge ones: per-round clearing cost grows
    superlinearly in winners per shard, so for a fixed unit volume the
    cheapest shape minimizes demand per shard-round.
    """

    rounds: int = 20
    regions: int = 4
    buyers_per_region: int = 25
    sellers_per_region: int = 60
    demand_range: tuple[int, int] = (1, 3)
    coverage_range: tuple[int, int] = (1, 3)
    price_range: tuple[float, float] = (10.0, 35.0)
    price_ceiling: float = 50.0
    cross_region_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.regions < 1:
            raise ConfigurationError("rounds and regions must be positive")
        if self.buyers_per_region < 1 or self.sellers_per_region < 1:
            raise ConfigurationError(
                "buyers_per_region and sellers_per_region must be positive"
            )
        low, high = self.demand_range
        if not 1 <= low <= high:
            raise ConfigurationError(
                f"invalid demand_range {self.demand_range}"
            )
        if self.sellers_per_region < high:
            raise ConfigurationError(
                "each region needs at least max-demand sellers to be "
                "locally feasible"
            )
        c_low, c_high = self.coverage_range
        if not 1 <= c_low <= c_high <= self.buyers_per_region:
            raise ConfigurationError(
                f"invalid coverage_range {self.coverage_range}"
            )
        p_low, p_high = self.price_range
        if not 0 < p_low <= p_high <= self.price_ceiling:
            raise ConfigurationError(
                "price_range must be positive and below the ceiling"
            )
        if not 0.0 <= self.cross_region_fraction <= 1.0:
            raise ConfigurationError(
                "cross_region_fraction must be within [0, 1]"
            )

    @property
    def n_buyers(self) -> int:
        return self.regions * self.buyers_per_region

    @property
    def n_sellers(self) -> int:
        return self.regions * self.sellers_per_region

    @property
    def expected_demand_units(self) -> int:
        """Expected horizon demand volume (for scale-case sizing)."""
        low, high = self.demand_range
        return round(self.rounds * self.n_buyers * (low + high) / 2)

    def buyer_region(self, buyer: int) -> int:
        return int(buyer) // self.buyers_per_region

    def region_map(self) -> dict[int, int]:
        return {b: self.buyer_region(b) for b in range(self.n_buyers)}


def region_plan(config: StreamConfig, n_shards: int | None = None) -> RegionShardPlan:
    """The matching shard plan: one region per shard (or folded onto
    ``n_shards`` round-robin)."""
    return RegionShardPlan(
        regions=config.region_map(),
        n_shards=n_shards if n_shards is not None else config.regions,
    )


def stream_capacities(config: StreamConfig) -> dict[int, int]:
    """Long-run share capacities Θᵢ: ample but finite, so ψ scarcity
    pricing engages without starving the horizon."""
    per_round = config.coverage_range[1] + 1
    return {
        _SELLER_BASE + s: config.rounds * per_round
        for s in range(config.n_sellers)
    }


def _round_instance(
    config: StreamConfig, rng: np.random.Generator
) -> WSPInstance:
    """Synthesize one round, vectorized, feasible per region by repair."""
    bpr = config.buyers_per_region
    spr = config.sellers_per_region
    d_low, d_high = config.demand_range
    c_low, c_high = config.coverage_range
    p_low, p_high = config.price_range
    demand_units = rng.integers(
        d_low, d_high + 1, size=config.n_buyers, dtype=np.int64
    )
    bids: list[Bid] = []
    for region in range(config.regions):
        buyers0 = region * bpr
        # Each region seller offers one bid over k in-region buyers:
        # rank a random matrix per row and take the first k columns.
        ks = rng.integers(c_low, c_high + 1, size=spr)
        order = np.argsort(rng.random((spr, bpr)), axis=1)
        cover = np.zeros((spr, bpr), dtype=bool)
        for k in range(c_low, c_high + 1):
            rows = np.flatnonzero(ks == k)
            if rows.size:
                cover[rows[:, None], order[rows, :k]] = True
        crossing = (
            rng.random(spr) < config.cross_region_fraction
            if config.regions > 1
            else np.zeros(spr, dtype=bool)
        )
        # Feasibility repair: every buyer needs >= demand distinct
        # covering sellers (one bid per seller here).  Crossing sellers
        # don't count — their bids span two shards, so the sharded local
        # pass cannot use them; repairing against non-crossing sellers
        # keeps every shard-local sub-market feasible on its own.
        counts = (cover & ~crossing[:, None]).sum(axis=0)
        need = demand_units[buyers0 : buyers0 + bpr]
        for col in np.flatnonzero(counts < need):
            free = np.flatnonzero(~cover[:, col] & ~crossing)
            take = rng.permutation(free)[: int(need[col] - counts[col])]
            cover[take, col] = True
        prices = rng.uniform(p_low, p_high, size=spr)
        next_region = (region + 1) % config.regions
        extra = rng.integers(0, bpr, size=spr)
        rows_cov, cols_cov = np.nonzero(cover)
        split = np.searchsorted(rows_cov, np.arange(spr + 1))
        for s in range(spr):
            covered = {
                int(buyers0 + c) for c in cols_cov[split[s] : split[s + 1]]
            }
            if crossing[s]:
                covered.add(int(next_region * bpr + extra[s]))
            price = float(prices[s])
            bids.append(
                Bid(
                    seller=_SELLER_BASE + region * spr + s,
                    index=0,
                    covered=frozenset(covered),
                    price=price,
                    true_cost=price,
                )
            )
    demand = {b: int(u) for b, u in enumerate(demand_units)}
    return WSPInstance(
        bids=tuple(bids),
        demand=demand,
        price_ceiling=config.price_ceiling,
    )


def stream_rounds(
    config: StreamConfig, rng: np.random.Generator
) -> Iterator[WSPInstance]:
    """Yield the horizon's rounds lazily — one round resident at a time."""
    for _ in range(config.rounds):
        yield _round_instance(config, rng)
