"""Shard plans: deterministic geographic partitions of the buyer set.

Sharding decomposes one round's winner-selection problem into per-shard
sub-markets that clear independently (see :mod:`repro.shard.ssam`).  A
:class:`ShardPlan` decides, for every buyer (edge cloudlet), which shard
it lives in; a bid is *local* to a shard when every positively-demanded
buyer it covers lives there, and *cross-shard* otherwise.

All plans are deterministic functions of their inputs — no process
randomness — so a sharded run is replayable and the equivalence suite
(``tests/properties/test_shard_equivalence.py``) can compare it
bit-for-bit against unsharded clearing.

Three strategies ship:

* :class:`HashShardPlan` — a stateless multiplicative-hash spread; the
  default, needs no market knowledge.
* :class:`RegionShardPlan` — an explicit buyer→region labelling (the
  "one edge platform per region" deployment of the north star); regions
  map onto shards round-robin in sorted label order.
* :class:`LocalityShardPlan` — adaptive: connected components of the
  buyer co-coverage graph (buyers sharing any bid) are kept whole and
  bin-packed onto shards by demand load, minimizing cross-shard bids.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bids import Bid
from repro.core.outcomes import BidRows, ScaledBids
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError
from repro.obs.profiler import profiled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnarInstance

__all__ = [
    "ShardPlan",
    "HashShardPlan",
    "RegionShardPlan",
    "LocalityShardPlan",
    "make_plan",
    "partition_round",
    "ShardPartition",
]

_MIX_MULTIPLIER = 0x9E3779B97F4A7C15  # 2^64 / golden ratio (splitmix64)
_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    """Deterministic 64-bit integer mix (never Python's salted ``hash``)."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def _validate_shards(n_shards: int) -> None:
    if n_shards < 1:
        raise ConfigurationError(
            f"n_shards must be a positive integer, got {n_shards}"
        )


class ShardPlan:
    """Base contract: a deterministic buyer → shard assignment.

    Static plans implement :meth:`shard_of` directly; adaptive plans
    (locality) override :meth:`for_round` to bind themselves to a
    round's instance first.  ``partition_round`` always calls
    ``plan.for_round(instance)`` before asking for assignments.
    """

    n_shards: int

    def shard_of(self, buyer: int) -> int:
        raise NotImplementedError

    def for_round(self, instance: WSPInstance) -> "ShardPlan":
        """Bind the plan to one round's market (default: already bound)."""
        return self


@dataclass(frozen=True)
class HashShardPlan(ShardPlan):
    """Spread buyers over shards by a deterministic multiplicative hash."""

    n_shards: int

    def __post_init__(self) -> None:
        _validate_shards(self.n_shards)

    def shard_of(self, buyer: int) -> int:
        return _mix(int(buyer) * _MIX_MULTIPLIER & _MASK64) % self.n_shards


@dataclass(frozen=True)
class RegionShardPlan(ShardPlan):
    """Shard by an explicit buyer → region labelling.

    Distinct region labels are sorted and mapped onto shards
    round-robin, so co-located buyers always share a shard and the
    label→shard mapping is independent of dict insertion order.  Buyers
    missing from the map fall back to the hash spread.
    """

    regions: Mapping[int, object]
    n_shards: int

    _shard_by_label: Mapping[object, int] = field(
        init=False, repr=False, compare=False, default=None
    )
    _fallback: HashShardPlan = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        _validate_shards(self.n_shards)
        labels = sorted(set(self.regions.values()), key=repr)
        object.__setattr__(
            self,
            "_shard_by_label",
            {label: i % self.n_shards for i, label in enumerate(labels)},
        )
        object.__setattr__(self, "_fallback", HashShardPlan(self.n_shards))

    def shard_of(self, buyer: int) -> int:
        label = self.regions.get(int(buyer))
        if label is None:
            return self._fallback.shard_of(buyer)
        return self._shard_by_label[label]


@dataclass(frozen=True)
class LocalityShardPlan(ShardPlan):
    """Keep co-covered buyers together; balance components by demand.

    Unbound (``assignment=None``) the plan is a *strategy*:
    :meth:`for_round` computes the connected components of the buyer
    co-coverage graph (buyers linked when one bid covers both), orders
    them deterministically (descending demand load, then smallest
    buyer), and assigns each to the currently least-loaded shard.  When
    every bid's cover set is a single component this yields zero
    cross-shard bids.
    """

    n_shards: int
    assignment: Mapping[int, int] | None = None

    _fallback: HashShardPlan = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        _validate_shards(self.n_shards)
        object.__setattr__(self, "_fallback", HashShardPlan(self.n_shards))

    def shard_of(self, buyer: int) -> int:
        if self.assignment is None:
            raise ConfigurationError(
                "LocalityShardPlan is unbound; call for_round(instance) "
                "(partition_round does this automatically)"
            )
        shard = self.assignment.get(int(buyer))
        if shard is None:
            return self._fallback.shard_of(buyer)
        return shard

    def for_round(self, instance: WSPInstance) -> "LocalityShardPlan":
        if self.assignment is not None:
            return self
        return LocalityShardPlan(
            n_shards=self.n_shards,
            assignment=self._components_assignment(
                instance.bids, instance.demand
            ),
        )

    @classmethod
    def from_bids(
        cls,
        bids: Sequence[Bid],
        demand: Mapping[int, int],
        n_shards: int,
    ) -> "LocalityShardPlan":
        """Bind a plan directly from a bid list and demand map."""
        plan = cls(n_shards=n_shards)
        return LocalityShardPlan(
            n_shards=n_shards,
            assignment=plan._components_assignment(bids, demand),
        )

    def _components_assignment(
        self, bids: Sequence[Bid], demand: Mapping[int, int]
    ) -> dict[int, int]:
        positive = sorted(b for b, u in demand.items() if u > 0)
        parent = {b: b for b in positive}

        def find(b: int) -> int:
            root = b
            while parent[root] != root:
                root = parent[root]
            while parent[b] != root:
                parent[b], b = root, parent[b]
            return root

        for bid in bids:
            touched = [b for b in bid.covered if b in parent]
            for other in touched[1:]:
                ra, rb = find(touched[0]), find(other)
                if ra != rb:
                    # Deterministic union: smaller buyer id wins as root.
                    if rb < ra:
                        ra, rb = rb, ra
                    parent[rb] = ra
        components: dict[int, list[int]] = {}
        for b in positive:
            components.setdefault(find(b), []).append(b)
        ordered = sorted(
            components.values(),
            key=lambda members: (
                -sum(demand[b] for b in members),
                members[0],
            ),
        )
        loads = [0] * self.n_shards
        assignment: dict[int, int] = {}
        for members in ordered:
            shard = min(range(self.n_shards), key=lambda s: (loads[s], s))
            loads[shard] += sum(demand[b] for b in members)
            for b in members:
                assignment[b] = shard
        return assignment


_STRATEGIES = ("hash", "region", "locality")


def make_plan(
    strategy: str,
    n_shards: int,
    *,
    regions: Mapping[int, object] | None = None,
) -> ShardPlan:
    """Build a plan from a CLI/config-level strategy name."""
    if strategy not in _STRATEGIES:
        raise ConfigurationError(
            f"shard strategy must be one of {_STRATEGIES}, got {strategy!r}"
        )
    if strategy == "hash":
        return HashShardPlan(n_shards)
    if strategy == "region":
        if regions is None:
            raise ConfigurationError(
                "shard strategy 'region' needs a buyer→region mapping"
            )
        return RegionShardPlan(regions=dict(regions), n_shards=n_shards)
    return LocalityShardPlan(n_shards=n_shards)


@dataclass(frozen=True)
class ShardPartition:
    """One round's deterministic decomposition under a bound plan.

    Attributes
    ----------
    plan:
        The bound plan that produced the partition.
    shard_demand:
        Per shard, the positive-demand restriction ``{buyer: units}`` in
        the parent demand map's key order.
    local_bids / local_rows:
        Per shard, the bids whose positively-demanded cover lives wholly
        in that shard (original bid order; a lazy
        :class:`~repro.core.outcomes.BidRows` view) and their row
        indices into ``instance.bids``.  Bids covering no positive
        demand (inert: they can never be selected) are assigned to the
        shard of their smallest covered buyer.
    cross_bids / cross_rows:
        Bids whose positively-demanded cover spans ≥ 2 shards, cleared
        in the reconciliation pass.
    price_ceiling:
        The parent's *effective* ceiling, pinned so every sub-market
        prices pivotal winners against the same public ceiling the
        unsharded run would use.
    """

    plan: ShardPlan
    shard_demand: tuple[Mapping[int, int], ...]
    local_bids: tuple[Sequence[Bid], ...]
    local_rows: tuple[tuple[int, ...], ...]
    cross_bids: tuple[Bid, ...]
    cross_rows: tuple[int, ...]
    price_ceiling: float | None

    @property
    def n_shards(self) -> int:
        return len(self.shard_demand)

    @property
    def active_shards(self) -> tuple[int, ...]:
        """Shards holding any positive demand."""
        return tuple(
            s for s, demand in enumerate(self.shard_demand) if demand
        )

    def sub_instance(self, shard: int) -> WSPInstance:
        """The shard's local sub-market (validation-free construction:
        local bids may cover zero-demand buyers outside the shard)."""
        return WSPInstance(
            bids=self.local_bids[shard],
            demand=dict(self.shard_demand[shard]),
            price_ceiling=self.price_ceiling,
        )


@profiled("shard.partition")
def partition_round(
    instance: WSPInstance,
    plan: ShardPlan,
    *,
    layout: "ColumnarInstance | None" = None,
) -> ShardPartition:
    """Decompose one round's instance under ``plan`` (bound per round).

    The bids are classified from ``layout``, the round's columnar
    layout over its positive demand (``ColumnarInstance.build(
    instance.bids, positive demand)``, built here when omitted): its
    cover matrix gives the shards a bid touches, its seller rows the
    sellers live in two shards, and its price column the effective
    ceiling.  So a :class:`~repro.core.outcomes.ScaledBids` round
    builds a scaled :class:`Bid` only for its cross-shard bids; each
    shard's ``local_bids`` is a lazy view of ``instance.bids``.
    """
    plan = plan.for_round(instance)
    n_shards = plan.n_shards
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    if layout is None:
        from repro.core.columnar import ColumnarInstance

        layout = ColumnarInstance.build(instance.bids, demand)
    elif layout.buyers != list(demand):
        raise ValueError("partition_round: layout is not over the positive demand")
    shard_of_col = np.array(
        [plan.shard_of(b) for b in layout.buyers], dtype=np.int64
    )
    shard_demand: list[dict[int, int]] = [{} for _ in range(n_shards)]
    for buyer, shard in zip(layout.buyers, shard_of_col.tolist()):
        shard_demand[shard][buyer] = demand[buyer]
    # Pass 1: the least and greatest shard each bid's positive cover
    # touches (its CSR entries are grouped by row).
    n = layout.n_bids
    touched = shard_of_col[layout.cover_cols]
    live = np.diff(layout.cover_indptr) > 0
    first = layout.cover_indptr[:-1][live]
    shard = np.zeros(n, dtype=np.int64)
    cross = np.zeros(n, dtype=bool)
    if first.size:
        shard[live] = np.minimum.reduceat(touched, first)
        cross[live] = np.maximum.reduceat(touched, first) != shard[live]
    # Inert bids (no positive cover) can never be selected: park each
    # on the shard of its smallest covered buyer.
    inert = (~live).nonzero()[0].tolist()
    if inert:
        bids = instance.bids
        shapes = bids.announced() if isinstance(bids, ScaledBids) else bids
        for row in inert:
            covered = shapes[row].covered
            shard[row] = plan.shard_of(min(covered)) if covered else 0
    # Pass 2: a seller with live local bids in two different shards could
    # win once per shard under independent clearing, violating SSAM's
    # one-bid-per-seller rule.  Its live bids are seller-coupled even
    # though each is single-shard, so they all move to reconciliation.
    local = live & ~cross
    sellers = layout.sellers.size
    low = np.full(sellers, n_shards, dtype=np.int64)
    high = np.full(sellers, -1, dtype=np.int64)
    np.minimum.at(low, layout.seller_rows[local], shard[local])
    np.maximum.at(high, layout.seller_rows[local], shard[local])
    coupled = (low < high)[layout.seller_rows]
    cross |= live & coupled
    cross_rows = cross.nonzero()[0]
    kept = (~cross).nonzero()[0]
    order = np.argsort(shard[kept], kind="stable")
    ends = np.cumsum(np.bincount(shard[kept], minlength=n_shards)).tolist()
    local_rows = [kept[order[a:b]].tolist() for a, b in zip([0, *ends], ends)]
    ceiling = instance.price_ceiling
    if ceiling is None and n:
        ceiling = float(layout.prices.max())
    return ShardPartition(
        plan=plan,
        shard_demand=tuple(shard_demand),
        local_bids=tuple(BidRows(instance.bids, rows) for rows in local_rows),
        local_rows=tuple(map(tuple, local_rows)),
        cross_bids=tuple(instance.bids[row] for row in cross_rows.tolist()),
        cross_rows=tuple(cross_rows.tolist()),
        price_ceiling=ceiling,
    )
