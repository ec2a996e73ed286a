"""Sharded single-round clearing: per-shard SSAM + deterministic reconciliation.

One round's market is decomposed by a :class:`~repro.shard.plan.ShardPlan`
(:func:`~repro.shard.plan.partition_round`) and cleared in two passes:

1. **Local pass** — every shard with positive demand runs SSAM's
   selection on its sub-market; one critical-payment batch then prices
   every shard's winners together, and each shard's outcome is
   assembled as :func:`~repro.core.ssam.run_ssam` would.  On the
   columnar engine the round stays columnar: one layout of the round
   (:meth:`~repro.core.columnar.ColumnarInstance.build`, which reads
   MSOA's scaled bids as columns) feeds the partition, each shard's
   layout is a row subset of it, all shards select in lockstep (one
   step takes every unfinished shard's head), and the payment kernel
   advances all shards' replays in one lockstep batch — so a round
   builds a scaled :class:`~repro.core.bids.Bid` only for its winners
   and its cross-shard bids.  The reference engine selects shard by
   shard, in shard order.  A locally infeasible shard (its buyers need
   cross-shard supply) clamps demand to what its own bids can cover and
   clears on its own — the remainder becomes *residual*.
2. **Reconciliation pass** — cross-shard bids (cover spanning shards, or
   seller-coupled across shards) are cleared against the merged residual
   demand, excluding sellers that already won locally, so the global
   one-bid-per-seller rule survives the decomposition.

Merging is deterministic: winners are concatenated in shard order, then
reconciliation order, with iterations renumbered sequentially; dual unit
tags merge the same way.  When the whole market lands in one shard the
runner short-circuits to a single ``run_ssam`` call on the *original*
instance — which makes "1 shard ≡ unsharded" a structural identity, not
a numerical coincidence (``tests/properties/test_shard_equivalence.py``
still certifies it bit-for-bit).

Known semantic trade-off, by design: the two-pass decomposition is not
feasibility-complete.  A market that is globally feasible only through a
joint local+cross allocation can come up short after reconciliation; the
runner then raises :class:`~repro.errors.InfeasibleInstanceError` exactly
like an unsharded infeasible round, deferring to MSOA's ``on_infeasible``
policy.  See ``docs/scaling.md``.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.duals import DualSolution
from repro.core.outcomes import AuctionOutcome, WinningBid
from repro.core.ssam import (
    PaymentRule,
    _assemble,
    _auction_span,
    _pay,
    _ratio_bound,
    _select,
    _Selection,
    run_ssam,
)
from repro.core.wsp import WSPInstance, clear_supply_clamped
from repro.errors import InfeasibleInstanceError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS
from repro.shard.plan import ShardPartition, ShardPlan, partition_round

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnarInstance

__all__ = [
    "ShardRoundStats",
    "ShardedRoundOutcome",
    "run_sharded_ssam",
]


@dataclass(frozen=True)
class ShardRoundStats:
    """Observability summary of one sharded round.

    ``shard_ms`` holds each active shard's own work, in shard order: its
    share of the selection, plus its outcome assembly, or its whole
    clearing when it clamps.  On the columnar engine the shards select
    in lockstep calls, and each call's time is shared out in proportion
    to the steps each shard took in it (evenly when no shard
    completes); on the reference engine a shard's selection is its
    own.  The payment batch the unclamped shards share is timed by the
    ``ssam.payments`` phase, not here.
    """

    n_shards: int
    active_shards: int
    local_bids: int
    cross_bids: int
    local_winners: int
    cross_winners: int
    clamped_shards: int
    fast_path: bool
    shard_ms: tuple[float, ...]
    reconcile_ms: float

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "active_shards": self.active_shards,
            "local_bids": self.local_bids,
            "cross_bids": self.cross_bids,
            "local_winners": self.local_winners,
            "cross_winners": self.cross_winners,
            "clamped_shards": self.clamped_shards,
            "fast_path": self.fast_path,
            "shard_ms": list(self.shard_ms),
            "reconcile_ms": self.reconcile_ms,
        }


@dataclass(frozen=True)
class ShardedRoundOutcome:
    """A merged round outcome plus its per-shard provenance."""

    outcome: AuctionOutcome
    shard_outcomes: tuple[AuctionOutcome | None, ...]
    cross_outcome: AuctionOutcome | None
    partition: ShardPartition
    stats: ShardRoundStats


@profiled("shard.round")
def run_sharded_ssam(
    instance: WSPInstance,
    plan: ShardPlan,
    *,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    original_prices: Mapping[tuple[int, int], float] | None = None,
) -> ShardedRoundOutcome:
    """Clear one round through the sharded two-pass pipeline.

    Parameters mirror :func:`~repro.core.ssam.run_ssam`; ``plan`` picks
    the decomposition.
    """
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    layout = None
    if engine == "columnar":
        from repro.core.columnar import ColumnarInstance

        # The round's one layout: the partition reads its columns and
        # each shard's layout is a row subset of it.
        layout = ColumnarInstance.build(instance.bids, demand)
    partition = partition_round(instance, plan, layout=layout)
    active = partition.active_shards
    stats_common = {
        "n_shards": partition.n_shards,
        "active_shards": len(active),
        "local_bids": sum(len(b) for b in partition.local_bids),
        "cross_bids": len(partition.cross_bids),
    }
    if len(active) <= 1 and not partition.cross_bids:
        # Degenerate decomposition: the whole market lives in one shard.
        # Clear the ORIGINAL instance with plain run_ssam — the sharded
        # and unsharded paths are literally the same call here, which is
        # what the 1-shard ≡ unsharded bit-identity property pins down.
        started = time.perf_counter()
        outcome = run_ssam(
            instance,
            payment_rule=payment_rule,
            original_prices=original_prices,
            engine=engine,
            columnar=layout,
        )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        stats = ShardRoundStats(
            **stats_common,
            local_winners=len(outcome.winners),
            cross_winners=0,
            clamped_shards=0,
            fast_path=True,
            shard_ms=(elapsed_ms,),
            reconcile_ms=0.0,
        )
        _record_stats(stats)
        placed: list[AuctionOutcome | None] = [None] * partition.n_shards
        if active:
            placed[active[0]] = outcome
        return ShardedRoundOutcome(
            outcome=outcome,
            shard_outcomes=tuple(placed),
            cross_outcome=None,
            partition=partition,
            stats=stats,
        )

    tracer = _OBS.tracer
    # One span around the parts the merge joins (each shard's auction
    # in shard order, then the reconciliation's), so a trace summary
    # can rebuild the merged outcome.
    with tracer.span(
        "sharded-auction",
        mechanism="ssam",
        engine=engine,
        shards=len(active),
        demand={str(b): u for b, u in demand.items()},
    ) as merged_span:
        shard_outcomes: list[AuctionOutcome | None] = [None] * partition.n_shards
        selections, shard_ms = _select_locals(partition, layout)
        paid: dict[int, list[float]] = {}
        if selections:
            paid = dict(
                zip(
                    selections,
                    _pay(
                        list(selections.values()),
                        payment_rule,
                        engine=engine,
                        shards=len(selections),
                    ),
                )
            )
        clamped = 0
        # Outcomes in shard order: the trace holds the auctions in the
        # order the merge concatenates them.
        for shard in active:
            started = time.perf_counter()
            if shard in selections:
                selection = selections[shard]
                with _auction_span(
                    selection.instance,
                    selection.demand,
                    engine=engine,
                    payment_rule=payment_rule,
                ) as auction_span:
                    shard_outcomes[shard] = _assemble(
                        selection,
                        paid[shard],
                        payment_rule=payment_rule,
                        original_prices=original_prices,
                        auction_span=auction_span,
                    )
            else:
                # Locally infeasible: unmet demand becomes residual; the
                # clamped demand no longer matches the prebuilt layout, so
                # this clearing rebuilds.
                clamped += 1
                shard_outcomes[shard] = clear_supply_clamped(
                    partition.sub_instance(shard),
                    functools.partial(
                        run_ssam,
                        payment_rule=payment_rule,
                        original_prices=original_prices,
                        engine=engine,
                    ),
                )
            shard_ms[shard] += (time.perf_counter() - started) * 1e3

        # Residual demand after the local pass.
        granted: dict[int, int] = dict.fromkeys(demand, 0)
        local_winner_sellers: set[int] = set()
        local_winners = 0
        for outcome in shard_outcomes:
            if outcome is None:
                continue
            local_winners += len(outcome.winners)
            for winner in outcome.winners:
                local_winner_sellers.add(winner.bid.seller)
                for buyer in winner.bid.covered:
                    if buyer in granted:
                        granted[buyer] += 1
        residual = {
            b: u - granted[b] for b, u in demand.items() if u - granted[b] > 0
        }

        cross_outcome: AuctionOutcome | None = None
        reconcile_ms = 0.0
        if residual or partition.cross_bids:
            started = time.perf_counter()
            cross_outcome = _reconcile(
                partition,
                residual,
                local_winner_sellers,
                payment_rule=payment_rule,
                original_prices=original_prices,
                engine=engine,
            )
            reconcile_ms = (time.perf_counter() - started) * 1e3

        merged = _merge_outcomes(
            instance,
            [o for o in shard_outcomes if o is not None],
            cross_outcome,
            payment_rule=payment_rule,
            layout=layout,
        )
        stats = ShardRoundStats(
            **stats_common,
            local_winners=local_winners,
            cross_winners=(
                len(cross_outcome.winners) if cross_outcome is not None else 0
            ),
            clamped_shards=clamped,
            fast_path=False,
            shard_ms=tuple(shard_ms.values()),
            reconcile_ms=reconcile_ms,
        )
        _record_stats(stats)
        tracer.annotate(
            merged_span,
            social_cost=merged.social_cost,
            total_payment=merged.total_payment,
            iterations=merged.iterations,
            winners=len(merged.winners),
        )
        return ShardedRoundOutcome(
            outcome=merged,
            shard_outcomes=tuple(shard_outcomes),
            cross_outcome=cross_outcome,
            partition=partition,
            stats=stats,
        )


def _select_locals(
    partition: ShardPartition, layout: "ColumnarInstance | None"
) -> tuple[dict[int, _Selection], dict[int, float]]:
    """Run selection on every active shard.

    On the columnar engine (``layout`` is the round's layout) every
    shard selects on its row subset of it, all in lockstep: one
    :func:`~repro.core.columnar.columnar_greedy_selection` call, and one
    more under the exact guard for the shards whose cheap guard cannot
    complete.  Each shard's time is its share of those calls, in
    proportion to the steps it took (a pass no shard completes is
    shared evenly).  The reference engine selects shard by shard.

    Returns the selections of the shards that are locally feasible and
    each active shard's time so far; a locally infeasible shard has no
    selection (it clears clamped once payments are done).
    """
    selections: dict[int, _Selection] = {}
    shard_ms = dict.fromkeys(partition.active_shards, 0.0)
    subs = {shard: partition.sub_instance(shard) for shard in shard_ms}
    if layout is None:
        for shard, sub in subs.items():
            started = time.perf_counter()
            try:
                selections[shard] = _select(sub, dict(sub.demand), layout=None)
            except InfeasibleInstanceError:
                pass
            shard_ms[shard] = (time.perf_counter() - started) * 1e3
        return selections, shard_ms

    from repro.core.columnar import columnar_greedy_selection

    views = {
        shard: layout.subset(partition.local_rows[shard], list(sub.demand))
        for shard, sub in subs.items()
    }
    pending = list(subs)
    tracer = _OBS.tracer
    for exact_guard in (False, True):
        if not pending:
            break
        started = time.perf_counter()
        with tracer.span(
            "greedy-selection", shards=len(pending), exact_guard=exact_guard
        ) as span:
            runs = columnar_greedy_selection(
                layout.bids,
                layout.demand_map,
                exact_guard=exact_guard,
                columnar=layout,
                shards=[views[shard] for shard in pending],
            )
            failed = [s for s, run in zip(pending, runs) if run is None]
            tracer.annotate(
                span,
                iterations=sum(len(run) for run in runs if run is not None),
                infeasible=len(failed),
            )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        steps = [len(run) if run is not None else 0 for run in runs]
        total = sum(steps)
        for shard, run, count in zip(pending, runs, steps):
            shard_ms[shard] += (
                elapsed_ms * count / total if total else elapsed_ms / len(runs)
            )
            if run is not None:
                sub = subs[shard]
                selections[shard] = _Selection(
                    sub, dict(sub.demand), run, exact_guard, views[shard]
                )
        pending = failed
    return dict(sorted(selections.items())), shard_ms


@profiled("shard.reconcile")
def _reconcile(
    partition: ShardPartition,
    residual: dict[int, int],
    local_winner_sellers: set[int],
    *,
    payment_rule: PaymentRule,
    original_prices: Mapping | None,
    engine: str,
) -> AuctionOutcome | None:
    """The reconciliation pass: cross-shard bids of sellers that did not
    win locally, cleared against the residual demand."""
    eligible = tuple(
        bid
        for bid in partition.cross_bids
        if bid.seller not in local_winner_sellers
    )
    if residual:
        recon_instance = WSPInstance(
            bids=eligible,
            demand=residual,
            price_ceiling=partition.price_ceiling,
        )
        try:
            return run_ssam(
                recon_instance,
                payment_rule=payment_rule,
                original_prices=original_prices,
                engine=engine,
            )
        except InfeasibleInstanceError:
            raise InfeasibleInstanceError(
                "sharded reconciliation cannot cover "
                f"{sum(residual.values())} residual demand units "
                f"with {len(eligible)} eligible cross-shard bids"
            ) from None
    if eligible:
        # Nothing left to serve: cross-shard bids all lose.
        return run_ssam(
            WSPInstance(bids=eligible, demand={}, price_ceiling=None),
            payment_rule=payment_rule,
            engine=engine,
        )
    return None


def _merge_outcomes(
    instance: WSPInstance,
    shard_outcomes: list[AuctionOutcome],
    cross_outcome: AuctionOutcome | None,
    *,
    payment_rule: PaymentRule,
    layout,
) -> AuctionOutcome:
    """Deterministic merge: shard order, then reconciliation, with the
    greedy iteration counter renumbered sequentially; ``layout`` is the
    round's parent columnar layout (``None`` off the columnar engine)."""
    parts = list(shard_outcomes)
    if cross_outcome is not None:
        parts.append(cross_outcome)
    winners: list[WinningBid] = []
    duals = DualSolution(instance=instance)
    iteration = 0
    for part in parts:
        for winner in part.winners:
            winners.append(
                WinningBid(
                    bid=winner.bid,
                    payment=winner.payment,
                    iteration=iteration,
                    marginal_utility=winner.marginal_utility,
                    average_price=winner.average_price,
                    original_price=winner.original_price,
                )
            )
            iteration += 1
        for buyer, prices in part.duals.unit_prices.items():
            duals.unit_prices.setdefault(buyer, []).extend(prices)
    return AuctionOutcome(
        instance=instance,
        winners=tuple(winners),
        duals=duals,
        ratio_bound=_ratio_bound(instance, layout),
        payment_rule=payment_rule.value,
        iterations=iteration,
        mechanism="ssam",
    )


def _record_stats(stats: ShardRoundStats) -> None:
    if not _OBS.enabled:
        return
    metrics = _OBS.metrics
    metrics.counter("shard.rounds").inc()
    if stats.fast_path:
        metrics.counter("shard.fast_path_rounds").inc()
    metrics.counter("shard.local_bids").inc(stats.local_bids)
    metrics.counter("shard.cross_bids").inc(stats.cross_bids)
    metrics.counter("shard.local_winners").inc(stats.local_winners)
    metrics.counter("shard.cross_winners").inc(stats.cross_winners)
    metrics.counter("shard.clamped_shards").inc(stats.clamped_shards)
    for elapsed in stats.shard_ms:
        metrics.histogram("shard.round_ms").observe(elapsed)
    if stats.reconcile_ms:
        metrics.histogram("shard.reconcile_ms").observe(stats.reconcile_ms)
    _OBS.tracer.event(
        "shard-round",
        n_shards=stats.n_shards,
        active_shards=stats.active_shards,
        local_bids=stats.local_bids,
        cross_bids=stats.cross_bids,
        local_winners=stats.local_winners,
        cross_winners=stats.cross_winners,
        clamped_shards=stats.clamped_shards,
        fast_path=stats.fast_path,
    )
