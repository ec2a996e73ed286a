"""Sharded MSOA: the online auctioneer over sharded round clearing.

:class:`ShardedOnlineAuction` subclasses
:class:`~repro.core.msoa.MultiStageOnlineAuction` and overrides exactly
one method — the ``_execute_ssam`` clearing seam — so the admissibility
filter, ψ/χ updates, α estimation, fault injection and resilience
machinery are *shared code*, not reimplementations.  With one shard the
seam degenerates to the parent's plain :func:`~repro.core.ssam.run_ssam`
call, which is why the 1-shard ≡ unsharded equivalence certified by
``tests/properties/test_shard_equivalence.py`` holds bit-for-bit even
under seeded fault plans.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.core.msoa import MultiStageOnlineAuction
from repro.core.outcomes import OnlineOutcome
from repro.core.ssam import PaymentRule, warn_ignored
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError
from repro.shard.plan import ShardPlan, make_plan
from repro.shard.ssam import ShardRoundStats, run_sharded_ssam

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults → core)
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.faults.policies import ResiliencePolicy

__all__ = ["ShardedOnlineAuction", "run_sharded_msoa"]


class ShardedOnlineAuction(MultiStageOnlineAuction):
    """MSOA whose rounds clear through the sharded two-pass pipeline.

    Parameters
    ----------
    capacities, **msoa options:
        Exactly as :class:`~repro.core.msoa.MultiStageOnlineAuction`.
        ``columnar_incremental`` is accepted but inert here: per-shard
        layouts are forked fresh from one parent build each round (the
        cross-round price-refresh cache assumes a single global layout).
    plan:
        A bound :class:`~repro.shard.plan.ShardPlan`.  Mutually
        exclusive with ``shards``/``shard_strategy``.
    shards / shard_strategy:
        Convenience constructor: ``make_plan(shard_strategy, shards)``.
    shard_workers:
        Deprecated and ignored: shards always clear serially, in shard
        order (see :func:`~repro.core.ssam.warn_ignored`).
    """

    def __init__(
        self,
        capacities: Mapping[int, int],
        *,
        plan: ShardPlan | None = None,
        shards: int | None = None,
        shard_strategy: str = "hash",
        shard_workers: int | str | None = None,
        **msoa_options,
    ) -> None:
        if plan is not None and shards is not None:
            raise ConfigurationError(
                "pass either a bound plan or shards/shard_strategy, not both"
            )
        if plan is None:
            plan = make_plan(shard_strategy, shards if shards is not None else 1)
        warn_ignored("shard_workers", shard_workers)
        super().__init__(capacities, **msoa_options)
        self._plan = plan
        self._shard_stats: list[ShardRoundStats] = []

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def shard_stats(self) -> tuple[ShardRoundStats, ...]:
        """Per-clearing stats, one entry per ``_execute_ssam`` call.

        Note: a fault-retried round clears more than once, so this is
        aligned with clearing executions, not with ``rounds``.
        """
        return tuple(self._shard_stats)

    def _execute_ssam(
        self,
        instance: WSPInstance,
        *,
        original_prices: Mapping[tuple[int, int], float] | None = None,
    ):
        result = run_sharded_ssam(
            instance,
            self._plan,
            payment_rule=self._payment_rule,
            original_prices=original_prices,
            engine=self._engine,
        )
        self._shard_stats.append(result.stats)
        return result.outcome


def run_sharded_msoa(
    rounds: Iterable[WSPInstance] | Sequence[WSPInstance],
    capacities: Mapping[int, int],
    *,
    shards: int | None = None,
    shard_strategy: str = "hash",
    plan: ShardPlan | None = None,
    alpha: float | None = None,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    on_infeasible: str = "raise",
    faults: "FaultPlan | FaultInjector | None" = None,
    resilience: "ResiliencePolicy | None" = None,
) -> OnlineOutcome:
    """Sharded twin of :func:`~repro.core.msoa.run_msoa`.

    Accepts any iterable of rounds — including the bounded-memory
    streams from :mod:`repro.shard.streaming` — and processes them
    strictly online.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.workload import MarketConfig, generate_horizon
    >>> from repro.shard import run_sharded_msoa
    >>> rounds, capacities = generate_horizon(
    ...     MarketConfig(), np.random.default_rng(7), rounds=3)
    >>> outcome = run_sharded_msoa(rounds, capacities, shards=2)
    >>> len(outcome.rounds)
    3
    """
    auction = ShardedOnlineAuction(
        capacities,
        plan=plan,
        shards=shards,
        shard_strategy=shard_strategy,
        alpha=alpha,
        payment_rule=payment_rule,
        engine=engine,
        on_infeasible=on_infeasible,
        faults=faults,
        resilience=resilience,
    )
    for instance in rounds:
        auction.process_round(instance)
    return auction.finalize()
