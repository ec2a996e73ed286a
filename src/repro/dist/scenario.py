"""Reproducible serving scenarios and the synchronous determinism oracle.

A :class:`DistScenario` is a frozen, seed-complete description of a
deployment (clouds, services, users, estimator, platform config) from
which a fresh :class:`~repro.edge.platform.EdgePlatform` core can be
built any number of times — which is exactly what the determinism
contract needs: :func:`repro.api.serve` builds one copy and serves it
over a transport, :func:`replay_scenario` builds an identical copy and
runs it through the classic synchronous loop with the same per-seller
RNG streams (:class:`~repro.dist.agents.AgentStreamPolicy`), and the two
must produce bit-identical outcomes.

The default geometry matches the repository's integration-test
deployment: two clouds, a couple of overloaded delay-sensitive services,
and a well-provisioned majority with spare capacity to sell.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.ssam import resolve_engine
from repro.demand.estimator import DemandEstimator, DemandWeights
from repro.demand.indicators import RequestRateIndicator
from repro.dist.agents import AgentStreamPolicy, default_policy_factory
from repro.edge.cloud import EdgeCloud
from repro.edge.microservice import DelayClass, Microservice
from repro.edge.network import build_backhaul
from repro.edge.platform import (
    BiddingPolicy,
    EdgePlatform,
    PlatformConfig,
    PlatformRoundReport,
)
from repro.edge.users import build_user_population
from repro.errors import ConfigurationError

__all__ = ["DistScenario", "replay_scenario"]


@dataclass(frozen=True)
class DistScenario:
    """A seed-complete, repeatable serving deployment.

    Everything the platform core depends on is derived from the fields
    below — two :meth:`build_platform` calls with the same scenario
    produce independent but statistically *identical* platforms (same
    topology, same arrival processes, same demand), because every random
    choice flows from ``seed``.

    ``mechanism`` takes a registry name (``"pay-as-bid"``, ``"vcg"``,
    ...) or ``None`` for the paper's MSOA; ``faults``/``resilience``
    are forwarded to the mechanism exactly as in the synchronous
    platform (they are frozen plans, so sharing one across replays is
    safe).  ``engine`` selects the clearing engine (``"columnar"`` or
    ``"reference"``) for mechanisms that accept one —
    outcomes are engine-independent, so the determinism contract holds
    for every choice.
    """

    seed: int = 5
    n_clouds: int = 2
    cloud_capacity: float = 60.0
    n_services: int = 8
    overloaded: tuple[int, ...] = (1, 2)
    n_users: int = 60
    horizon_rounds: int = 10
    round_length: float = 8.0
    work_mean: float = 0.5
    bids_per_seller: int = 2
    unit_cost_range: tuple[float, float] = (10.0, 35.0)
    mechanism: str | None = None
    engine: str = "columnar"
    shards: int = 1
    shard_strategy: str = "hash"
    faults: object | None = None
    resilience: object | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        if self.n_clouds < 1:
            raise ConfigurationError("n_clouds must be at least 1")
        if self.n_services < 1:
            raise ConfigurationError("n_services must be at least 1")
        if self.horizon_rounds < 1:
            raise ConfigurationError("horizon_rounds must be at least 1")
        if self.shards > 1 and self.mechanism is not None:
            raise ConfigurationError(
                "sharded clearing is an MSOA decomposition; shards > 1 "
                "requires mechanism=None"
            )

    def platform_config(self) -> PlatformConfig:
        """The :class:`PlatformConfig` every build of this scenario uses."""
        return PlatformConfig(
            round_length=self.round_length,
            work_mean=self.work_mean,
            bids_per_seller=self.bids_per_seller,
            unit_cost_range=self.unit_cost_range,
            engine=self.engine,
            shards=self.shards,
            shard_strategy=self.shard_strategy,
        )

    def policy_factory(self) -> Callable[[], BiddingPolicy]:
        """One truthful policy per seller, priced over this scenario's range."""
        return default_policy_factory(self.platform_config())

    def build_platform(
        self, *, bidding_policy: BiddingPolicy | None = None
    ) -> EdgePlatform:
        """Construct a fresh platform core for this scenario.

        Used by the serving facade (no deprecation warning — this *is*
        the facade's construction path).  ``bidding_policy`` is only
        relevant for synchronous replays; the distributed orchestrator
        never consults it.
        """
        rng = np.random.default_rng(self.seed)
        clouds = [
            EdgeCloud(cid, capacity=self.cloud_capacity)
            for cid in range(self.n_clouds)
        ]
        for sid in range(1, self.n_services + 1):
            overloaded = sid in self.overloaded
            service = Microservice(
                service_id=sid,
                delay_class=(
                    DelayClass.DELAY_SENSITIVE
                    if overloaded
                    else DelayClass.DELAY_TOLERANT
                ),
                allocation=1.0 if overloaded else 6.0,
                base_demand=1.0 if overloaded else 2.0,
                share_capacity=None if overloaded else 12,
            )
            clouds[(sid - 1) % self.n_clouds].host(service)
        network = build_backhaul(rng, n_clouds=self.n_clouds)
        users = build_user_population(
            rng,
            n_users=self.n_users,
            access_points=self.n_clouds,
            services=tuple(range(1, self.n_services + 1)),
            sensitive_rate=0.25,
            tolerant_rate=0.5,
        )
        estimator = DemandEstimator(
            weights=DemandWeights(waiting=2.0, processing=1.0, request_rate=1.0),
            request_rate=RequestRateIndicator(delta=0.5, neighbour_density=8.0),
            max_units=3,
        )
        return EdgePlatform._create(
            clouds,
            network,
            users,
            estimator,
            config=self.platform_config(),
            bidding_policy=bidding_policy,
            rng=rng,
            horizon_rounds=self.horizon_rounds,
            mechanism=self.mechanism,
            faults=self.faults,
            resilience=self.resilience,
        )

    def seller_ids(self) -> tuple[int, ...]:
        """Every service id (any of them may sell in some round)."""
        return tuple(range(1, self.n_services + 1))


def replay_scenario(
    scenario: DistScenario, rounds: int | None = None
) -> list[PlatformRoundReport]:
    """Run a scenario through the classic synchronous loop — the oracle.

    Builds a fresh platform whose bidding policy replays the per-seller
    RNG streams the distributed agents would use
    (:class:`~repro.dist.agents.AgentStreamPolicy`), then runs it for
    ``rounds`` (default: the scenario horizon).  A seeded
    :func:`repro.api.serve` session over the in-memory transport must
    produce bit-identical :class:`~repro.core.outcomes.AuctionOutcome`\\ s
    to this replay — that equivalence is the determinism contract, and
    the dist test suite asserts it mechanism by mechanism.
    """
    platform = scenario.build_platform(
        bidding_policy=AgentStreamPolicy(
            scenario.seed, scenario.policy_factory()
        )
    )
    return platform.run(rounds)
