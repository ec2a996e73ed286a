"""The edge platform: the end-to-end loop of Figure 2.

Each auction round, the platform

1. lets the request simulator run for the round length, collecting the
   per-microservice indicators of Section III,
2. estimates each microservice's extra-resource demand in integer units,
3. collects bids from microservices with spare resources (a pluggable
   :class:`BiddingPolicy`; the default prices truthfully at cost),
4. runs one round of the multi-stage online auction (MSOA),
5. applies the winning transfers (reclaim from sellers, grant to buyers)
   and records payments/charges in the ledger.

Resource sharing stays *within* an edge cloud, as in the paper: a seller's
bid only covers needy microservices co-located on its own site.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.bids import Bid
from repro.core.mechanism import OnlineMechanism
from repro.core.msoa import MultiStageOnlineAuction
from repro.core.outcomes import RoundResult
from repro.core.registry import get_spec, make_online
from repro.core.ssam import PaymentRule, resolve_engine
from repro.core.wsp import WSPInstance
from repro.demand.estimator import DemandEstimator
from repro.edge.cloud import EdgeCloud
from repro.edge.network import BackhaulNetwork
from repro.edge.users import EndUser
from repro.errors import ConfigurationError
from repro.obs.profiler import profiled
from repro.obs.runtime import STATE as _OBS
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind
from repro.sim.metrics import RoundSnapshot
from repro.sim.processes import ArrivalProcess, RequestServer

__all__ = [
    "PlatformConfig",
    "BiddingPolicy",
    "TruthfulCostPolicy",
    "EdgePlatform",
    "PlatformRoundReport",
    "RoundContext",
    "SellerContext",
    "Ledger",
]


@dataclass(frozen=True)
class PlatformConfig:
    """Tunables of the platform loop (paper defaults from Section V.A)."""

    round_length: float = 10.0
    bids_per_seller: int = 2
    unit_cost_range: tuple[float, float] = (10.0, 35.0)
    price_ceiling: float = 50.0
    speed_per_unit: float = 1.0
    work_mean: float = 1.0
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN
    engine: str = "columnar"
    shards: int = 1
    shard_strategy: str = "hash"

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be a positive integer, got {self.shards}"
            )
        if self.shard_strategy not in ("hash", "region", "locality"):
            raise ConfigurationError(
                "shard_strategy must be 'hash', 'region' or 'locality', "
                f"got {self.shard_strategy!r}"
            )
        if self.round_length <= 0:
            raise ConfigurationError("round_length must be positive")
        if self.bids_per_seller <= 0:
            raise ConfigurationError("bids_per_seller must be positive")
        low, high = self.unit_cost_range
        if not 0 < low <= high:
            raise ConfigurationError(f"invalid unit_cost_range {self.unit_cost_range}")
        if self.price_ceiling < high:
            raise ConfigurationError(
                "price_ceiling must be at least the top of unit_cost_range"
            )


class BiddingPolicy:
    """Strategy interface: how a seller turns spare capacity into bids."""

    def make_bids(
        self,
        seller_id: int,
        local_buyers: Sequence[int],
        max_units: int,
        rng: np.random.Generator,
    ) -> list[Bid]:
        """Produce up to ``J`` alternative bids for this round."""
        raise NotImplementedError


@dataclass
class TruthfulCostPolicy(BiddingPolicy):
    """The default truthful seller: price equals private per-unit cost.

    Each seller draws a private per-unit cost once (uniform in
    ``unit_cost_range``) and submits up to ``bids_per_seller`` alternative
    bids covering random subsets of the co-located needy microservices,
    priced at ``cost · |covered|``.  Alternative bids differ in the subset
    they cover, matching the paper's "up to F alternative bids".
    """

    bids_per_seller: int = 2
    unit_cost_range: tuple[float, float] = (10.0, 35.0)
    _costs: dict[int, float] = field(default_factory=dict)

    def unit_cost(self, seller_id: int, rng: np.random.Generator) -> float:
        """The seller's persistent private per-unit cost."""
        if seller_id not in self._costs:
            low, high = self.unit_cost_range
            self._costs[seller_id] = float(rng.uniform(low, high))
        return self._costs[seller_id]

    def make_bids(
        self,
        seller_id: int,
        local_buyers: Sequence[int],
        max_units: int,
        rng: np.random.Generator,
    ) -> list[Bid]:
        if not local_buyers or max_units <= 0:
            return []
        cost = self.unit_cost(seller_id, rng)
        bids: list[Bid] = []
        seen: set[frozenset[int]] = set()
        for j in range(self.bids_per_seller):
            size = int(rng.integers(1, min(len(local_buyers), max_units) + 1))
            covered = frozenset(
                int(b) for b in rng.choice(local_buyers, size=size, replace=False)
            )
            if covered in seen:
                continue
            seen.add(covered)
            price = cost * len(covered)
            bids.append(
                Bid(
                    seller=seller_id,
                    index=j,
                    covered=covered,
                    price=price,
                    true_cost=price,
                )
            )
        return bids


@dataclass
class Ledger:
    """Money flow bookkeeping (Definition 5's no-economic-loss audit).

    ``payments`` records what the platform pays winning sellers;
    ``charges`` records what it bills the buyers whose demand was served
    (each round's payout is split across buyers in proportion to the
    units they received).
    """

    payments: dict[int, float] = field(default_factory=dict)
    charges: dict[int, float] = field(default_factory=dict)

    def record_round(self, result: RoundResult, units_received: Mapping[int, int]) -> None:
        """Book one round's payments and the matching buyer charges."""
        total_payment = result.total_payment
        for winner in result.outcome.winners:
            seller = winner.bid.seller
            self.payments[seller] = self.payments.get(seller, 0.0) + winner.payment
        total_units = sum(units_received.values())
        if total_units <= 0 or total_payment <= 0:
            return
        for buyer, units in units_received.items():
            share = total_payment * units / total_units
            self.charges[buyer] = self.charges.get(buyer, 0.0) + share

    @property
    def total_paid(self) -> float:
        """Aggregate payments to sellers."""
        return sum(self.payments.values())

    @property
    def total_charged(self) -> float:
        """Aggregate charges to buyers."""
        return sum(self.charges.values())

    @property
    def is_budget_balanced(self) -> bool:
        """Whether charges cover payments (no economic loss, Def. 5)."""
        return self.total_charged >= self.total_paid - 1e-9


@dataclass(frozen=True)
class SellerContext:
    """What one potential seller needs to know to bid in a round.

    The platform announces this (it is public information: who is needy
    on the seller's own cloud, and how many units the seller may still
    pledge); the seller's private data — its cost and its bid randomness
    — never leaves the seller.
    """

    seller_id: int
    local_buyers: tuple[int, ...]
    max_units: int


@dataclass(frozen=True)
class RoundContext:
    """The opening state of one auction round.

    Produced by :meth:`EdgePlatform.begin_round` after the simulation has
    advanced and demand has been estimated, but *before* any bid has been
    collected.  The synchronous loop feeds it straight to
    :meth:`EdgePlatform.collect_bids`; the distributed serving layer
    (:mod:`repro.dist`) broadcasts its :class:`SellerContext` entries
    over a transport instead and gathers the replies within a grace
    window.  Either way, :meth:`EdgePlatform.complete_round` clears the
    collected bids through the same mechanism code.
    """

    round_index: int
    snapshots: tuple[RoundSnapshot, ...]
    demand_units: Mapping[int, int]
    buyers: Mapping[int, int]
    seller_contexts: tuple[SellerContext, ...]

    @property
    def has_demand(self) -> bool:
        """Whether any buyer needs units this round."""
        return bool(self.buyers)


@dataclass(frozen=True)
class PlatformRoundReport:
    """Everything observable about one platform round."""

    round_index: int
    snapshots: tuple[RoundSnapshot, ...]
    demand_units: Mapping[int, int]
    auction: RoundResult | None
    transfers: tuple[tuple[int, frozenset[int]], ...]

    @property
    def social_cost(self) -> float:
        """The round's social cost (0 when no auction was needed)."""
        return self.auction.social_cost if self.auction is not None else 0.0


class EdgePlatform:
    """Drives the full simulate → estimate → auction → reallocate loop.

    The round lifecycle is split into three phases so that bid collection
    can happen over a transport: :meth:`begin_round` advances the
    simulation and estimates demand, :meth:`collect_bids` asks the
    in-process bidding policy for every seller's bids, and
    :meth:`complete_round` clears the collected bids and applies the
    transfers.  :meth:`run_round` chains the three synchronously; the
    distributed serving layer (:mod:`repro.dist`, built through
    :func:`repro.api.serve`) replaces the middle phase with a
    message-driven round trip to independent seller agents.

    .. deprecated:: 1.2
        Constructing :class:`EdgePlatform` directly (wiring sellers and
        buyers into one synchronous loop) emits a
        :class:`DeprecationWarning`; the documented construction path is
        :func:`repro.api.serve`.  The synchronous loop itself is fully
        supported — only the direct wiring is deprecated.

    The per-round auction is pluggable through ``mechanism``: the default
    (``None``) runs MSOA as in the paper; a registry name (``"pay-as-bid"``,
    ``"vcg"``, ...) runs that mechanism under the same capacity discipline
    (so a baseline can drive the full Figure-2 loop end-to-end); an
    already-built :class:`~repro.core.mechanism.OnlineMechanism` is used
    as-is.

    ``faults`` (a :class:`~repro.faults.models.FaultPlan`) and
    ``resilience`` (a :class:`~repro.faults.policies.ResiliencePolicy`)
    activate seeded fault injection and recovery inside the auction step;
    they are forwarded to the mechanism the platform constructs, so they
    cannot be combined with an already-built ``mechanism`` object
    (configure that object directly instead).
    """

    def __init__(
        self,
        clouds: Sequence[EdgeCloud],
        network: BackhaulNetwork,
        users: Sequence[EndUser],
        estimator: DemandEstimator,
        *,
        config: PlatformConfig | None = None,
        bidding_policy: BiddingPolicy | None = None,
        rng: np.random.Generator | None = None,
        horizon_rounds: int = 10,
        mechanism: str | OnlineMechanism | None = None,
        faults=None,
        resilience=None,
    ) -> None:
        warnings.warn(
            "wiring sellers and buyers directly into EdgePlatform is "
            "deprecated as the construction path; build the serving "
            "platform through repro.api.serve() (repro.dist.AuctionService) "
            "instead — the synchronous loop keeps working, but the facade "
            "is the documented entry point",
            DeprecationWarning,
            stacklevel=2,
        )
        self._init(
            clouds,
            network,
            users,
            estimator,
            config=config,
            bidding_policy=bidding_policy,
            rng=rng,
            horizon_rounds=horizon_rounds,
            mechanism=mechanism,
            faults=faults,
            resilience=resilience,
        )

    @classmethod
    def _create(cls, *args, **kwargs) -> "EdgePlatform":
        """Construct a platform without the direct-wiring deprecation.

        The serving facade (:func:`repro.api.serve`,
        :func:`repro.dist.replay_scenario`) builds its platform core
        through here; end users constructing :class:`EdgePlatform`
        directly get the :class:`DeprecationWarning` steering them to
        the facade.
        """
        self = object.__new__(cls)
        self._init(*args, **kwargs)
        return self

    def _init(
        self,
        clouds: Sequence[EdgeCloud],
        network: BackhaulNetwork,
        users: Sequence[EndUser],
        estimator: DemandEstimator,
        *,
        config: PlatformConfig | None = None,
        bidding_policy: BiddingPolicy | None = None,
        rng: np.random.Generator | None = None,
        horizon_rounds: int = 10,
        mechanism: str | OnlineMechanism | None = None,
        faults=None,
        resilience=None,
    ) -> None:
        if not clouds:
            raise ConfigurationError("at least one edge cloud is required")
        self.clouds = {cloud.cloud_id: cloud for cloud in clouds}
        if len(self.clouds) != len(clouds):
            raise ConfigurationError("edge cloud ids must be unique")
        self.network = network
        self.users = tuple(users)
        self.estimator = estimator
        self.config = config or PlatformConfig()
        self.bidding_policy = bidding_policy or TruthfulCostPolicy(
            bids_per_seller=self.config.bids_per_seller,
            unit_cost_range=self.config.unit_cost_range,
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        self.horizon_rounds = horizon_rounds
        self.ledger = Ledger()
        self.reports: list[PlatformRoundReport] = []

        self._services = {
            s.service_id: s for cloud in clouds for s in cloud.services
        }
        capacities = {
            sid: s.share_capacity
            for sid, s in self._services.items()
            if s.share_capacity is not None
        }
        if mechanism is None:
            if self.config.shards > 1:
                from repro.shard.msoa import ShardedOnlineAuction
                from repro.shard.plan import RegionShardPlan, make_plan

                if self.config.shard_strategy == "region":
                    # A microservice's geographic region is its edge
                    # cloud — co-located buyers clear in one shard.
                    plan = RegionShardPlan(
                        regions={
                            sid: s.cloud
                            for sid, s in self._services.items()
                        },
                        n_shards=self.config.shards,
                    )
                else:
                    plan = make_plan(
                        self.config.shard_strategy, self.config.shards
                    )
                self.auction: OnlineMechanism = ShardedOnlineAuction(
                    capacities,
                    plan=plan,
                    payment_rule=self.config.payment_rule,
                    engine=self.config.engine,
                    on_infeasible="skip",
                    faults=faults,
                    resilience=resilience,
                )
            else:
                self.auction = MultiStageOnlineAuction(
                    capacities,
                    payment_rule=self.config.payment_rule,
                    engine=self.config.engine,
                    on_infeasible="skip",
                    faults=faults,
                    resilience=resilience,
                )
        elif isinstance(mechanism, str):
            # Forward the platform's payment rule and engine only to
            # mechanisms that understand them (per the registry spec);
            # rounds where demand outstrips the admissible bid pool are
            # skipped, as with MSOA.
            spec_options = get_spec(mechanism).options
            options = {
                name: value
                for name, value in (
                    ("payment_rule", self.config.payment_rule),
                    ("engine", self.config.engine),
                )
                if name in spec_options
            }
            self.auction = make_online(
                mechanism,
                capacities,
                on_infeasible="skip",
                faults=faults,
                resilience=resilience,
                **options,
            )
        else:
            if faults is not None or resilience is not None:
                raise ConfigurationError(
                    "faults=/resilience= cannot be combined with an "
                    "already-built mechanism object; pass them to that "
                    "mechanism's constructor instead"
                )
            self.auction = mechanism
        self._engine = SimulationEngine()
        self._servers: dict[int, RequestServer] = {}
        self._arrivals: dict[int, ArrivalProcess] = {}
        self._build_simulation()

    # ------------------------------------------------------------------
    # simulation wiring
    # ------------------------------------------------------------------
    def _build_simulation(self) -> None:
        """One server per microservice, one arrival process per loaded one.

        Every server is attached to the engine; the one ARRIVAL handler calls
        the request's ``(accept, schedule_next)`` pair, server first.
        """
        horizon = self.config.round_length * self.horizon_rounds
        rate_per_service: dict[int, float] = {}
        for user in self.users:
            sid = user.target_service
            rate_per_service[sid] = rate_per_service.get(sid, 0.0) + user.request_rate
        for sid, service in self._services.items():
            server = RequestServer(
                microservice=sid,
                allocation=max(service.allocation, 1e-6),
                speed_per_unit=self.config.speed_per_unit,
            )
            self._servers[sid] = server
            self._engine.attach(server)
            rate = rate_per_service.get(sid, 0.0)
            if rate > 0:
                self._arrivals[sid] = ArrivalProcess(
                    microservice=sid,
                    rate=rate,
                    horizon=horizon,
                    rng=self.rng,
                    work_mean=self.config.work_mean,
                    user_pool=max(1, len(self.users)),
                )
        # Only arrival processes schedule ARRIVALs, so the service has one.
        self._routes = {
            sid: (self._servers[sid].accept, process.schedule_next)
            for sid, process in self._arrivals.items()
        }
        self._engine.register(EventKind.ARRIVAL, self._route_arrival)
        for process in self._arrivals.values():
            process.start(self._engine)

    def _route_arrival(self, engine: SimulationEngine, event: Event) -> None:
        now, _, _, request = event
        accept, schedule_next = self._routes[request.microservice]
        accept(request, now)
        schedule_next(engine, now)

    # ------------------------------------------------------------------
    # the per-round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self) -> RoundContext:
        """Open a round: simulate, estimate demand, announce seller contexts.

        Advances the request simulator by one round length, snapshots the
        per-microservice indicators, estimates every microservice's
        extra-resource demand, and computes each potential seller's
        public bidding context.  No bid is collected and no state beyond
        the simulation clock changes — the round is completed by
        :meth:`complete_round` once bids are in (directly via
        :meth:`collect_bids`, or over a transport in :mod:`repro.dist`).
        """
        round_index = len(self.reports)
        round_start = self._engine.now
        round_end = round_start + self.config.round_length
        self._simulate(round_index, round_end)
        snapshots = tuple(
            server.stats.snapshot(round_index, round_start, round_end)
            for server in self._servers.values()
        )
        for server in self._servers.values():
            server.stats.reset(round_end)
        demand_units = self.estimator.estimate_round(snapshots)
        buyers = {b: u for b, u in demand_units.items() if u > 0}
        return RoundContext(
            round_index=round_index,
            snapshots=snapshots,
            demand_units=demand_units,
            buyers=buyers,
            seller_contexts=self.seller_contexts(buyers),
        )

    @profiled("platform.simulate")
    def _simulate(self, round_index: int, round_end: float) -> None:
        """Simulate to round ``round_index``'s end; a traced span gets ``events``."""
        engine, tracer = self._engine, _OBS.tracer
        with tracer.span("platform.simulate", round_index=round_index) as span:
            before = engine.processed_events if tracer.enabled else 0
            engine.run_until(round_end)
            if tracer.enabled:
                tracer.annotate(span, events=engine.processed_events - before)

    def seller_contexts(
        self, buyers: Mapping[int, int]
    ) -> tuple[SellerContext, ...]:
        """The public per-seller bidding contexts for a buyer set.

        Sellers are enumerated in ascending id order — the canonical
        order every bid-collection path (synchronous policy loop and
        distributed orchestrator alike) must preserve so that clearing
        is deterministic.
        """
        contexts: list[SellerContext] = []
        for sid, service in sorted(self._services.items()):
            if sid in buyers:
                continue  # a needy microservice does not sell this round
            if not service.is_potential_seller:
                continue
            local_buyers = sorted(
                b for b in buyers if b in self.clouds[service.cloud]
            )
            if not local_buyers:
                continue
            remaining = service.remaining_share_capacity
            max_units = int(min(
                service.spare,
                remaining if remaining is not None else service.spare,
            ))
            contexts.append(
                SellerContext(
                    seller_id=sid,
                    local_buyers=tuple(local_buyers),
                    max_units=max_units,
                )
            )
        return tuple(contexts)

    def collect_bids(self, context: RoundContext) -> list[Bid]:
        """Ask the configured bidding policy for every seller's bids."""
        bids: list[Bid] = []
        for sc in context.seller_contexts:
            bids.extend(
                self.bidding_policy.make_bids(
                    sc.seller_id, list(sc.local_buyers), sc.max_units, self.rng
                )
            )
        return bids

    def complete_round(
        self, context: RoundContext, bids: Sequence[Bid]
    ) -> PlatformRoundReport:
        """Clear a round's collected bids and apply the winning transfers.

        Runs the configured mechanism on the admissible bids, moves the
        won resources between microservices, books the money flows, and
        appends (and returns) the round's report.  This is the single
        clearing path shared by the synchronous loop and the distributed
        orchestrator — which is what makes the two bit-identical on the
        same collected bids.
        """
        auction_result, transfers = self._run_auction(context.buyers, bids)
        report = PlatformRoundReport(
            round_index=context.round_index,
            snapshots=context.snapshots,
            demand_units=context.demand_units,
            auction=auction_result,
            transfers=transfers,
        )
        self.reports.append(report)
        return report

    @profiled("platform.round")
    def run_round(self) -> PlatformRoundReport:
        """Advance one full round synchronously; return what happened."""
        with _OBS.tracer.span(
            "platform.round", round_index=len(self.reports)
        ) as round_span:
            context = self.begin_round()
            bids = self.collect_bids(context)
            report = self.complete_round(context, bids)
            _OBS.tracer.annotate(
                round_span,
                social_cost=report.social_cost,
                transfers=len(report.transfers),
                demand_units=sum(context.demand_units.values()),
            )
            return report

    def run(self, rounds: int | None = None) -> list[PlatformRoundReport]:
        """Run the configured horizon (or ``rounds``) and return reports."""
        n = rounds if rounds is not None else self.horizon_rounds
        return [self.run_round() for _ in range(n)]

    # ------------------------------------------------------------------
    # auction round
    # ------------------------------------------------------------------
    @profiled("platform.auction")
    def _run_auction(
        self, buyers: Mapping[int, int], bids: Sequence[Bid]
    ) -> tuple[RoundResult | None, tuple[tuple[int, frozenset[int]], ...]]:
        if not buyers:
            return None, ()
        # The ceiling is a public reserve price: asks above it are not
        # admissible.  (Without this admission rule a pivotal over-asker
        # would be paid its ceiling-capped critical value, below its ask.)
        bids = [
            bid for bid in bids if bid.price <= self.config.price_ceiling
        ]
        instance = WSPInstance.from_bids(
            bids, buyers, price_ceiling=self.config.price_ceiling
        )
        result = self.auction.process_round(instance)
        transfers: list[tuple[int, frozenset[int]]] = []
        units_received: dict[int, int] = {}
        for winner in result.outcome.winners:
            seller_id = winner.bid.seller
            covered = winner.bid.covered
            service = self._services[seller_id]
            cloud = self.clouds[service.cloud]
            cloud.transfer(seller_id, covered, per_buyer=1.0)
            service.record_shared(len(covered))
            self._servers[seller_id].set_allocation(
                max(service.allocation, 1e-6), self._engine.now
            )
            for buyer in covered:
                buyer_service = self._services[buyer]
                self._servers[buyer].set_allocation(
                    max(buyer_service.allocation, 1e-6), self._engine.now
                )
                units_received[buyer] = units_received.get(buyer, 0) + 1
            transfers.append((seller_id, covered))
        self.ledger.record_round(result, units_received)
        return result, tuple(transfers)

    # ------------------------------------------------------------------
    # summary views
    # ------------------------------------------------------------------
    @property
    def total_social_cost(self) -> float:
        """Social cost accumulated over all rounds so far."""
        return sum(report.social_cost for report in self.reports)

    def finalize(self):
        """Finalize the underlying online auction (competitive-ratio view)."""
        return self.auction.finalize()
