"""The edge-cloud substrate (Section II system settings).

Edge clouds with fair-shared capacity, microservices with delay classes
and sharing capacities, end users, a latency-weighted backhaul network,
and the :class:`~repro.edge.platform.EdgePlatform` that drives the full
simulate → estimate → auction → reallocate loop.
"""

from repro.edge.cloud import EdgeCloud
from repro.edge.cross_cloud import CrossCloudConfig, build_cross_cloud_market
from repro.edge.fair_share import max_min_fair_share
from repro.edge.microservice import DelayClass, Microservice
from repro.edge.network import BackhaulNetwork, build_backhaul
from repro.edge.policies import (
    MarkupPolicy,
    OpportunisticPolicy,
    RandomizedPolicy,
)
from repro.edge.platform import (
    BiddingPolicy,
    EdgePlatform,
    Ledger,
    PlatformConfig,
    PlatformRoundReport,
    TruthfulCostPolicy,
)
from repro.edge.users import EndUser, build_user_population

__all__ = [
    "EdgeCloud",
    "CrossCloudConfig",
    "build_cross_cloud_market",
    "max_min_fair_share",
    "DelayClass",
    "Microservice",
    "BackhaulNetwork",
    "build_backhaul",
    "BiddingPolicy",
    "MarkupPolicy",
    "OpportunisticPolicy",
    "RandomizedPolicy",
    "EdgePlatform",
    "Ledger",
    "PlatformConfig",
    "PlatformRoundReport",
    "TruthfulCostPolicy",
    "EndUser",
    "build_user_population",
]
