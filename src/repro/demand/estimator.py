"""The microservice demand estimator (Section III, Eq. 1).

``Xᵢᵗ = (1/w_γ)·γᵢᵗ + (1/w_ℝ)·ℝᵢᵗ + (1/w_𝕋)·𝕋ᵢᵗ`` — a weighted blend of the
three indicators, with weights chosen by AHP over the operator's judgment
of the indicators' relative importance.  The estimator consumes the
simulator's per-round :class:`~repro.sim.metrics.RoundSnapshot` objects and
emits integer *demand units* suitable for the auction (the paper's
coverage requirements are integral).

Also provided is :class:`NoisyOracleEstimator`, which perturbs a known
true demand — the experiment harness uses it to separate "plain MSOA with
imperfect estimates" from the MSOA-DA variant that gets oracle demand.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.demand.ahp import AHPResult, ahp_weights, pairwise_matrix_from_judgments
from repro.demand.indicators import (
    ProcessingRateIndicator,
    RequestRateIndicator,
    WaitingTimeIndicator,
)
from repro.errors import ConfigurationError
from repro.obs.profiler import profiled
from repro.sim.metrics import RoundSnapshot

__all__ = ["DemandWeights", "DemandEstimator", "NoisyOracleEstimator"]


@dataclass(frozen=True)
class DemandWeights:
    """The ``1/w`` scaling factors of Eq. 1, one per indicator.

    The constructor accepts raw (unnormalized) importance weights; the
    paper's AHP route is available via :meth:`from_ahp_judgments`.
    """

    waiting: float = 1.0
    processing: float = 1.0
    request_rate: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (
            ("waiting", self.waiting),
            ("processing", self.processing),
            ("request_rate", self.request_rate),
        ):
            if value < 0:
                raise ConfigurationError(f"weight {name} must be non-negative, got {value}")
        if self.waiting == self.processing == self.request_rate == 0:
            raise ConfigurationError("at least one demand weight must be positive")

    @staticmethod
    def from_ahp_judgments(
        waiting_vs_processing: float = 2.0,
        waiting_vs_request: float = 1.0,
        processing_vs_request: float = 0.5,
    ) -> tuple["DemandWeights", AHPResult]:
        """Derive weights from Saaty-scale pairwise judgments (ref [18]).

        The defaults encode the paper's implicit ordering — queueing delay
        and request rate dominate the (already time-averaged) processing
        gap — and yield a consistency ratio well under 0.1.
        """
        matrix = pairwise_matrix_from_judgments(
            {
                (0, 1): waiting_vs_processing,
                (0, 2): waiting_vs_request,
                (1, 2): processing_vs_request,
            },
            n=3,
        )
        result = ahp_weights(matrix)
        weights = DemandWeights(
            waiting=float(result.weights[0]),
            processing=float(result.weights[1]),
            request_rate=float(result.weights[2]),
        )
        return weights, result


@dataclass
class DemandEstimator:
    """Eq. 1's estimator over simulator snapshots.

    Parameters
    ----------
    weights:
        The indicator blend (``1/w`` factors).
    waiting / processing / request_rate:
        The three indicator functions; defaults use unit coefficients.
    unit_size:
        How much blended demand constitutes one auction *coverage unit*;
        estimates are divided by this and rounded up.
    max_units:
        Cap on a single microservice's demand units per round, preventing
        a saturated estimate (𝕋's ``1/(1−𝕃)`` blow-up) from requesting
        more than any market could supply.
    """

    weights: DemandWeights = field(default_factory=DemandWeights)
    waiting: WaitingTimeIndicator = field(default_factory=WaitingTimeIndicator)
    processing: ProcessingRateIndicator = field(default_factory=ProcessingRateIndicator)
    request_rate: RequestRateIndicator = field(default_factory=RequestRateIndicator)
    unit_size: float = 1.0
    max_units: int = 10

    def __post_init__(self) -> None:
        if self.unit_size <= 0:
            raise ConfigurationError(f"unit_size must be positive, got {self.unit_size}")
        if self.max_units <= 0:
            raise ConfigurationError(f"max_units must be positive, got {self.max_units}")

    def blended(self, snapshot: RoundSnapshot, a_max: float) -> float:
        """The raw Eq.-1 blend ``Xᵢᵗ`` (continuous, non-negative)."""
        return (
            self.weights.waiting * self.waiting(snapshot)
            + self.weights.processing * self.processing(snapshot)
            + self.weights.request_rate * self.request_rate(snapshot, a_max)
        )

    def estimate_units(self, snapshot: RoundSnapshot, a_max: float) -> int:
        """Integer demand units for the auction.

        Rounds the blend to the nearest whole unit, so a weak signal
        (below half a unit) registers no demand — otherwise every lightly
        loaded microservice would enter the auction as a buyer and the
        market would have no sellers left.
        """
        blend = self.blended(snapshot, a_max)
        units = int(math.floor(blend / self.unit_size + 0.5))
        if units <= 0:
            return 0
        return min(self.max_units, units)

    @profiled("demand.estimate")
    def estimate_round(
        self, snapshots: Iterable[RoundSnapshot]
    ) -> dict[int, int]:
        """Demand units for every microservice in a round's snapshots.

        ``a_max`` is taken as the largest allocation among the snapshots
        (the paper's ``a_max = max aᵢᵗ``); microservices whose estimate is
        zero are omitted from the result.
        """
        snapshots = list(snapshots)
        if not snapshots:
            return {}
        a_max = max(s.allocation for s in snapshots)
        if a_max <= 0:
            raise ConfigurationError("snapshots must carry positive allocations")
        demands: dict[int, int] = {}
        for snapshot in snapshots:
            units = self.estimate_units(snapshot, a_max)
            if units > 0:
                demands[snapshot.microservice] = units
        return demands


@dataclass
class NoisyOracleEstimator:
    """A demand estimator that perturbs a known true demand.

    Models estimation error abstractly: each microservice's true demand is
    multiplied by a lognormal factor with the given ``sigma`` and rounded.
    ``sigma = 0`` reproduces the oracle exactly (the MSOA-DA setting);
    larger sigmas model the imperfect Section-III pipeline under bursty
    load.  Estimates never drop a positive true demand to zero — the buyer
    still shows up, just with a possibly wrong size — and are capped at
    ``max_units``.

    With ``conservative=True`` the estimate never falls below the true
    demand — the estimator over-provisions rather than risk starving a
    microservice, which is how the Section-III indicators behave near
    saturation (the 1/(1−𝕃) factor diverges).  The experiment harness uses
    this mode so that plain MSOA's handicap relative to MSOA-DA is paying
    for *excess* coverage, exactly the paper's "accurate estimation →
    lower social cost" story.
    """

    rng: np.random.Generator
    sigma: float = 0.25
    max_units: int = 10
    conservative: bool = True
    max_overshoot: int = 2

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {self.sigma}")
        if self.max_units <= 0:
            raise ConfigurationError(f"max_units must be positive, got {self.max_units}")
        if self.max_overshoot < 0:
            raise ConfigurationError(
                f"max_overshoot must be non-negative, got {self.max_overshoot}"
            )

    def estimate(self, true_demand: Mapping[int, int]) -> dict[int, int]:
        """Perturbed integer demand per buyer.

        The error is bounded: estimates never exceed the true demand by
        more than ``max_overshoot`` units.  An unbounded over-estimator
        would routinely demand more units than any market could supply,
        turning every experiment into a feasibility-repair exercise
        instead of a pricing comparison.
        """
        estimated: dict[int, int] = {}
        for buyer, units in true_demand.items():
            if units <= 0:
                continue
            if self.sigma == 0:
                estimated[buyer] = min(units, self.max_units)
                continue
            factor = float(self.rng.lognormal(mean=0.0, sigma=self.sigma))
            noisy = max(1, int(round(units * factor)))
            if self.conservative:
                noisy = max(noisy, units)
            noisy = min(noisy, units + self.max_overshoot)
            estimated[buyer] = min(noisy, self.max_units)
        return estimated
