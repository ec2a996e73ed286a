"""Shared machinery for the figure experiments.

Builds markets from :class:`~repro.workload.scenarios.PaperScenario`
presets, runs mechanisms across seeds, and aggregates the per-seed
measurements into the means the result tables report.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.outcomes import AuctionOutcome
from repro.core.registry import get_spec
from repro.core.variants import HorizonScenario
from repro.core.wsp import WSPInstance
from repro.demand.estimator import NoisyOracleEstimator
from repro.errors import ConfigurationError, SolverError
from repro.experiments.config import ExperimentConfig
from repro.obs.profiler import profiled
from repro.obs.runtime import activate
from repro.workload.bidgen import (
    ensure_online_feasible,
    generate_capacities,
    generate_round,
    repair_horizon_capacities,
)
from repro.workload.scenarios import PaperScenario

__all__ = [
    "mean_over_seeds",
    "build_single_round",
    "build_horizon_scenario",
    "run_configured_mechanism",
]


def mean_over_seeds(
    seeds: Sequence[int], measure: Callable[[int], float]
) -> float:
    """Average ``measure(seed)`` over the seed set (NaN results skipped).

    Skipping lets a seed whose random market happens to be degenerate
    (e.g. zero optimum) drop out without poisoning the mean; at least one
    seed must produce a finite value.
    """
    values = []
    for seed in seeds:
        value = measure(seed)
        if math.isfinite(value):
            values.append(value)
    if not values:
        raise ConfigurationError("no seed produced a finite measurement")
    return statistics.fmean(values)


@profiled("experiments.mechanism")
def run_configured_mechanism(
    config: ExperimentConfig,
    instance: WSPInstance,
    *,
    seed: int = 0,
    **overrides: Any,
) -> AuctionOutcome:
    """Run the config's single-round mechanism on one instance.

    The sweep-wide knobs (``engine``, the seed for
    stochastic mechanisms) and any ``overrides`` are filtered against the
    registry spec's declared options, so the same dispatch call serves
    SSAM and every baseline without per-mechanism plumbing.

    When the config carries an ``observability`` request it is activated
    (idempotently) before dispatch, so sweep loops get tracing/metrics
    without per-call plumbing.
    """
    activate(config.observability)
    spec = get_spec(config.mechanism)
    options: dict[str, Any] = {
        "engine": config.engine,
        "seed": seed,
    }
    options.update(overrides)
    accepted = {k: v for k, v in options.items() if k in spec.options}
    return spec.loader()(instance, **accepted)


def build_single_round(
    scenario: PaperScenario, seed: int
) -> WSPInstance:
    """One single-stage market instance for a scenario preset."""
    rng = np.random.default_rng(seed)
    return generate_round(scenario.market_config(), rng)


def build_horizon_scenario(
    scenario: PaperScenario,
    seed: int,
    *,
    estimation_sigma: float,
    max_regenerations: int = 8,
) -> HorizonScenario:
    """A full online horizon with true and estimator-noise demand views.

    The true horizon comes from the market generator; the estimated view
    shares its bids but perturbs each round's demand through a
    :class:`~repro.demand.estimator.NoisyOracleEstimator` with the given
    sigma.  Estimated demands are clamped to what the round's bid pool can
    actually cover, so plain MSOA's handicap is mis-sizing, never
    infeasibility by construction.

    On the rare draw whose capacities cannot be repaired into an
    online-feasible horizon, the builder redraws with a derived sub-seed
    (rejection sampling, up to ``max_regenerations`` attempts) — the
    paper's evaluation implicitly conditions on feasible markets.
    """
    cache_key = (scenario, seed, estimation_sigma)
    cached = _HORIZON_CACHE.get(cache_key)
    if cached is not None:
        return cached
    last_error: Exception | None = None
    for attempt in range(max_regenerations):
        try:
            built = _build_horizon_once(
                scenario,
                seed + attempt * 7_368_787,
                estimation_sigma=estimation_sigma,
            )
            if len(_HORIZON_CACHE) > 256:
                _HORIZON_CACHE.clear()
            _HORIZON_CACHE[cache_key] = built
            return built
        except (ConfigurationError, SolverError) as error:
            last_error = error
    raise ConfigurationError(
        f"could not build a feasible horizon after {max_regenerations} "
        f"attempts (seed {seed}): {last_error}"
    )


# Horizon builds are expensive (feasibility repair solves MILPs) and the
# figure sweeps request the same (scenario, seed, sigma) repeatedly —
# memoization is safe because scenarios and the built horizons are
# immutable.
_HORIZON_CACHE: dict[tuple[PaperScenario, int, float], HorizonScenario] = {}


def _build_horizon_once(
    scenario: PaperScenario,
    seed: int,
    *,
    estimation_sigma: float,
) -> HorizonScenario:
    rng = np.random.default_rng(seed)
    config = scenario.market_config()
    capacities = generate_capacities(
        config, rng, capacity_range=scenario.capacity_range
    )
    estimator = NoisyOracleEstimator(
        rng=np.random.default_rng(seed + 999_983), sigma=estimation_sigma
    )
    rounds_true = []
    rounds_estimated = []
    for _ in range(scenario.rounds):
        instance = generate_round(config, rng)
        rounds_true.append(instance)
        estimated = estimator.estimate(instance.demand)
        estimated = _clamp_to_coverage(estimated, instance)
        rounds_estimated.append(
            WSPInstance(
                bids=instance.bids,
                demand=estimated,
                price_ceiling=instance.price_ceiling,
            )
        )
    # Conservative estimation means estimated >= true demand per buyer, so
    # repairing against the estimated stream covers both views; the online
    # probe then guarantees neither MSOA nor MSOA-DA ever corners itself.
    capacities = repair_horizon_capacities(rounds_estimated, capacities)
    capacities = ensure_online_feasible(rounds_estimated, capacities)
    capacities = ensure_online_feasible(rounds_true, capacities)
    return HorizonScenario(
        rounds_estimated=tuple(rounds_estimated),
        rounds_true=tuple(rounds_true),
        capacities=capacities,
    )


def _clamp_to_coverage(
    demand: Mapping[int, int], instance: WSPInstance
) -> dict[int, int]:
    """Cap each buyer's demand at its guaranteed distinct-seller coverage.

    Counts only each seller's *first* bid: since at most one alternative
    bid per seller can win, the set of first bids is the one selection
    known to be simultaneously playable (the generator anchors its
    feasibility repair on it), so clamping to it keeps the estimated
    round feasible no matter how the estimator over-shoots.
    """
    bid0_covering: dict[int, set[int]] = {}
    for bid in instance.bids:
        if bid.index != 0:
            continue
        for buyer in bid.covered:
            bid0_covering.setdefault(buyer, set()).add(bid.seller)
    return {
        buyer: min(units, len(bid0_covering.get(buyer, ())))
        for buyer, units in demand.items()
        if units > 0 and bid0_covering.get(buyer)
    }
