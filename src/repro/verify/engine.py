"""The certification driver: registry mechanism → CertificationReport.

:func:`certify` takes any registered mechanism *by name*, generates a
seeded batch of market instances (the paper's Section V.A distribution,
scaled down for probe budgets), runs every applicable property check
from :mod:`repro.verify.properties`, and folds the evidence into one
:class:`~repro.verify.report.CertificationReport`.  The report's
``conforms`` flag compares the verdicts against the registry spec's
declared :attr:`~repro.core.registry.MechanismSpec.claims` — in both
directions: a claimed property must PASS, and an unclaimed property's
FAIL is recorded as expected rather than punished.

``single`` mechanisms get the full battery (monotonicity, critical
payments vs. the bisection oracle, misreport sweeps, IR, feasibility,
the LP approximation envelope); ``online`` mechanisms are driven over
whole generated horizons and certified for per-round feasibility,
capacity discipline, and IR; ``horizon`` benchmarks have no incentive
story to certify and are rejected.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.registry import (
    CERTIFIABLE_PROPERTIES,
    MechanismSpec,
    get_spec,
    list_mechanisms,
    make_online,
)
from repro.core.ssam import PaymentRule
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.verify.properties import (
    SINGLE_ROUND_CHECKS,
    CheckSettings,
    MechanismUnderTest,
)
from repro.verify.report import (
    CertificationReport,
    PropertyResult,
    PropertyStatus,
    Violation,
    _result_from_violations,
)
from repro.workload.bidgen import (
    MarketConfig,
    ensure_online_feasible,
    generate_horizon,
    generate_round,
)

__all__ = ["certify", "certify_all", "certifiable_mechanisms", "PROPERTY_ORDER"]

#: Report order — cheap structural checks first, counterfactual probes last.
PROPERTY_ORDER = (
    "feasibility",
    "individual-rationality",
    "monotonicity",
    "critical-payment",
    "truthfulness",
    "approximation",
)

#: Properties the online horizon driver can evaluate; the single-round
#: counterfactual probes are meaningless online (round ``t``'s scaled
#: prices depend on the whole history before it).
ONLINE_PROPERTIES = ("feasibility", "individual-rationality")

_DEFAULT_MARKET = MarketConfig(n_sellers=8, n_buyers=3, bids_per_seller=2)
_ONLINE_ROUNDS = 3


def certifiable_mechanisms() -> list[str]:
    """Registry names :func:`certify` accepts (single + online kinds)."""
    return list_mechanisms("single") + list_mechanisms("online")


def _resolve_properties(
    requested: Iterable[str] | None, allowed: Sequence[str]
) -> list[str]:
    if requested is None:
        return list(allowed)
    resolved = []
    for name in requested:
        if name not in CERTIFIABLE_PROPERTIES:
            raise ConfigurationError(
                f"unknown property {name!r}; certifiable: "
                f"{sorted(CERTIFIABLE_PROPERTIES)}"
            )
        if name in allowed:
            resolved.append(name)
    return resolved


def _instance_seed(seed: int, index: int) -> int:
    """A stable per-instance sub-seed (also pins stochastic mechanisms)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _base_options(
    spec: MechanismSpec, *, engine: str | None, instance_seed: int
) -> dict[str, Any]:
    """Mechanism options the spec accepts, resolved for one instance."""
    options: dict[str, Any] = {}
    if engine is not None and "engine" in spec.options:
        options["engine"] = engine
    if "seed" in spec.options:
        options["seed"] = instance_seed
    return options


def _mechanism_under_test(
    spec: MechanismSpec, *, engine: str | None, instance_seed: int
) -> MechanismUnderTest:
    """Wire a spec into runner + cheap allocator for the probes."""
    loaded = spec.loader()
    run_options = _base_options(spec, engine=engine, instance_seed=instance_seed)
    allocate_options = dict(run_options)
    if "payment_rule" in spec.options:
        # Allocation is payment-independent; the runner-up rule skips the
        # critical re-runs, making win/lose probes ~|winners|× cheaper.
        allocate_options["payment_rule"] = PaymentRule.ITERATION_RUNNER_UP

    def runner(instance):
        return loaded(instance, **run_options)

    def allocate(instance):
        return loaded(instance, **allocate_options).winner_keys

    return MechanismUnderTest(name=spec.name, runner=runner, allocate=allocate)


def certify(
    mechanism: str,
    *,
    instances: int = 50,
    seed: int = 0,
    properties: Iterable[str] | None = None,
    market: MarketConfig | None = None,
    engine: str | None = None,
    settings: CheckSettings | None = None,
) -> CertificationReport:
    """Certify one registered mechanism against the paper's properties.

    Parameters
    ----------
    mechanism:
        Registry name (``single`` or ``online`` kind).
    instances:
        Batch size: generated single-round markets (or, for online
        mechanisms, generated multi-round horizons).
    seed:
        Root seed; instance ``i`` derives its market and any stochastic
        mechanism's seed from ``(seed, i)``, so reports are reproducible.
    properties:
        Subset of properties to evaluate (default: all applicable).
    market:
        Market generator knobs (default: a small, probe-friendly market).
    engine:
        Forwarded as the ``engine=`` option to mechanisms that accept it
        (SSAM's ``columnar`` / ``reference`` engines).
    """
    if instances <= 0:
        raise ConfigurationError(
            f"instances must be positive, got {instances}"
        )
    spec = get_spec(mechanism)
    if spec.kind == "horizon":
        raise ConfigurationError(
            f"mechanism {mechanism!r} is a clairvoyant horizon benchmark; "
            "it has no incentive properties to certify"
        )
    market = market or _DEFAULT_MARKET
    settings = settings or CheckSettings()
    if spec.kind == "online":
        return _certify_online(
            spec,
            instances=instances,
            seed=seed,
            properties=properties,
            market=market,
            engine=engine,
            settings=settings,
        )
    return _certify_single(
        spec,
        instances=instances,
        seed=seed,
        properties=properties,
        market=market,
        engine=engine,
        settings=settings,
    )


def _certify_single(
    spec: MechanismSpec,
    *,
    instances: int,
    seed: int,
    properties: Iterable[str] | None,
    market: MarketConfig,
    engine: str | None,
    settings: CheckSettings,
) -> CertificationReport:
    names = _resolve_properties(properties, PROPERTY_ORDER)
    checked = {name: 0 for name in names}
    violations: dict[str, list[Violation]] = {name: [] for name in names}
    skipped_instances = 0
    for index in range(instances):
        rng = np.random.default_rng([seed, index])
        instance = generate_round(market, rng)
        mut = _mechanism_under_test(
            spec, engine=engine, instance_seed=_instance_seed(seed, index)
        )
        try:
            outcome = mut.runner(instance)
        except InfeasibleInstanceError:
            # A typed, loud give-up (e.g. the random baseline stranding a
            # buyer) is allowed; only silent property breaches count.
            skipped_instances += 1
            continue
        for name in names:
            count, found = SINGLE_ROUND_CHECKS[name](
                mut, instance, outcome, index, settings
            )
            checked[name] += count
            violations[name].extend(found)
    results = tuple(
        _result_from_violations(
            name,
            checked=checked[name],
            claimed=name in spec.claims,
            violations=violations[name],
            note=(
                "mechanism publishes no ratio bound"
                if name == "approximation" and checked[name] == 0
                else ""
            ),
        )
        for name in names
    )
    return CertificationReport(
        mechanism=spec.name,
        kind=spec.kind,
        seed=seed,
        instances=instances,
        results=results,
        market=_market_summary(market, skipped_instances),
    )


def _certify_online(
    spec: MechanismSpec,
    *,
    instances: int,
    seed: int,
    properties: Iterable[str] | None,
    market: MarketConfig,
    engine: str | None,
    settings: CheckSettings,
) -> CertificationReport:
    names = _resolve_properties(properties, PROPERTY_ORDER)
    checked = {name: 0 for name in names}
    violations: dict[str, list[Violation]] = {name: [] for name in names}
    for index in range(instances):
        rng = np.random.default_rng([seed, index])
        horizon, capacities = generate_horizon(
            market, rng, rounds=_ONLINE_ROUNDS
        )
        # The paper's evaluation conditions on markets the online
        # mechanism can serve; certification measures properties, not
        # generator luck, so capacities are repaired the same way.
        capacities = ensure_online_feasible(horizon, capacities)
        options = _base_options(
            spec, engine=engine, instance_seed=_instance_seed(seed, index)
        )
        auctioneer = make_online(
            spec.name, capacities, on_infeasible="raise", **options
        )
        rounds = [auctioneer.process_round(instance) for instance in horizon]
        online = auctioneer.finalize()
        if "feasibility" in names:
            for round_result in rounds:
                checked["feasibility"] += 1
                unmet = round_result.outcome.unmet_units
                if unmet > 0:
                    violations["feasibility"].append(Violation(
                        instance_index=index,
                        detail=(
                            f"round {round_result.round_index} left {unmet} "
                            "demand units uncovered"
                        ),
                        observed=float(unmet),
                        expected=0.0,
                    ))
            checked["feasibility"] += 1
            for seller, used in online.capacity_used.items():
                capacity = online.capacities.get(seller)
                if capacity is not None and used > capacity:
                    violations["feasibility"].append(Violation(
                        instance_index=index,
                        detail=(
                            f"seller {seller} committed {used} units over "
                            f"its long-run capacity {capacity}"
                        ),
                        observed=float(used),
                        expected=float(capacity),
                    ))
        if "individual-rationality" in names:
            for round_result in rounds:
                for winner in round_result.outcome.winners:
                    checked["individual-rationality"] += 1
                    if winner.payment < winner.bid.price - settings.tolerance:
                        violations["individual-rationality"].append(Violation(
                            instance_index=index,
                            bid_key=winner.bid.key,
                            detail=(
                                f"round {round_result.round_index} winner "
                                f"paid {winner.payment:.6f} below its "
                                f"selection price {winner.bid.price:.6f}"
                            ),
                            observed=winner.payment,
                            expected=winner.bid.price,
                        ))
    results = []
    for name in names:
        if name not in ONLINE_PROPERTIES:
            results.append(PropertyResult(
                name=name,
                status=PropertyStatus.SKIP,
                checked=0,
                claimed=name in spec.claims,
                note="not applicable to online mechanisms",
            ))
            continue
        results.append(_result_from_violations(
            name,
            checked=checked[name],
            claimed=name in spec.claims,
            violations=violations[name],
        ))
    return CertificationReport(
        mechanism=spec.name,
        kind=spec.kind,
        seed=seed,
        instances=instances,
        results=tuple(results),
        market=_market_summary(market, 0, rounds=_ONLINE_ROUNDS),
    )


def _market_summary(
    market: MarketConfig, skipped_instances: int, *, rounds: int | None = None
) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "n_sellers": market.n_sellers,
        "n_buyers": market.n_buyers,
        "bids_per_seller": market.bids_per_seller,
        "skipped_instances": skipped_instances,
    }
    if rounds is not None:
        summary["rounds"] = rounds
    return summary


def certify_all(
    *,
    instances: int = 25,
    seed: int = 0,
    properties: Iterable[str] | None = None,
    market: MarketConfig | None = None,
    engine: str | None = None,
    settings: CheckSettings | None = None,
) -> list[CertificationReport]:
    """Certify every certifiable registry mechanism (the CI sweep)."""
    return [
        certify(
            name,
            instances=instances,
            seed=seed,
            properties=properties,
            market=market,
            engine=engine,
            settings=settings,
        )
        for name in certifiable_mechanisms()
    ]
