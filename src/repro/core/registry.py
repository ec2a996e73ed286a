"""String-keyed registry of every mechanism this repo implements.

One dispatch surface for the comparative evaluation: experiments, the
edge platform, and the CLI all resolve mechanisms by name instead of
importing runners ad hoc, so a new mechanism plugs in by registering a
:class:`MechanismSpec` — no call-site edits.

Specs carry the economics metadata the paper's comparison tables need
(truthfulness, individual rationality, completeness, payment rule, the
paper reference) alongside a lazy loader, so importing this module stays
cheap and free of core ↔ baselines import cycles.

Kinds
-----
``single``
    One round: callable ``WSPInstance → AuctionOutcome`` (the
    :class:`~repro.core.mechanism.Mechanism` protocol).  Any single
    mechanism can also drive the multi-round loop via :func:`make_online`.
``online``
    Stateful per-round (the :class:`~repro.core.mechanism.OnlineMechanism`
    protocol); :func:`get_mechanism` returns the whole-horizon convenience
    runner (``rounds, capacities → OnlineOutcome``).
``horizon``
    Clairvoyant benchmarks over a full horizon
    (``rounds, capacities → OfflineOutcome``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "CERTIFIABLE_PROPERTIES",
    "MechanismSpec",
    "register",
    "get_spec",
    "get_mechanism",
    "list_mechanisms",
    "mechanism_specs",
    "make_online",
]


#: The economic properties :mod:`repro.verify` can certify.  A spec's
#: ``claims`` set must be a subset; the certification suite asserts every
#: claimed property PASSes and records failures of unclaimed properties
#: as *expected* (pay-as-bid failing truthfulness is a feature, not a bug).
CERTIFIABLE_PROPERTIES = frozenset({
    "monotonicity",
    "critical-payment",
    "truthfulness",
    "individual-rationality",
    "feasibility",
    "approximation",
})


@dataclass(frozen=True)
class MechanismSpec:
    """One registry entry: a mechanism's metadata plus its lazy loader.

    Attributes
    ----------
    name:
        The registry key (kebab-case).
    kind:
        ``"single"``, ``"online"``, or ``"horizon"`` (see module docs).
    summary:
        One-line description for listings.
    paper_ref:
        Where the mechanism comes from (paper section/algorithm, or the
        literature for textbook baselines).
    truthful:
        Whether truthful bidding is a dominant strategy under it.
    individually_rational:
        Whether winners are never paid below their announced price.
    complete:
        Whether it always covers full demand on feasible instances.
    payment_rule:
        Short name of the payment rule it applies.
    options:
        Keyword options its callable understands; dispatchers filter what
        they forward against this set.
    loader:
        Zero-argument callable resolving the mechanism callable; imports
        live inside it so registration never pulls heavy modules.
    claims:
        Which :data:`CERTIFIABLE_PROPERTIES` the mechanism is *expected*
        to satisfy.  :func:`repro.verify.certify` asserts every claimed
        property holds on generated instances, and reports failures of
        unclaimed properties as expected (both directions are checked).
    """

    name: str
    kind: str
    summary: str
    paper_ref: str
    truthful: bool
    individually_rational: bool
    complete: bool
    payment_rule: str
    loader: Callable[[], Callable[..., Any]]
    options: frozenset[str] = field(default_factory=frozenset)
    claims: frozenset[str] = field(default_factory=frozenset)


_REGISTRY: dict[str, MechanismSpec] = {}


def register(spec: MechanismSpec) -> MechanismSpec:
    """Add a spec to the registry (rejects duplicate names)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"mechanism {spec.name!r} is already registered"
        )
    if spec.kind not in ("single", "online", "horizon"):
        raise ConfigurationError(
            f"mechanism kind must be 'single', 'online' or 'horizon', "
            f"got {spec.kind!r}"
        )
    unknown_claims = set(spec.claims) - CERTIFIABLE_PROPERTIES
    if unknown_claims:
        raise ConfigurationError(
            f"mechanism {spec.name!r} claims unknown properties "
            f"{sorted(unknown_claims)}; certifiable: "
            f"{sorted(CERTIFIABLE_PROPERTIES)}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> MechanismSpec:
    """Look up a spec by name (ConfigurationError on unknown names)."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown mechanism {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return spec


def get_mechanism(name: str) -> Callable[..., Any]:
    """Resolve a mechanism callable by registry name.

    ``single`` mechanisms map one :class:`~repro.core.wsp.WSPInstance` to
    an :class:`~repro.core.outcomes.AuctionOutcome`; ``online`` and
    ``horizon`` mechanisms map ``(rounds, capacities)`` to their horizon
    outcome.
    """
    return get_spec(name).loader()


def list_mechanisms(kind: str | None = None) -> list[str]:
    """Registered mechanism names (optionally restricted to one kind)."""
    return [spec.name for spec in mechanism_specs(kind)]


def mechanism_specs(kind: str | None = None) -> list[MechanismSpec]:
    """Registered specs sorted by name (optionally one kind only)."""
    return sorted(
        (
            spec
            for spec in _REGISTRY.values()
            if kind is None or spec.kind == kind
        ),
        key=lambda spec: spec.name,
    )


def make_online(
    name: str,
    capacities: Mapping[int, int],
    *,
    on_infeasible: str = "raise",
    faults=None,
    resilience=None,
    **options: Any,
):
    """Build an :class:`~repro.core.mechanism.OnlineMechanism` by name.

    ``online`` mechanisms construct their native auctioneer; ``single``
    mechanisms are wrapped in a
    :class:`~repro.core.mechanism.SingleRoundOnlineAdapter` — MSOA's
    round loop with the mechanism as its clearing step and ``ψ ≡ 0`` —
    so any baseline drives the multi-round platform loop under MSOA's
    capacity discipline and accepts every ``on_infeasible`` value MSOA
    does.  Unknown keyword options (per the spec's ``options`` set) are
    rejected up front.

    ``faults`` (a :class:`~repro.faults.models.FaultPlan`) and
    ``resilience`` (a :class:`~repro.faults.policies.ResiliencePolicy`)
    activate fault injection and recovery uniformly across every
    mechanism kind — this shared keyword surface is what the resilience
    benchmark sweeps to compare SSAM against the baseline adapters under
    identical fault trajectories.
    """
    spec = get_spec(name)
    unknown = set(options) - set(spec.options)
    if unknown:
        raise ConfigurationError(
            f"mechanism {name!r} does not accept options "
            f"{sorted(unknown)}; accepted: {sorted(spec.options)}"
        )
    if spec.kind == "online":
        from repro.core.msoa import MultiStageOnlineAuction

        return MultiStageOnlineAuction(
            capacities,
            on_infeasible=on_infeasible,
            faults=faults,
            resilience=resilience,
            **options,
        )
    if spec.kind != "single":
        raise ConfigurationError(
            f"mechanism {name!r} is a {spec.kind} benchmark and cannot "
            "run as an online mechanism"
        )
    from repro.core.mechanism import SingleRoundOnlineAdapter

    return SingleRoundOnlineAdapter(
        spec.loader(),
        capacities,
        name=name,
        payment_rule=spec.payment_rule,
        on_infeasible=on_infeasible,
        options=options,
        faults=faults,
        resilience=resilience,
    )


# ----------------------------------------------------------------------
# built-in entries
# ----------------------------------------------------------------------
def _load_ssam():
    from repro.core.ssam import run_ssam

    return run_ssam


def _load_ssam_reference():
    import dataclasses

    from repro.core.ssam import run_ssam

    def run_ssam_reference(instance, **options):
        outcome = run_ssam(instance, engine="reference", **options)
        return dataclasses.replace(outcome, mechanism="ssam-reference")

    return run_ssam_reference


def _load_vcg():
    from repro.baselines.vcg import run_vcg

    return run_vcg


def _load_pay_as_bid():
    from repro.baselines.pay_as_bid import run_pay_as_bid

    return run_pay_as_bid


def _load_posted_price():
    from repro.baselines.fixed_pricing import run_posted_price

    def run_posted(instance, *, unit_price=None, **options):
        if unit_price is None:
            # Default to the public ceiling: the generous end of the
            # baseline (most likely to clear the market).
            unit_price = instance.effective_ceiling
        return run_posted_price(instance, unit_price=unit_price, **options)

    return run_posted


def _load_random():
    import numpy as np

    from repro.baselines.random_mechanism import run_random_selection

    def run_random(instance, *, rng=None, seed=0):
        if rng is None:
            rng = np.random.default_rng(seed)
        return run_random_selection(instance, rng)

    return run_random


def _load_greedy(variant: str):
    def load():
        from repro.baselines.greedy_variants import run_greedy_variant

        def run_variant(instance, **options):
            return run_greedy_variant(instance, variant=variant, **options)

        return run_variant

    return load


def _load_msoa():
    from repro.core.msoa import run_msoa

    return run_msoa


def _load_offline_milp():
    from repro.baselines.offline import run_offline_optimal

    return run_offline_optimal


def _load_offline_greedy():
    from repro.baselines.offline import run_offline_greedy

    return run_offline_greedy


register(MechanismSpec(
    name="ssam",
    kind="single",
    summary="single-stage auction mechanism (primal-dual greedy, columnar engine)",
    paper_ref="Algorithm 1, Theorems 2-6",
    truthful=True,
    individually_rational=True,
    complete=True,
    payment_rule="critical-value",
    loader=_load_ssam,
    options=frozenset({"payment_rule", "engine"}),
    claims=CERTIFIABLE_PROPERTIES,
))
register(MechanismSpec(
    name="ssam-reference",
    kind="single",
    summary="SSAM on the naive reference engine (correctness oracle)",
    paper_ref="Algorithm 1 (paper-literal loop)",
    truthful=True,
    individually_rational=True,
    complete=True,
    payment_rule="critical-value",
    loader=_load_ssam_reference,
    options=frozenset({"payment_rule"}),
    claims=CERTIFIABLE_PROPERTIES,
))
register(MechanismSpec(
    name="vcg",
    kind="single",
    summary="exact optimum with Clarke-pivot payments (gold standard)",
    paper_ref="Vickrey-Clarke-Groves over ILP (12)-(15)",
    truthful=True,
    individually_rational=True,
    complete=True,
    payment_rule="clarke-pivot",
    loader=_load_vcg,
    # Clarke-pivot payments are computed against the whole *seller*'s
    # removal, not one bid's price axis, so the per-bid bisection oracle
    # does not apply (critical-payment deliberately unclaimed).
    claims=frozenset({
        "monotonicity", "truthfulness", "individual-rationality",
        "feasibility", "approximation",
    }),
))
register(MechanismSpec(
    name="pay-as-bid",
    kind="single",
    summary="SSAM's greedy allocation, winners paid their announced price",
    paper_ref="payment-rule ablation (Fig. 3(b) context)",
    truthful=False,
    individually_rational=True,
    complete=True,
    payment_rule="pay-as-bid",
    loader=_load_pay_as_bid,
    options=frozenset({"engine"}),
    # Same monotone allocation as SSAM, but paying announced prices is
    # manipulable: truthfulness and critical payments are *expected* to
    # fail, and the certification suite records exactly that.
    claims=frozenset({
        "monotonicity", "individual-rationality", "feasibility",
    }),
))
register(MechanismSpec(
    name="posted-price",
    kind="single",
    summary="flat per-unit repurchasing price (the introduction's strawman)",
    paper_ref="Section I ('pricing' alternative)",
    truthful=True,
    individually_rational=False,
    complete=False,
    payment_rule="posted-price",
    loader=_load_posted_price,
    options=frozenset({"unit_price"}),
    # Selection keys off true per-unit cost, never the announced price,
    # so misreports are inert (truthful, monotone) — but the flat price
    # can under-cover demand and underpay high-price bids.
    claims=frozenset({"monotonicity", "truthfulness"}),
))
register(MechanismSpec(
    name="random",
    kind="single",
    summary="random feasible cover (sanity floor), pay-as-bid payments",
    paper_ref="comparison-band floor (not in the paper)",
    truthful=False,
    individually_rational=True,
    # No feasibility guard: a bad shuffle can strand a coverable buyer.
    complete=False,
    payment_rule="pay-as-bid",
    loader=_load_random,
    options=frozenset({"rng", "seed"}),
    # Selection is price-blind (a seeded shuffle), so re-pricing a bid
    # never costs it the win; payments equal announced prices.
    claims=frozenset({"monotonicity", "individual-rationality"}),
))
for _variant, _summary in (
    ("density", "SSAM's ranking key (reproduces its allocation)"),
    ("cheapest_price", "cheapest-announced-price-first ranking"),
    ("largest_coverage", "largest-marginal-coverage-first ranking"),
):
    register(MechanismSpec(
        name=f"greedy-{_variant.replace('_', '-')}",
        kind="single",
        summary=f"greedy cover, {_summary}",
        paper_ref="selection-rule ablation (Fig. 5(a)/6 context)",
        truthful=False,
        individually_rational=True,
        complete=True,
        payment_rule="pay-as-bid",
        loader=_load_greedy(_variant),
        # Every ranking key is non-increasing in the bid's own price, so
        # allocation stays monotone; pay-as-bid payments break
        # truthfulness exactly as they do for the pay-as-bid entry.
        claims=frozenset({
            "monotonicity", "individual-rationality", "feasibility",
        }),
    ))
register(MechanismSpec(
    name="msoa",
    kind="online",
    summary="multi-stage online auction (scarcity-priced per-round SSAM)",
    paper_ref="Algorithm 2, Theorem 7",
    truthful=True,
    individually_rational=True,
    complete=True,
    payment_rule="critical-value",
    loader=_load_msoa,
    options=frozenset({
        "alpha", "payment_rule", "engine", "faults", "resilience",
    }),
    # Online certification drives whole horizons: per-round coverage plus
    # capacity discipline (feasibility) and per-round IR are checkable;
    # the single-round counterfactual probes are not (round t's scaled
    # prices depend on rounds < t).
    claims=frozenset({"individual-rationality", "feasibility"}),
))
register(MechanismSpec(
    name="offline-milp",
    kind="horizon",
    summary="clairvoyant horizon optimum, ILP (7)-(11) via MILP",
    paper_ref="Definition 6 (competitive-ratio denominator)",
    truthful=False,
    individually_rational=False,
    complete=True,
    payment_rule="none (cost benchmark)",
    loader=_load_offline_milp,
))
register(MechanismSpec(
    name="offline-greedy",
    kind="horizon",
    summary="cheap clairvoyant upper bound (greedy at face prices)",
    paper_ref="offline heuristic for large sweeps (not in the paper)",
    truthful=False,
    individually_rational=False,
    complete=True,
    payment_rule="none (cost benchmark)",
    loader=_load_offline_greedy,
))
