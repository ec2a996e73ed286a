"""The MSOA evaluation variants of Section V: MSOA-DA, MSOA-RC, MSOA-OA.

The paper compares plain MSOA against three tuned configurations:

* **MSOA-DA** — "with optimal demand estimation scheme": the per-round
  demand fed to the auction is the *true* resource requirement rather than
  the Section-III estimate (which over- or under-shoots under bursty
  workloads).
* **MSOA-RC** — "with higher resource capacity values": every seller's
  long-run capacity ``Θᵢ`` is inflated by a relaxation factor, modelling a
  platform that negotiated larger sharing commitments.
* **MSOA-OA** — both adjustments at once.

A :class:`HorizonScenario` carries the two demand views (estimated and
true) plus the baseline capacities, so all four mechanisms can run on
*identical* bid streams and differ only in what the variant changes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.msoa import run_msoa
from repro.core.outcomes import OnlineOutcome
from repro.core.ssam import PaymentRule
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError

__all__ = [
    "HorizonScenario",
    "run_msoa_base",
    "run_msoa_da",
    "run_msoa_rc",
    "run_msoa_oa",
    "VARIANT_RUNNERS",
]


@dataclass(frozen=True)
class HorizonScenario:
    """A full online horizon with both demand views.

    Attributes
    ----------
    rounds_estimated:
        Per-round instances whose demands come from the demand estimator —
        what the plain online mechanism observes.
    rounds_true:
        The same rounds with oracle (true) demands — what the DA/OA
        variants are allowed to use.
    capacities:
        Baseline long-run sharing capacities ``Θᵢ``.
    """

    rounds_estimated: tuple[WSPInstance, ...]
    rounds_true: tuple[WSPInstance, ...]
    capacities: Mapping[int, int]

    def __post_init__(self) -> None:
        if len(self.rounds_estimated) != len(self.rounds_true):
            raise ConfigurationError(
                "estimated and true horizons must have the same number of "
                f"rounds, got {len(self.rounds_estimated)} vs "
                f"{len(self.rounds_true)}"
            )


def _relaxed(capacities: Mapping[int, int], factor: float) -> dict[int, int]:
    if factor < 1.0:
        raise ConfigurationError(
            f"capacity relaxation factor must be >= 1, got {factor}"
        )
    return {seller: int(math.ceil(cap * factor)) for seller, cap in capacities.items()}


def _run_variant(
    scenario: HorizonScenario,
    *,
    true_demand: bool,
    relaxation: float | None = None,
    **msoa_options,
) -> OnlineOutcome:
    """Run MSOA on one demand view, optionally with relaxed capacities."""
    rounds = scenario.rounds_true if true_demand else scenario.rounds_estimated
    capacities = scenario.capacities
    if relaxation is not None:
        capacities = _relaxed(capacities, relaxation)
    return run_msoa(rounds, capacities, **msoa_options)


def run_msoa_base(
    scenario: HorizonScenario,
    *,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    on_infeasible: str = "best_effort",
    faults=None,
    resilience=None,
) -> OnlineOutcome:
    """Plain MSOA: estimated demands, baseline capacities."""
    return _run_variant(
        scenario, true_demand=False, payment_rule=payment_rule,
        engine=engine, on_infeasible=on_infeasible, faults=faults,
        resilience=resilience,
    )


def run_msoa_da(
    scenario: HorizonScenario,
    *,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    on_infeasible: str = "best_effort",
    faults=None,
    resilience=None,
) -> OnlineOutcome:
    """MSOA-DA: oracle demands, baseline capacities."""
    return _run_variant(
        scenario, true_demand=True, payment_rule=payment_rule,
        engine=engine, on_infeasible=on_infeasible, faults=faults,
        resilience=resilience,
    )


def run_msoa_rc(
    scenario: HorizonScenario,
    *,
    relaxation: float = 2.0,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    on_infeasible: str = "best_effort",
    faults=None,
    resilience=None,
) -> OnlineOutcome:
    """MSOA-RC: estimated demands, capacities inflated by ``relaxation``."""
    return _run_variant(
        scenario, true_demand=False, relaxation=relaxation,
        payment_rule=payment_rule, engine=engine,
        on_infeasible=on_infeasible, faults=faults, resilience=resilience,
    )


def run_msoa_oa(
    scenario: HorizonScenario,
    *,
    relaxation: float = 2.0,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
    engine: str = "columnar",
    on_infeasible: str = "best_effort",
    faults=None,
    resilience=None,
) -> OnlineOutcome:
    """MSOA-OA: oracle demands *and* relaxed capacities."""
    return _run_variant(
        scenario, true_demand=True, relaxation=relaxation,
        payment_rule=payment_rule, engine=engine,
        on_infeasible=on_infeasible, faults=faults, resilience=resilience,
    )


VARIANT_RUNNERS = {
    "MSOA": run_msoa_base,
    "MSOA-DA": run_msoa_da,
    "MSOA-RC": run_msoa_rc,
    "MSOA-OA": run_msoa_oa,
}
"""Name → runner mapping used by the figure-5a experiment sweep."""
