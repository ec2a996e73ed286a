"""Perf-regression harness for the auction engine.

Times the columnar production engine (:mod:`repro.core.columnar`)
against the reference rescan-everything loop on representative
instances — the Figure-4(b) microservice sweep plus a large-n stress
case where the O(n²m) critical-payment phase dominates — and emits
``BENCH_engine.json`` so future PRs can track the trajectory (and CI can
flag regressions by diffing the recorded speedups).

Every timed pair is also checked for outcome equivalence through the
shared ``AuctionOutcome.to_dict()`` schema: a speedup that changes
winners, payments, or dual certificates is a bug, not a win.

Run from the CLI::

    repro-edge-auction bench                 # full harness
    repro-edge-auction bench --quick         # reduced cases (CI-sized)
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from dataclasses import dataclass

import numpy as np

from repro.core.ssam import PaymentRule, run_ssam
from repro.errors import ConfigurationError
from repro.workload.bidgen import MarketConfig, generate_round

__all__ = ["EngineBenchCase", "run_engine_bench", "write_engine_bench"]

BENCH_PATH = "BENCH_engine.json"
"""Default output file (repo root); tracked so the trajectory is visible."""


@dataclass(frozen=True)
class EngineBenchCase:
    """One timed market instance of the engine bench.

    ``repeats`` controls best-of-N timing (minimum over repeats, the
    standard way to suppress scheduler noise in micro-benchmarks).
    """

    name: str
    config: MarketConfig
    seed: int = 2019
    repeats: int = 3


def _fig4b_case(n_sellers: int, repeats: int) -> EngineBenchCase:
    return EngineBenchCase(
        name=f"fig4b_s{n_sellers}",
        config=MarketConfig(n_sellers=n_sellers),
        repeats=repeats,
    )


def default_cases(*, quick: bool = False) -> list[EngineBenchCase]:
    """The Figure-4(b) sweep plus the large-n stress case.

    ``quick`` shrinks the sweep and the stress case to CI-sized runs
    while keeping the same qualitative coverage.
    """
    if quick:
        sweep = [_fig4b_case(n, repeats=2) for n in (25, 45)]
        stress_config = MarketConfig(
            n_sellers=100,
            n_buyers=12,
            demand_units_range=(2, 5),
            coverage_range=(1, 4),
        )
        sweep.append(
            EngineBenchCase(name="stress_large_n", config=stress_config, repeats=1)
        )
        return sweep
    sweep = [_fig4b_case(n, repeats=3) for n in (25, 35, 45, 55, 65, 75)]
    stress_config = MarketConfig(
        n_sellers=400,
        n_buyers=40,
        demand_units_range=(3, 8),
        coverage_range=(1, 5),
    )
    sweep.append(
        EngineBenchCase(name="stress_large_n", config=stress_config, repeats=1)
    )
    return sweep


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_engine_bench(
    *,
    quick: bool = False,
    cases: list[EngineBenchCase] | None = None,
) -> dict:
    """Time every case on both engines and return the bench payload.

    Per case: wall-clock for the reference and columnar engines under
    ``PaymentRule.CRITICAL_RERUN``, the rule whose per-winner replays
    dominate runtime, plus an equivalence verdict comparing the two
    engines' full outcome dicts.
    """
    if cases is None:
        cases = default_cases(quick=quick)
    results: list[dict] = []
    for case in cases:
        rng = np.random.default_rng(case.seed)
        instance = generate_round(case.config, rng)

        def ssam(engine):
            return run_ssam(
                instance, payment_rule=PaymentRule.CRITICAL_RERUN, engine=engine
            )

        columnar_outcome = ssam("columnar")
        equivalent = ssam("reference").to_dict() == columnar_outcome.to_dict()
        reference_s = _best_of(case.repeats, lambda: ssam("reference"))
        columnar_s = _best_of(case.repeats, lambda: ssam("columnar"))
        results.append(
            {
                "case": case.name,
                "bids": len(instance.bids),
                "demand_units": instance.total_demand,
                "winners": len(columnar_outcome.winners),
                "equivalent": equivalent,
                "reference_ms": reference_s * 1000.0,
                "columnar_ms": columnar_s * 1000.0,
                "speedup_columnar": (
                    reference_s / columnar_s if columnar_s > 0 else None
                ),
            }
        )
    return {
        "bench": "engine",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": results,
    }


def write_engine_bench(
    payload: dict, path: str | pathlib.Path = BENCH_PATH
) -> pathlib.Path:
    """Write a bench payload to disk (default: ``BENCH_engine.json``)."""
    target = pathlib.Path(path)
    try:
        target.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as error:
        raise ConfigurationError(
            f"cannot write bench results to {target}: {error}"
        ) from error
    return target


def render_engine_bench(payload: dict) -> str:
    """A terminal-friendly summary of one bench payload."""
    lines = [
        f"engine bench (quick={payload['quick']})",
        f"{'case':<16} {'bids':>5} {'ref ms':>9} {'col ms':>9} "
        f"{'speedup':>8} {'equal':>6}",
    ]
    for row in payload["cases"]:
        lines.append(
            f"{row['case']:<16} {row['bids']:>5} {row['reference_ms']:>9.2f} "
            f"{row['columnar_ms']:>9.2f} {row['speedup_columnar']:>7.1f}x "
            f"{str(row['equivalent']):>6}"
        )
    return "\n".join(lines)
