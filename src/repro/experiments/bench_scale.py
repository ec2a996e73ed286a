"""Scale bench: the columnar kernels at 10^4–10^5 bids.

Where :mod:`repro.experiments.bench_engine` tracks the columnar engine
against the reference oracle on paper-sized markets, this tier measures
the regime the columnar core was built for — bid counts two to three
orders of magnitude past the paper's sweeps:

* single-round cases at 10^4 and 10^5 bids timing the reference loop
  (where affordable) and the columnar engine with its batched
  critical-payment kernel, plus isolated payment-phase timings (the
  reference engine's per-winner serial replays, where affordable, vs.
  one batched prefix-sharing pass);
* an MSOA horizon with stable round structure and ample capacities,
  timing the incremental layout carry (price-column refresh on cache
  hit) against a cold rebuild every round;
* a *sharded streaming* MSOA horizon (:mod:`repro.shard`): a lazy
  region-structured bid stream cleared by
  :class:`~repro.shard.msoa.ShardedOnlineAuction` in bounded memory.
  The full tier runs 10^6 demand units and reports auctions/sec and
  p99 round latency; the quick tier times the same pipeline against an
  unsharded run of the identical horizon and gates the throughput
  *ratio* (hardware-normalized, like every other gated metric).

Every timed pair is checked for outcome equivalence through
``AuctionOutcome.to_dict()`` — the columnar contract is bit-identity,
so a speedup that moves any winner, payment, or dual is a bug.  The
sharded quick case checks per-round winner *sets* instead: with no
cross-region bids the shard decomposition provably preserves the
selected winners, while critical payments are scoped to each shard's
own market (see ``docs/scaling.md``).

The payload is written to ``BENCH_scale.json`` (tracked at the repo
root) and CI re-runs the quick tier against the committed artifact,
failing on a >20% speedup regression via
:func:`check_scale_regression`; the committed file lists both shard
rows (``shard_1m`` and ``shard_quick``) and a fresh shard row is gated
against the one of the same case name.  The two sides of every gated
ratio are timed round-robin, and the gated value is
the median of the per-round ratios: a shared host's CPU speed drifts
for tens of seconds at a time, and timing one side's repeats before the
other's let that drift alone move a ratio past the 20% gate between runs
of the same code.  The millisecond columns stay best-of-N.

Run from the CLI::

    repro-edge-auction bench --scale            # full tier (10^5 + 10^6 cases)
    repro-edge-auction bench --scale --quick    # CI-sized tier
    repro-edge-auction bench --scale --quick --against BENCH_scale.json
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
from repro.shard.streaming import StreamConfig
from repro.workload.bidgen import MarketConfig, generate_round

__all__ = [
    "ScaleBenchCase",
    "ShardScaleCase",
    "default_scale_cases",
    "default_shard_case",
    "run_scale_bench",
    "write_scale_bench",
    "render_scale_bench",
    "load_scale_bench",
    "check_scale_regression",
]

SCALE_BENCH_PATH = "BENCH_scale.json"
"""Default output file (repo root); committed so CI can gate regressions."""

REGRESSION_TOLERANCE = 0.2
"""Allowed relative speedup drop before :func:`check_scale_regression`
flags a case (20%, absorbing runner noise without hiding real losses)."""


@dataclass(frozen=True)
class ScaleBenchCase:
    """One timed market instance of the scale bench.

    ``time_reference`` controls whether the O(n²)-ish reference loop is
    timed at all — at 10^5 bids it is prohibitively slow, so the large
    case reports only columnar timings and no ratios.  ``repeats`` is
    the number of round-robin timing rounds (see :func:`_interleaved`);
    each round runs the columnar engine :data:`_COLUMNAR_REPEATS` times
    and, in the payment-phase timing, the batched kernel
    :data:`_PAYMENT_REPEATS` times.
    """

    name: str
    config: MarketConfig
    seed: int = 2019
    repeats: int = 7
    time_reference: bool = True


# Back-to-back batched-kernel calls per payment-timing round, whose mean
# is the round's time: one ~5 ms call against seconds of reference
# replays is a sample a scheduler blip can double.  With one call the
# median ``payment_batch_speedup`` of unchanged code spread ~12% across
# runs on a shared 2-vCPU host; with 25, ~6%.
_PAYMENT_REPEATS = 25

# Back-to-back columnar ``run_ssam`` calls per timing round of a case
# with a reference side, for the same reason: one ~30 ms call against a
# ~3 s reference run let the median ``speedup_columnar`` of unchanged
# code spread 74.7–91.5×.
_COLUMNAR_REPEATS = 10


@dataclass(frozen=True)
class MsoaScaleCase:
    """The MSOA incrementality case: one market replayed for ``rounds``.

    Reusing one instance keeps the round *structure* stable (ψ only
    moves prices), so the incremental path degenerates to price-column
    refreshes — exactly the cache-hit regime the carry optimizes.
    Capacities are set far above total demand so no admissibility
    exclusion perturbs the structure mid-horizon.  Its ``repeats`` are
    25 round-robin rounds of ~0.4 s: with 7, the median
    ``incremental_speedup`` of unchanged code spread 10–22% across
    runs on a shared 2-vCPU host, as wide as the gate's 20% tolerance.
    """

    name: str
    config: MarketConfig
    rounds: int = 6
    seed: int = 7
    repeats: int = 25


def default_scale_cases(
    *, quick: bool = False
) -> tuple[list[ScaleBenchCase], MsoaScaleCase]:
    """The scale tier: 10^4-bid case (+10^5 on the full tier) and MSOA.

    The quick tier keeps the 10^4-bid case — including its reference
    timing, which anchors the committed artifact's speedup floor — and
    drops only the 10^5-bid case; every retained case is byte-identical
    in configuration to its full-tier twin so the CI regression gate
    compares like with like.
    """
    base = dict(n_buyers=16, demand_units_range=(1, 3), coverage_range=(1, 3))
    cases = [
        ScaleBenchCase(
            name="scale_10k",
            config=MarketConfig(n_sellers=5_000, **base),
        )
    ]
    if not quick:
        cases.append(
            ScaleBenchCase(
                name="scale_100k",
                config=MarketConfig(n_sellers=50_000, **base),
                time_reference=False,
            )
        )
    msoa = MsoaScaleCase(
        name="msoa_incremental",
        config=MarketConfig(
            n_sellers=2_000,
            n_buyers=12,
            demand_units_range=(1, 3),
            coverage_range=(1, 3),
        ),
    )
    return cases, msoa


@dataclass(frozen=True)
class ShardScaleCase:
    """The sharded streaming case: a lazy bid stream through
    :class:`~repro.shard.msoa.ShardedOnlineAuction`.

    ``shards=None`` gives one shard per stream region (the natural
    geographic plan); an explicit count folds regions round-robin.
    ``compare_unsharded`` additionally times the identical horizon
    through plain MSOA and checks per-round winner-set equality —
    affordable on the quick tier, prohibitive at 10^6 demand units
    (exactly like the reference engine at 10^5 bids).  ``repeats``
    horizons run per side, round-robin; ``sharded_speedup`` is the
    median of their per-repeat ratios.
    """

    name: str
    config: StreamConfig
    shards: int | None = None
    strategy: str = "region"
    seed: int = 2019
    repeats: int = 1
    compare_unsharded: bool = True


def default_shard_case(
    *, quick: bool = False, shards: int | None = None, strategy: str = "region"
) -> ShardScaleCase:
    """The shard tier's default case.

    Full tier: 1000 rounds × 16 regions × 25 buyers × mean demand 2.5 =
    10^6 expected demand units, sharded-only (streamed, bounded
    memory).  Quick tier: a small horizon with no cross-region bids,
    timed sharded *and* unsharded so the committed artifact carries a
    hardware-normalized ``sharded_speedup`` ratio for the CI gate.
    """
    if quick:
        return ShardScaleCase(
            name="shard_quick",
            config=StreamConfig(
                rounds=5,
                regions=4,
                buyers_per_region=40,
                sellers_per_region=120,
                demand_range=(2, 3),
                cross_region_fraction=0.0,
            ),
            shards=shards,
            strategy=strategy,
            repeats=3,
            compare_unsharded=True,
        )
    return ShardScaleCase(
        name="shard_1m",
        config=StreamConfig(
            rounds=1000,
            regions=16,
            buyers_per_region=25,
            sellers_per_region=75,
            demand_range=(2, 3),
            cross_region_fraction=0.05,
        ),
        shards=shards,
        strategy=strategy,
        compare_unsharded=False,
    )


def _interleaved(repeats: int, *fns) -> list[list[float]]:
    """Time ``fns`` round-robin for ``repeats`` rounds; seconds per fn.

    Each round runs every function back to back, so both sides of a
    ratio see the same stretch of machine speed.
    """
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(max(1, repeats)):
        for fn, times in zip(fns, samples):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return samples


def _best_ms(times: list[float] | None) -> float | None:
    """Best-of-N in milliseconds (None for an untimed side)."""
    return min(times) * 1000.0 if times is not None else None


def _median_ratio(slow: list[float], fast: list[float]) -> float | None:
    """Median over rounds of ``slow[i] / fast[i]`` (None on a 0 time)."""
    if min(fast) <= 0:
        return None
    return float(np.median(np.asarray(slow) / np.asarray(fast)))


def _run_single_case(case: ScaleBenchCase) -> dict:
    from repro.core.columnar import (
        ColumnarInstance,
        columnar_critical_payments,
        columnar_greedy_selection,
    )
    from repro.core.ssam import _critical_payment

    rng = np.random.default_rng(case.seed)
    instance = generate_round(case.config, rng)

    def _ssam(engine):
        return lambda: run_ssam(
            instance, payment_rule=PaymentRule.CRITICAL_RERUN, engine=engine
        )

    columnar = _ssam("columnar")
    columnar_outcome = columnar()
    # The mean of back-to-back calls only matters against a reference.
    repeats = _COLUMNAR_REPEATS if case.time_reference else 1
    runs = {"columnar": lambda: [columnar() for _ in range(repeats)]}
    equivalent = True
    if case.time_reference:
        equivalent = _ssam("reference")().to_dict() == columnar_outcome.to_dict()
        runs = {"reference": _ssam("reference"), **runs}
    timed = dict(zip(runs, _interleaved(case.repeats, *runs.values())))
    timed["columnar"] = [seconds / repeats for seconds in timed["columnar"]]
    reference_times = timed.get("reference")

    # Isolate the payment phase: the batched kernel vs. the reference
    # engine's per-winner serial replays.  Both start from the same
    # recorded trajectory (its states are never mutated, so every timed
    # call reads the same ones) and only the kernels differ.
    def recorded():
        layout = ColumnarInstance.build(instance.bids, instance.demand)
        return layout, columnar_greedy_selection(
            instance.bids, instance.demand, columnar=layout
        )

    # The first call on a fresh layout and trajectory also builds the
    # structure tables and stacked states the kernel caches on them.
    cold_times = []
    for _ in range(case.repeats):
        cinst, steps = recorded()
        start = time.perf_counter()
        columnar_critical_payments(
            instance, [step.bid for step in steps], columnar=cinst,
            trajectory=steps,
        )
        cold_times.append(time.perf_counter() - start)
    cinst, steps = recorded()
    winners = tuple(step.bid for step in steps)

    def batched():
        return columnar_critical_payments(
            instance, winners, columnar=cinst, trajectory=steps
        )

    payments = {
        "batched": lambda: [batched() for _ in range(_PAYMENT_REPEATS)],
    }
    if case.time_reference:
        payments["reference"] = lambda: [
            _critical_payment(instance, winner) for winner in winners
        ]
        equivalent = equivalent and payments["reference"]() == batched()
    payment_times = dict(
        zip(payments, _interleaved(case.repeats, *payments.values()))
    )
    payment_times["batched"] = [
        seconds / _PAYMENT_REPEATS for seconds in payment_times["batched"]
    ]
    reference_payment_times = payment_times.get("reference")
    return {
        "case": case.name,
        "bids": len(instance.bids),
        "demand_units": instance.total_demand,
        "winners": len(columnar_outcome.winners),
        "equivalent": equivalent,
        "reference_ms": _best_ms(reference_times),
        "columnar_ms": _best_ms(timed["columnar"]),
        "reference_payment_ms": _best_ms(reference_payment_times),
        "batched_payment_ms": _best_ms(payment_times["batched"]),
        "cold_payment_ms": _best_ms(cold_times),
        "speedup_columnar": (
            _median_ratio(reference_times, timed["columnar"])
            if reference_times is not None
            else None
        ),
        "payment_batch_speedup": (
            _median_ratio(reference_payment_times, payment_times["batched"])
            if reference_payment_times is not None
            else None
        ),
    }


def _run_msoa_case(case: MsoaScaleCase) -> dict:
    from repro.core.columnar import ColumnarInstance
    from repro.core.msoa import run_msoa

    rng = np.random.default_rng(case.seed)
    instance = generate_round(case.config, rng)
    rounds = [instance] * case.rounds
    sellers = {bid.seller for bid in instance.bids}
    # Ample capacity: no seller is ever excluded, so every round after
    # the first is a structural cache hit for the incremental path.
    capacities = {seller: 10 * instance.total_demand for seller in sellers}

    incremental = run_msoa(
        rounds, capacities, engine="columnar", columnar_incremental=True
    )
    cold = run_msoa(
        rounds, capacities, engine="columnar", columnar_incremental=False
    )
    equivalent = incremental.to_dict() == cold.to_dict()

    # SSAM alone on the last round's scaled instance and a prepared
    # layout: an incremental round without MSOA's own work around it.
    scaled = incremental.rounds[-1].outcome.instance
    layout = ColumnarInstance.build(
        scaled.bids, {b: u for b, u in scaled.demand.items() if u > 0}
    )

    def ssam_only():
        for _ in range(case.rounds):
            run_ssam(scaled, columnar=layout)

    incremental_times, cold_times, ssam_times = _interleaved(
        case.repeats,
        lambda: run_msoa(
            rounds, capacities, engine="columnar", columnar_incremental=True
        ),
        lambda: run_msoa(
            rounds, capacities, engine="columnar", columnar_incremental=False
        ),
        ssam_only,
    )
    incremental_s, cold_s = min(incremental_times), min(cold_times)
    return {
        "case": case.name,
        "bids": len(instance.bids),
        "rounds": case.rounds,
        "equivalent": equivalent,
        "incremental_ms": incremental_s * 1000.0,
        "cold_ms": cold_s * 1000.0,
        "incremental_ms_per_round": incremental_s * 1000.0 / case.rounds,
        "cold_ms_per_round": cold_s * 1000.0 / case.rounds,
        "incremental_speedup": _median_ratio(cold_times, incremental_times),
        "ssam_ms_per_round": min(ssam_times) * 1000.0 / case.rounds,
        "ssam_share": _median_ratio(ssam_times, incremental_times),
    }


def _shard_plan(case: ShardScaleCase):
    from repro.shard import make_plan
    from repro.shard.streaming import region_plan

    if case.strategy == "region":
        return region_plan(case.config, case.shards)
    n_shards = case.shards if case.shards is not None else case.config.regions
    return make_plan(case.strategy, n_shards)


def _run_shard_case(case: ShardScaleCase) -> dict:
    from repro.core.msoa import MultiStageOnlineAuction
    from repro.shard import ShardedOnlineAuction
    from repro.shard.streaming import stream_capacities, stream_rounds

    config = case.config
    plan = _shard_plan(case)
    capacities = stream_capacities(config)
    collect_keys = case.compare_unsharded

    def _horizon(auction):
        """One streamed pass; per-round clearing times (generation
        excluded on both sides, so the speedup ratio compares clearing
        with clearing)."""
        rng = np.random.default_rng(case.seed)
        times: list[float] = []
        totals = {"demand_units": 0, "bids": 0, "winners": 0}
        keys: list[frozenset] = []
        for instance in stream_rounds(config, rng):
            start = time.perf_counter()
            result = auction.process_round(instance)
            times.append(time.perf_counter() - start)
            totals["demand_units"] += instance.total_demand
            totals["bids"] += len(instance.bids)
            totals["winners"] += len(result.outcome.winners)
            if collect_keys:
                keys.append(
                    frozenset(w.bid.key for w in result.outcome.winners)
                )
        return times, totals, keys

    sharded_runs: list[tuple] = []
    unsharded_runs: list[tuple] = []

    def _sharded():
        auction = ShardedOnlineAuction(
            capacities,
            plan=plan,
            engine="columnar",
            on_infeasible="best_effort",
            retain_rounds=False,
        )
        sharded_runs.append((*_horizon(auction), auction.shard_stats))

    def _unsharded():
        auction = MultiStageOnlineAuction(
            capacities,
            engine="columnar",
            on_infeasible="best_effort",
            retain_rounds=False,
        )
        unsharded_runs.append(_horizon(auction))

    # Round-robin, like every other gated ratio: both horizons of a
    # repeat see the same stretch of machine speed.  The ratio compares
    # the horizons' clearing times, not _interleaved's wall times.
    _interleaved(
        case.repeats,
        *((_sharded, _unsharded) if case.compare_unsharded else (_sharded,)),
    )
    best_times, totals, sharded_keys, stats = min(
        sharded_runs, key=lambda run: sum(run[0])
    )
    total_s = sum(best_times)
    times_ms = np.asarray(best_times) * 1000.0

    unsharded_s = sharded_speedup = equivalent = None
    if case.compare_unsharded:
        unsharded_totals = [sum(run[0]) for run in unsharded_runs]
        unsharded_s = min(unsharded_totals)
        sharded_speedup = _median_ratio(
            unsharded_totals, [sum(run[0]) for run in sharded_runs]
        )
        equivalent = sharded_keys == unsharded_runs[-1][2]

    return {
        "case": case.name,
        "rounds": config.rounds,
        "shards": plan.n_shards,
        "strategy": case.strategy,
        "bids": totals["bids"],
        "demand_units": totals["demand_units"],
        "winners": totals["winners"],
        "cross_bids": sum(s.cross_bids for s in stats),
        "clamped_shards": sum(s.clamped_shards for s in stats),
        "total_s": total_s,
        "auctions_per_sec": config.rounds / total_s if total_s > 0 else None,
        "mean_round_ms": float(np.mean(times_ms)),
        "p99_round_ms": float(np.percentile(times_ms, 99)),
        "unsharded_s": unsharded_s,
        "sharded_speedup": sharded_speedup,
        "equivalent": equivalent,
    }


def run_scale_bench(
    *,
    quick: bool = False,
    cases: list[ScaleBenchCase] | None = None,
    msoa_case: MsoaScaleCase | None = None,
    shard_case: ShardScaleCase | None = None,
) -> dict:
    """Time the scale tier and return the bench payload."""
    default_cases, default_msoa = default_scale_cases(quick=quick)
    if cases is None:
        cases = default_cases
    if msoa_case is None:
        msoa_case = default_msoa
    if shard_case is None:
        shard_case = default_shard_case(quick=quick)
    return {
        "bench": "scale",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": [_run_single_case(case) for case in cases],
        "msoa": _run_msoa_case(msoa_case),
        "shard": _run_shard_case(shard_case),
    }


def write_scale_bench(
    payload: dict, path: str | pathlib.Path = SCALE_BENCH_PATH
) -> pathlib.Path:
    """Write a scale-bench payload to disk (default ``BENCH_scale.json``)."""
    target = pathlib.Path(path)
    try:
        target.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as error:
        raise ConfigurationError(
            f"cannot write bench results to {target}: {error}"
        ) from error
    return target


def load_scale_bench(path: str | pathlib.Path) -> dict:
    """Read a previously written scale-bench payload."""
    target = pathlib.Path(path)
    try:
        payload = json.loads(target.read_text())
    except OSError as error:
        raise ConfigurationError(
            f"cannot read bench baseline {target}: {error}"
        ) from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"bench baseline {target} is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict) or payload.get("bench") != "scale":
        raise ConfigurationError(
            f"bench baseline {target} is not a scale-bench payload"
        )
    return payload


def _fmt_ms(value: float | None) -> str:
    return f"{value:>10.1f}" if value is not None else f"{'-':>10}"


def _fmt_x(value: float | None) -> str:
    return f"{value:>7.1f}x" if value is not None else f"{'-':>8}"


def _shard_rows(payload: dict) -> list[dict]:
    """Shard rows: one in a fresh run, a list in the committed baseline."""
    shard = payload.get("shard") or []
    return shard if isinstance(shard, list) else [shard]


def _gated_ratios(payload: dict) -> dict[str, dict[str, float | None]]:
    """Every gated ratio in a payload, keyed case name → metric → value.

    This is the single source of truth for which cases exist — the
    ``--against`` comparison table iterates the *union* of these names
    from both payloads, so a case unknown to one side (e.g. a freshly
    added shard case) is surfaced as new/absent instead of silently
    skipped.
    """
    ratios: dict[str, dict[str, float | None]] = {}
    for row in payload.get("cases", []):
        ratios[row["case"]] = {key: row.get(key) for key in _SPEEDUP_KEYS}
    msoa = payload.get("msoa")
    if msoa:
        ratios[msoa["case"]] = {key: msoa.get(key) for key in _MSOA_KEYS}
    for shard in _shard_rows(payload):
        ratios[shard["case"]] = {
            "sharded_speedup": shard.get("sharded_speedup")
        }
    return ratios


def render_scale_bench(payload: dict, baseline: dict | None = None) -> str:
    """A terminal-friendly summary of one scale-bench payload.

    With ``baseline`` (the ``--against`` artifact) a comparison table of
    every gated ratio follows, covering the union of case names from
    both payloads: cases only in the fresh payload are marked ``(new)``,
    cases only in the baseline ``absent``.
    """
    lines = [
        f"scale bench (quick={payload['quick']})",
        f"{'case':<14} {'bids':>7} {'ref ms':>10} {'col ms':>10} "
        f"{'col/ref':>8} {'paybatch':>8} {'pay ms':>10} {'cold ms':>10} "
        f"{'equal':>6}",
    ]
    for row in payload["cases"]:
        lines.append(
            f"{row['case']:<14} {row['bids']:>7} "
            f"{_fmt_ms(row['reference_ms'])} "
            f"{_fmt_ms(row['columnar_ms'])} "
            f"{_fmt_x(row['speedup_columnar'])} "
            f"{_fmt_x(row['payment_batch_speedup'])} "
            f"{_fmt_ms(row['batched_payment_ms'])} "
            f"{_fmt_ms(row.get('cold_payment_ms'))} "
            f"{str(row['equivalent']):>6}"
        )
    msoa = payload.get("msoa")
    if msoa:
        lines.append(
            f"{msoa['case']:<14} {msoa['bids']:>7} x{msoa['rounds']} rounds: "
            f"incremental {msoa['incremental_ms_per_round']:.1f} ms/round "
            f"vs cold {msoa['cold_ms_per_round']:.1f} ms/round "
            f"({_fmt_x(msoa['incremental_speedup']).strip()}), "
            f"SSAM share {msoa.get('ssam_share') or 0:.2f}, "
            f"equal {msoa['equivalent']}"
        )
    for shard in _shard_rows(payload):
        throughput = shard.get("auctions_per_sec")
        lines.append(
            f"{shard['case']:<14} {shard['bids']:>7} x{shard['rounds']} "
            f"rounds, {shard['shards']} shards "
            f"({shard['demand_units']} demand units): "
            f"{throughput:.1f} auctions/sec, "
            f"p99 {shard['p99_round_ms']:.1f} ms/round"
            + (
                f", vs unsharded {_fmt_x(shard['sharded_speedup']).strip()}"
                f", winners equal {shard['equivalent']}"
                if shard.get("sharded_speedup") is not None
                else ""
            )
        )
    if baseline is not None:
        fresh, base = _gated_ratios(payload), _gated_ratios(baseline)
        lines.append("")
        lines.append("vs baseline (gated ratios):")
        lines.append(f"{'case':<18} {'metric':<22} {'base':>8} {'now':>8}")
        for name in [*fresh, *(n for n in base if n not in fresh)]:
            metrics = {**base.get(name, {}), **fresh.get(name, {})}
            for metric in metrics:
                old = base.get(name, {}).get(metric)
                new = fresh.get(name, {}).get(metric)
                old_s = _fmt_x(old) if name in base else f"{'(new)':>8}"
                new_s = _fmt_x(new) if name in fresh else f"{'absent':>8}"
                lines.append(f"{name:<18} {metric:<22} {old_s} {new_s}")
    return "\n".join(lines)


_SPEEDUP_KEYS = ("speedup_columnar", "payment_batch_speedup")
# ``ssam_share``: SSAM-only time ÷ incremental round time.  MSOA's own
# per-round work is the rest, so a drop means MSOA overhead came back.
_MSOA_KEYS = ("incremental_speedup", "ssam_share")


def check_scale_regression(
    payload: dict,
    baseline: dict,
    *,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[str]:
    """Compare a fresh payload against a committed baseline.

    Returns a (possibly empty) list of human-readable failures.  Only
    cases present in *both* payloads are compared (the quick tier omits
    the 10^5-bid case), and only speedup *ratios* are gated — absolute
    wall-clock shifts with the machine, but a ratio measured within one
    run is hardware-normalized.  Any non-equivalent case fails outright
    regardless of timing.
    """
    if not 0 <= tolerance < 1:
        raise ConfigurationError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
    failures: list[str] = []
    for row in payload.get("cases", []):
        if not row.get("equivalent", True):
            failures.append(f"{row['case']}: engines diverged")
    msoa = payload.get("msoa")
    if msoa and not msoa.get("equivalent", True):
        failures.append(
            f"{msoa['case']}: incremental and cold-rebuild diverged"
        )
    for shard in _shard_rows(payload):
        # `equivalent` is None when the unsharded twin was not run (the
        # 10^6-unit full tier); only an explicit False is a divergence.
        if shard.get("equivalent") is False:
            failures.append(
                f"{shard['case']}: sharded winners diverged from unsharded"
            )
    base_ratios = _gated_ratios(baseline)
    for case, ratios in _gated_ratios(payload).items():
        for key, new in ratios.items():
            old = base_ratios.get(case, {}).get(key)
            if new is None or old is None:
                continue
            if new < old * (1.0 - tolerance):
                failures.append(
                    f"{case}: {key} regressed {old:.2f}x -> {new:.2f}x "
                    f"(floor {old * (1.0 - tolerance):.2f}x)"
                )
    return failures
