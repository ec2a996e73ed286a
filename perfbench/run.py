"""Run one benchmark workload; print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_shard --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` spends a third of ``--seconds`` on an untraced run, then
replays exactly the same rounds with a timing wrapper around every layer
call and once more without, checks that all three cleared identical
rounds, writes the spans to ``perfbench/out/`` and reports the
per-layer metrics.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 1 when an output check failed and 2 when the program
cannot be imported (e.g. outside a checkout of the repository).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"

MIN_ROUNDS = 100  # at least ten rounds beyond p90
# Fresh interpreters timing the program import, half before the run and
# half after it: the machine's speed drifts over tens of seconds, and
# samples from both ends of a run straddle the drift.
IMPORT_SAMPLES = 6

E2E_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "success_share": "share",
    "peak_rss_mb": "MB",
    "cost_per_unit": "price/unit",
    "payment_per_unit": "price/unit",
    "coverage": "share",
}


def import_seconds(samples: int) -> list[float]:
    """Times to import the program, each in a fresh interpreter.

    The interpreters run one after another, never during a timed round.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t)")
    return [
        float(subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(samples)
    ]


def end_to_end(run, import_s: float) -> dict[str, float]:
    """The nine end-to-end metrics of an untraced run."""
    from workloads import percentile

    samples = run.round_samples_ms() or [0.0]
    return {
        "setup_s": import_s + statistics.median(run.setup_s),
        "rounds_per_s": run.rounds_per_s,
        "round_ms_p50": percentile(samples, 50),
        "round_ms_p90": percentile(samples, 90),
        "success_share": (run.attempted - run.failed) / max(run.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cost_per_unit": run.cost / run.covered if run.covered else 0.0,
        "payment_per_unit": run.payment / run.covered if run.covered else 0.0,
        "coverage": run.covered / run.demanded if run.demanded else 0.0,
    }


@dataclass
class Result:
    attempted: int
    failed: int
    errors: list[str]  # failed output checks
    notes: list[str]  # failed rounds (counted, not errors)
    metrics: dict[str, tuple[float, str]]


def measure(workload, seconds: float) -> Result:
    imports = import_seconds(IMPORT_SAMPLES // 2)
    run = workload.run(
        seconds, min_rounds=max(MIN_ROUNDS, workload.econ_rounds)
    )
    workload.verify(run)
    imports += import_seconds(IMPORT_SAMPLES - IMPORT_SAMPLES // 2)
    metrics = end_to_end(run, statistics.median(imports))
    cleared = sum(run.ok)
    if cleared < MIN_ROUNDS:
        run.note_failure(f"only {cleared} successful rounds: "
                         "p90 has fewer than ten beyond it")
    print(f"{workload.name}: {cleared} round samples "
          f"({run.attempted} attempted, {run.failed} failed); wall-clock "
          f"p50 {statistics.median(run.elapsed_s) * 1e3:.2f} ms and "
          f"{run.wall_rounds_per_s:.3f} rounds/s, scaled "
          f"p50 {metrics['round_ms_p50']:.2f} ms", file=sys.stderr)
    return Result(run.attempted, run.failed, run.errors, run.notes,
                  {name: (value, E2E_UNITS[name])
                   for name, value in metrics.items()})


def measure_traced(workload, seconds: float, spans_path: Path) -> Result:
    """Untraced, traced, untraced again over the same rounds.

    Bracketing the traced run between two untraced ones keeps warm-up
    and drift of the machine out of ``trace.overhead_share``.
    """
    from workloads import percentile
    from tracing import (
        LAYER_UNITS,
        SpanRecorder,
        installed,
        layer_metrics,
        targets,
        write_spans,
    )

    minimum = workload.trace_rounds
    before = workload.run(seconds / 3, min_rounds=minimum)
    workload.verify(before)
    played = len(before.digests)
    recorder = SpanRecorder()
    with installed(recorder, targets()):
        traced = workload.run(0.0, min_rounds=minimum, rounds=played,
                              recorder=recorder)
    after = workload.run(0.0, min_rounds=minimum, rounds=played)
    runs = (before, traced, after)
    errors = [e for run in runs for e in run.errors]
    if not before.digests == traced.digests == after.digests:
        errors.append("traced and untraced runs cleared different rounds")
    silent = sorted(workload.expected_spans - set(recorder.fired))
    if silent:
        errors.append(f"wrappers never fired: {silent}")
    extras = workload.layer_extras(before)
    untraced_busy = (before.busy_s + after.busy_s) / 2
    extras["trace.overhead_share"] = traced.busy_s / untraced_busy - 1.0
    # Unscaled figures of the first untraced run, to cross-check the
    # scaled ones against.
    extras["wall.rounds_per_s"] = before.wall_rounds_per_s
    extras["wall.round_ms_p50"] = percentile(before.wall_samples_ms(), 50)
    extras["probe.ms"] = statistics.median(before.probe_s) * 1e3
    metrics = layer_metrics(
        recorder,
        round_scales=traced.scales(),
        round_seconds=traced.busy_s,
        extras=extras,
    )
    write_spans(recorder, spans_path)
    print(f"{workload.name}: {len(recorder.spans)} spans over "
          f"{len(traced.digests)} traced rounds written to {spans_path}",
          file=sys.stderr)
    # The three runs play the same rounds (their digests are checked
    # equal, failed rounds included), so each is counted once.
    return Result(
        before.attempted,
        before.failed,
        errors,
        [n for run in runs for n in run.notes],
        {name: (value, LAYER_UNITS[name]) for name, value in metrics.items()},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream_shard", "wide_market", "serve_tcp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        result = measure_traced(workload, args.seconds, spans_path)
    else:
        result = measure(workload, args.seconds)
    for message in result.errors:
        print(f"check failed: {message}", file=sys.stderr)
    for message in result.notes:
        print(f"failed round: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if not result.errors else 1


if __name__ == "__main__":
    sys.exit(main())
