"""Timing wrappers and per-layer metrics for the traced benchmark run.

The traced run installs a wrapper around each public call listed in
:func:`targets`, patched in the module or class that looks the name up
at call time (``repro.shard.ssam.partition_round``, not only
``repro.shard.plan.partition_round``).  Every call records one span —
name, parent span, round id, start, end and an optional detail — in
memory; :func:`write_spans` writes them out once the run has ended.
``repro.obs`` stays disabled throughout: spans inside the program are a
separate change.

A layer's *self* time is its span's duration minus the durations of its
direct child spans.  Parents are tracked per asyncio task through a
context variable, so frames written by seller agents on the same event
loop never nest under the orchestrator's round span.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

# Span record fields (a list, so the end time can be filled in place).
NAME, PARENT, ROUND, START, END, DETAIL = range(6)


class SpanRecorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round_id: int | None = None
        self.fired: dict[str, int] = defaultdict(int)
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    def begin(self, name: str) -> tuple[list, contextvars.Token]:
        record = [name, self._current.get(), self.round_id,
                  time.perf_counter(), 0.0, None]
        token = self._current.set(len(self.spans))
        self.spans.append(record)
        self.fired[name] += 1
        return record, token

    def end(self, record: list, token: contextvars.Token) -> None:
        record[END] = time.perf_counter()
        self._current.reset(token)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Sync wrapper; ``before(*args)`` runs ahead of the span and its
        value reaches ``after(state, result, *args)``, whose return value
        becomes the span's detail."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before is not None else None
            record, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record, token)
            if after is not None:
                record[DETAIL] = after(state, result, *args, **kwargs)
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            record, token = self.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end(record, token)

        return wrapper

    def wrap_write_frame(self, name: str, fn: Callable) -> Callable:
        """``write_frame`` wrapper whose detail is the bytes written."""

        @functools.wraps(fn)
        def wrapper(writer, frame, **kwargs):
            counted = _CountingWriter(writer)
            record, token = self.begin(name)
            try:
                fn(counted, frame, **kwargs)
            finally:
                self.end(record, token)
            record[DETAIL] = counted.written

        return wrapper


class _CountingWriter:
    """Stream-writer proxy counting the bytes ``write_frame`` buffers."""

    __slots__ = ("inner", "written")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.written = 0

    def write(self, data: bytes) -> None:
        self.written += len(data)
        self.inner.write(data)


@dataclass(frozen=True)
class Target:
    """One patched name: ``owner.attr`` recorded as span ``span``."""

    span: str
    owner: object
    attr: str
    kind: str = "sync"  # sync | async | write_frame
    before: Callable | None = None
    after: Callable | None = None


def _selection_rows(state, result, bids, demand, **kwargs):
    columnar = kwargs.get("columnar")
    return len(columnar.bids) if columnar is not None else len(bids)


def _payment_winners(state, result, instance, winners, **kwargs):
    return len(winners)


def _admission(state, result, auction, instance):
    return (len(result.scaled_prices), len(instance.bids))


def _shard_stats(state, result, *args, **kwargs):
    return result.stats


def _events_before(engine, horizon):
    return engine.processed_events


def _events_after(before, result, engine, horizon):
    return engine.processed_events - before


def targets() -> list[Target]:
    """Every wrapped public call, resolved where callers look it up."""
    import repro.core.columnar as columnar
    import repro.dist.tcp as tcp
    import repro.shard.msoa as shard_msoa
    import repro.shard.ssam as shard_ssam
    from repro.core.msoa import MultiStageOnlineAuction
    from repro.demand.estimator import DemandEstimator
    from repro.dist.orchestrator import RoundOrchestrator
    from repro.edge.platform import EdgePlatform
    from repro.sim.engine import SimulationEngine

    return [
        Target("shard.partition", shard_ssam, "partition_round"),
        Target("shard.round", shard_msoa, "run_sharded_ssam",
               after=_shard_stats),
        Target("columnar.build", columnar.ColumnarInstance, "build"),
        Target("columnar.subset", columnar.ColumnarInstance, "subset"),
        Target("columnar.with_bids", columnar.ColumnarInstance, "with_bids"),
        # ssam.py and engine.py import these two inside the calling
        # function, so the module attribute is what they resolve.
        Target("ssam.selection", columnar, "columnar_greedy_selection",
               after=_selection_rows),
        Target("ssam.payments", columnar, "columnar_critical_payments",
               after=_payment_winners),
        Target("msoa.round", MultiStageOnlineAuction, "process_round",
               after=_admission),
        Target("platform.begin", EdgePlatform, "begin_round"),
        Target("platform.complete", EdgePlatform, "complete_round"),
        Target("sim.run_until", SimulationEngine, "run_until",
               before=_events_before, after=_events_after),
        Target("demand.estimate", DemandEstimator, "estimate_round"),
        Target("dist.round", RoundOrchestrator, "run_round", kind="async"),
        Target("dist.write_frame", tcp, "write_frame", kind="write_frame"),
    ]


@contextlib.contextmanager
def installed(recorder: SpanRecorder, patch: list[Target]) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for target in patch:
            raw = vars(target.owner)[target.attr]
            saved.append((target.owner, target.attr, raw))
            if isinstance(raw, classmethod):
                # Wrap the bound classmethod; a staticmethod keeps
                # ``Owner.attr(...)`` call sites unchanged.
                bound = getattr(target.owner, target.attr)
                new = staticmethod(recorder.wrap(
                    target.span, bound,
                    before=target.before, after=target.after,
                ))
            elif target.kind == "async":
                new = recorder.wrap_async(target.span, raw)
            elif target.kind == "write_frame":
                new = recorder.wrap_write_frame(target.span, raw)
            else:
                new = recorder.wrap(
                    target.span, raw,
                    before=target.before, after=target.after,
                )
            setattr(target.owner, target.attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_ROUND_MS = "ms/round"
PER_ROUND = "count/round"

LAYER_UNITS = {
    "shard.partition.ms": PER_ROUND_MS,
    "shard.local.ms": PER_ROUND_MS,
    "shard.imbalance": "ratio",
    "shard.reconcile.ms": PER_ROUND_MS,
    "shard.cross_winners": PER_ROUND,
    "columnar.build.ms": PER_ROUND_MS,
    "columnar.build.calls": PER_ROUND,
    "columnar.subset.ms": PER_ROUND_MS,
    "columnar.with_bids.ms": PER_ROUND_MS,
    "columnar.cache_hit_share": "share",
    "ssam.selection.ms": PER_ROUND_MS,
    "ssam.selection.rows": PER_ROUND,
    "ssam.payments.ms": PER_ROUND_MS,
    "ssam.payments.share": "share",
    "ssam.payments.winners": PER_ROUND,
    "msoa.self_ms": PER_ROUND_MS,
    "msoa.admissible_share": "share",
    "platform.begin.ms": PER_ROUND_MS,
    "sim.run_until.ms": PER_ROUND_MS,
    "sim.events": PER_ROUND,
    "demand.estimate.ms": PER_ROUND_MS,
    "platform.complete.self_ms": PER_ROUND_MS,
    "dist.collect.ms": PER_ROUND_MS,
    "dist.frames": PER_ROUND,
    "dist.frame_bytes": "bytes/round",
    "dist.timeout_share": "share",
    "dist.session_setup.ms": "ms",
    "trace.overhead_share": "share",
    "wall.rounds_per_s": "1/s",
    "wall.round_ms_p50": "ms",
    "probe.ms": "ms",
}


def layer_metrics(
    recorder: SpanRecorder,
    *,
    round_scales: list[float],
    round_seconds: float,
    extras: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from the spans of the timed rounds.

    ``round_scales[i]`` takes round ``i``'s spans to the reference
    machine speed, as for the end-to-end times; ``round_seconds`` is the
    scaled time of all timed rounds.  Spans outside a timed round
    (session set-up, teardown) are ignored.  ``extras`` supplies the
    metrics measured outside the spans (``dist.timeout_share``,
    ``dist.session_setup.ms``, ``trace.overhead_share`` and the
    unscaled ``wall.*`` and ``probe.ms``).
    """
    rounds = len(round_scales)
    spans = recorder.spans
    total = defaultdict(float)  # seconds per span name
    calls = defaultdict(int)
    self_time = defaultdict(float)
    child_time = defaultdict(float)  # parent index -> seconds
    named_child = defaultdict(float)  # (parent index, child name) -> s
    details = defaultdict(list)  # name -> [(round, detail)]
    duration = {  # span index -> seconds at the reference speed
        index: (span[END] - span[START]) * round_scales[span[ROUND]]
        for index, span in enumerate(spans)
        if span[ROUND] is not None
    }
    for index in duration:
        span = spans[index]
        total[span[NAME]] += duration[index]
        calls[span[NAME]] += 1
        if span[DETAIL] is not None:
            details[span[NAME]].append((span[ROUND], span[DETAIL]))
        if span[PARENT] is not None:
            child_time[span[PARENT]] += duration[index]
            named_child[span[PARENT], span[NAME]] += duration[index]
    collect = 0.0
    for index in duration:
        span = spans[index]
        self_time[span[NAME]] += duration[index] - child_time[index]
        if span[NAME] == "dist.round":
            collect += (
                duration[index]
                - named_child[index, "platform.begin"]
                - named_child[index, "platform.complete"]
            )

    n = max(rounds, 1)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / n

    # ShardRoundStats times come from the program's own clock: scale
    # them with their round like the spans.
    shard_ms = [
        [t * round_scales[r] for t in stats.shard_ms]
        for r, stats in details["shard.round"]
    ]
    reconcile_ms = sum(
        stats.reconcile_ms * round_scales[r]
        for r, stats in details["shard.round"]
    )
    cross_winners = sum(s.cross_winners for _, s in details["shard.round"])
    imbalance = [
        max(times) / statistics.fmean(times)
        for times in shard_ms
        if times and statistics.fmean(times) > 0
    ]
    admitted = sum(a for _, (a, _) in details["msoa.round"])
    offered = sum(o for _, (_, o) in details["msoa.round"])

    def count(name: str) -> float:
        return sum(value for _, value in details[name]) / n

    refreshes = calls["columnar.with_bids"]
    builds = calls["columnar.build"]
    metrics = {
        "shard.partition.ms": ms(total["shard.partition"]),
        "shard.local.ms": sum(map(sum, shard_ms)) / n,
        "shard.imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        "shard.reconcile.ms": reconcile_ms / n,
        "shard.cross_winners": cross_winners / n,
        "columnar.build.ms": ms(total["columnar.build"]),
        "columnar.build.calls": builds / n,
        "columnar.subset.ms": ms(total["columnar.subset"]),
        "columnar.with_bids.ms": ms(total["columnar.with_bids"]),
        "columnar.cache_hit_share": (
            refreshes / (refreshes + builds) if refreshes + builds else 0.0
        ),
        "ssam.selection.ms": ms(total["ssam.selection"]),
        "ssam.selection.rows": count("ssam.selection"),
        "ssam.payments.ms": ms(total["ssam.payments"]),
        "ssam.payments.share": (
            total["ssam.payments"] / round_seconds if round_seconds else 0.0
        ),
        "ssam.payments.winners": count("ssam.payments"),
        "msoa.self_ms": ms(self_time["msoa.round"]),
        "msoa.admissible_share": admitted / offered if offered else 0.0,
        "platform.begin.ms": ms(self_time["platform.begin"]),
        "sim.run_until.ms": ms(total["sim.run_until"]),
        "sim.events": count("sim.run_until"),
        "demand.estimate.ms": ms(total["demand.estimate"]),
        "platform.complete.self_ms": ms(self_time["platform.complete"]),
        "dist.collect.ms": ms(collect),
        "dist.frames": calls["dist.write_frame"] / n,
        "dist.frame_bytes": count("dist.write_frame"),
    }
    metrics.update(extras)
    missing = set(LAYER_UNITS) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return metrics


def write_spans(recorder: SpanRecorder, path: Path) -> None:
    """Write every span as one JSON line (times relative to the first)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = recorder.spans[0][START] if recorder.spans else 0.0
    with path.open("w") as out:
        for index, span in enumerate(recorder.spans):
            detail = span[DETAIL]
            if hasattr(detail, "to_dict"):
                detail = detail.to_dict()
            out.write(json.dumps({
                "id": index,
                "name": span[NAME],
                "parent": span[PARENT],
                "round": span[ROUND],
                "start_ms": (span[START] - origin) * 1e3,
                "end_ms": (span[END] - origin) * 1e3,
                "detail": detail,
            }) + "\n")
