"""Global observability state: one switch, two null objects.

The instrumented hot paths (:mod:`repro.core.ssam`,
:mod:`repro.core.columnar`, :mod:`repro.core.msoa`,
:mod:`repro.edge.platform`, :mod:`repro.experiments.runner`) all read the
module-level :data:`STATE` singleton.  While observability is disabled —
the default — ``STATE.enabled`` is ``False``, ``STATE.tracer`` is the
shared :data:`~repro.obs.tracer.NULL_TRACER` and ``STATE.metrics`` the
shared :data:`~repro.obs.metrics.NULL_METRICS`, so the total disabled-path
cost is one attribute load and a branch (or a no-op method call).  No
file is ever touched and no record is ever built.

:func:`configure` flips the switch for the whole process; prefer the
:func:`observing` context manager in tests and library code so the state
is always restored.  The tier-1 suite asserts the default is disabled
(``tests/obs/test_disabled_by_default.py``) and the engine bench numbers
are recorded with the switch off.
"""

from __future__ import annotations

import contextlib
import pathlib
from collections.abc import Iterator
from dataclasses import dataclass

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "ObservabilityConfig",
    "STATE",
    "configure",
    "activate",
    "disable",
    "observing",
    "is_enabled",
    "get_tracer",
    "get_metrics",
]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Declarative switch carried by :class:`ExperimentConfig`.

    Attributes
    ----------
    trace_path:
        Where the JSONL span/event trace goes; ``None`` disables tracing
        (metrics can still be collected).
    metrics_path:
        Where the metrics-registry JSON snapshot is written when the
        session is disabled/finalized; ``None`` keeps metrics in memory
        only (read them via :func:`get_metrics`).
    trace_max_records:
        Roll the trace file to ``<name>.1`` whenever a segment reaches
        this many records (``None`` = unbounded; see
        :class:`~repro.obs.tracer.Tracer`) — the bounded-disk mode for
        long-lived serving.
    trace_sample_every:
        Keep only every k-th top-level span tree (``None``/1 = keep
        all) — the bounded-volume sampling mode.
    """

    trace_path: str | None = None
    metrics_path: str | None = None
    trace_max_records: int | None = None
    trace_sample_every: int | None = None


class _ObservabilityState:
    """The mutable singleton the hot paths read (see module docstring)."""

    __slots__ = ("enabled", "tracer", "metrics", "config")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.config: ObservabilityConfig | None = None


STATE = _ObservabilityState()
"""Process-wide observability state; disabled until :func:`configure`."""


def configure(
    *,
    trace: str | pathlib.Path | None = None,
    metrics: str | pathlib.Path | None = None,
    trace_max_records: int | None = None,
    trace_sample_every: int | None = None,
) -> ObservabilityConfig:
    """Enable observability for the process and return the active config.

    ``trace`` opens a :class:`~repro.obs.tracer.Tracer` on that path
    (failing fast with :class:`~repro.errors.ConfigurationError` if the
    path cannot be opened); ``metrics`` is where :func:`disable` will
    write the registry snapshot.  A fresh
    :class:`~repro.obs.metrics.MetricsRegistry` is installed either way,
    so counters always start from zero for the session.

    ``trace_max_records``/``trace_sample_every`` opt the tracer into its
    bounded rolling/sampling modes (for long-lived serving sessions);
    both default to the classic unbounded behaviour.

    Any previously active session is finalized first (its trace closed,
    its metrics flushed), so re-configuring is always safe.
    """
    if STATE.enabled:
        disable()
    config = ObservabilityConfig(
        trace_path=str(trace) if trace is not None else None,
        metrics_path=str(metrics) if metrics is not None else None,
        trace_max_records=trace_max_records,
        trace_sample_every=trace_sample_every,
    )
    tracer = (
        Tracer(
            config.trace_path,
            max_records=config.trace_max_records,
            sample_every=config.trace_sample_every,
        )
        if config.trace_path
        else NULL_TRACER
    )
    STATE.tracer = tracer
    STATE.metrics = MetricsRegistry()
    STATE.config = config
    STATE.enabled = True
    return config


def activate(config: ObservabilityConfig | None) -> None:
    """Idempotently apply an :class:`ObservabilityConfig`.

    ``None`` is a no-op (the experiment carries no observability request);
    a config equal to the one already active is a no-op too, so sweep
    loops can call this once per mechanism run without re-opening the
    trace file.  This is how ``ExperimentConfig.observability`` is
    threaded through :func:`repro.experiments.runner.run_configured_mechanism`.
    """
    if config is None:
        return
    if STATE.enabled and STATE.config == config:
        return
    configure(
        trace=config.trace_path,
        metrics=config.metrics_path,
        trace_max_records=config.trace_max_records,
        trace_sample_every=config.trace_sample_every,
    )


def disable() -> MetricsRegistry | None:
    """Finalize the active session and restore the disabled defaults.

    Closes the trace stream (writing its footer), writes the metrics
    snapshot to the configured ``metrics_path`` (if any), and returns the
    session's registry so callers can inspect the final numbers.  A no-op
    returning ``None`` when observability was already disabled.
    """
    if not STATE.enabled:
        return None
    registry = STATE.metrics
    config = STATE.config
    STATE.enabled = False
    STATE.tracer.close()
    STATE.tracer = NULL_TRACER
    STATE.metrics = NULL_METRICS
    STATE.config = None
    if (
        config is not None
        and config.metrics_path
        and isinstance(registry, MetricsRegistry)
    ):
        registry.write_json(config.metrics_path)
    return registry if isinstance(registry, MetricsRegistry) else None


@contextlib.contextmanager
def observing(
    *,
    trace: str | pathlib.Path | None = None,
    metrics: str | pathlib.Path | None = None,
    trace_max_records: int | None = None,
    trace_sample_every: int | None = None,
) -> Iterator[MetricsRegistry]:
    """Scoped observability: enable on entry, finalize on exit.

    Yields the session's :class:`~repro.obs.metrics.MetricsRegistry` so
    the caller can assert on counters before the block ends::

        with observing(trace="run.jsonl") as metrics:
            run_ssam(instance)
            assert metrics.counter("ssam.runs").value == 1
    """
    configure(
        trace=trace,
        metrics=metrics,
        trace_max_records=trace_max_records,
        trace_sample_every=trace_sample_every,
    )
    registry = STATE.metrics
    assert isinstance(registry, MetricsRegistry)
    try:
        yield registry
    finally:
        disable()


def is_enabled() -> bool:
    """Whether observability is currently collecting anything."""
    return STATE.enabled


def get_tracer():
    """The active tracer (the null tracer while disabled)."""
    return STATE.tracer


def get_metrics():
    """The active metrics registry (the null registry while disabled)."""
    return STATE.metrics


def _reset_for_tests() -> None:
    """Hard-reset to the disabled defaults without flushing (test hook)."""
    with contextlib.suppress(Exception):
        STATE.tracer.close()
    STATE.enabled = False
    STATE.tracer = NULL_TRACER
    STATE.metrics = NULL_METRICS
    STATE.config = None
