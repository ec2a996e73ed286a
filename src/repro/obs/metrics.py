"""The metrics registry: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat, name-keyed collection of three
instrument kinds covering everything the auction hot paths count:

* :class:`Counter` — monotone totals (bids considered, candidate scans, dual
  updates, rounds processed);
* :class:`Gauge` — last-write-wins levels (active horizon length, ψ of
  the most scarce seller);
* :class:`Histogram` — summary statistics of repeated observations
  (per-phase wall time, payment/price ratios).  Only ``count``, ``sum``,
  ``min`` and ``max`` are kept — enough for regression gates and
  invariant checks without bucket-boundary bikeshedding.

Two exporters are provided: :meth:`MetricsRegistry.to_json` (the machine
artifact the CLI's ``--metrics PATH`` writes) and
:meth:`MetricsRegistry.to_prometheus` (the text exposition format, for
scraping a long-running experiment).

:data:`NULL_METRICS` is the shared null object installed while
observability is disabled: every instrument lookup returns a no-op
instrument, so instrumented code needs no conditionals of its own.
"""

from __future__ import annotations

import json
import math
import pathlib
import re

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "METRICS_SCHEMA_VERSION",
]

METRICS_SCHEMA_VERSION = 1
"""Version tag embedded in every exported metrics payload."""


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """Summary statistics (count/sum/min/max) over observations."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observation (NaN before the first observation)."""
        return self.total / self.count if self.count else math.nan


class MetricsRegistry:
    """Name-keyed instrument store with get-or-create semantics."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record one ``@profiled`` phase timing (the shared convention)."""
        self.histogram(f"phase.{phase}.seconds").observe(seconds)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible snapshot of every instrument."""
        return {
            "schema": "repro.obs.metrics",
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The :meth:`to_dict` snapshot as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def to_prometheus(self, *, prefix: str = "repro") -> str:
        """The snapshot in the Prometheus text exposition format.

        Metric names are sanitized (dots and dashes become underscores)
        and prefixed; histograms export as summaries (``_count``/``_sum``)
        plus ``_min``/``_max`` gauges.
        """
        lines: list[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(counter.value)}")
        for name, gauge in sorted(self._gauges.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(gauge.value)}")
        for name, hist in sorted(self._histograms.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {hist.count}")
            lines.append(f"{metric}_sum {_prom_value(hist.total)}")
            if hist.count:
                lines.append(f"{metric}_min {_prom_value(hist.min)}")
                lines.append(f"{metric}_max {_prom_value(hist.max)}")
        return "\n".join(lines) + "\n"

    def write_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the JSON snapshot to ``path`` (ConfigurationError on OSError)."""
        target = pathlib.Path(path)
        try:
            target.write_text(self.to_json())
        except OSError as error:
            raise ConfigurationError(
                f"cannot write metrics to {target}: {error}"
            ) from error
        return target


def _prom_name(prefix: str, name: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", f"{prefix}_{name}")
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def _prom_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


class _NullInstrument:
    """One no-op object standing in for every instrument kind."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    total = 0.0
    min = math.inf
    max = -math.inf
    mean = math.nan

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Null-object registry installed while observability is disabled.

    Mirrors the :class:`MetricsRegistry` surface; every instrument lookup
    returns the shared no-op instrument, and exports are empty snapshots.
    """

    enabled = False
    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def observe_phase(self, phase: str, seconds: float) -> None:
        pass

    def to_dict(self) -> dict:
        return MetricsRegistry().to_dict()

    def to_json(self, *, indent: int = 2) -> str:
        return MetricsRegistry().to_json(indent=indent)

    def to_prometheus(self, *, prefix: str = "repro") -> str:
        return MetricsRegistry().to_prometheus(prefix=prefix)


NULL_METRICS = NullMetrics()
"""The process-wide null registry (shared; stateless)."""
