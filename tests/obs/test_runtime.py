"""Tests for the process-wide observability switch and @profiled hooks."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    ObservabilityConfig,
    activate,
    configure,
    disable,
    get_metrics,
    get_tracer,
    is_enabled,
    observing,
    profiled,
    summarize,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.runtime import STATE
from repro.obs.tracer import NULL_TRACER


class TestSwitch:
    def test_disabled_is_the_default(self):
        assert is_enabled() is False
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS

    def test_configure_installs_live_instruments(self, tmp_path):
        config = configure(trace=tmp_path / "t.jsonl")
        assert is_enabled() is True
        assert config.trace_path == str(tmp_path / "t.jsonl")
        assert isinstance(get_metrics(), MetricsRegistry)
        disable()
        assert is_enabled() is False

    def test_metrics_only_session_never_touches_disk(self, tmp_path):
        configure()
        get_metrics().counter("x").inc()
        registry = disable()
        assert registry.counter("x").value == 1.0
        assert list(tmp_path.iterdir()) == []

    def test_disable_writes_metrics_snapshot(self, tmp_path):
        target = tmp_path / "metrics.json"
        configure(metrics=target)
        get_metrics().counter("runs").inc(3)
        disable()
        assert json.loads(target.read_text())["counters"]["runs"] == 3.0

    def test_disable_when_disabled_is_a_noop(self):
        assert disable() is None

    def test_reconfigure_finalizes_prior_session(self, tmp_path):
        first = tmp_path / "first.jsonl"
        configure(trace=first)
        configure(trace=tmp_path / "second.jsonl")
        # The first trace was closed (footer written) before the second
        # session opened.
        assert not summarize(first).truncated
        disable()

    def test_observing_restores_state_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with observing(trace=tmp_path / "t.jsonl"):
                raise RuntimeError("boom")
        assert is_enabled() is False


class TestActivate:
    def test_activate_none_is_a_noop(self):
        activate(None)
        assert is_enabled() is False

    def test_activate_applies_config(self, tmp_path):
        activate(ObservabilityConfig(trace_path=str(tmp_path / "t.jsonl")))
        assert is_enabled() is True
        disable()

    def test_activate_is_idempotent_for_equal_config(self, tmp_path):
        config = ObservabilityConfig(trace_path=str(tmp_path / "t.jsonl"))
        activate(config)
        get_metrics().counter("kept").inc()
        tracer = get_tracer()
        activate(ObservabilityConfig(trace_path=str(tmp_path / "t.jsonl")))
        # Same config: the session (tracer and counters) is untouched.
        assert get_tracer() is tracer
        assert get_metrics().counter("kept").value == 1.0
        disable()


class TestProfiled:
    def test_disabled_profiled_function_records_nothing(self):
        @profiled("unit.phase")
        def work():
            return 42

        assert work() == 42
        assert NULL_METRICS.histogram("phase.unit.phase.seconds").count == 0

    def test_enabled_profiled_function_times_calls(self):
        @profiled("unit.phase")
        def work():
            return 42

        with observing() as metrics:
            work()
            work()
        assert metrics.counter("phase.unit.phase.calls").value == 2.0
        hist = metrics.histogram("phase.unit.phase.seconds")
        assert hist.count == 2
        assert hist.min >= 0.0

    def test_profiled_records_timing_on_exception(self):
        @profiled("unit.crash")
        def crash():
            raise ValueError("boom")

        with observing() as metrics:
            with pytest.raises(ValueError):
                crash()
        assert metrics.histogram("phase.unit.crash.seconds").count == 1

    def test_profiled_preserves_metadata(self):
        @profiled("unit.phase")
        def documented():
            """Docstring survives wrapping."""

        assert documented.__name__ == "documented"
        assert documented.__profiled_phase__ == "unit.phase"


class TestSummarizeValidation:
    def test_non_monotone_seq_is_rejected(self):
        records = [
            {"kind": "header", "schema": "repro.obs.trace", "version": 1},
            {"kind": "span_start", "seq": 2, "id": 1, "parent": 0,
             "name": "auction", "fields": {}},
            {"kind": "span_end", "seq": 1, "id": 1, "name": "auction",
             "status": "ok", "duration_s": 0.0, "fields": {}},
        ]
        with pytest.raises(ObservabilityError, match="must increase"):
            summarize(records)

    def test_improper_nesting_is_rejected(self):
        records = [
            {"kind": "header", "schema": "repro.obs.trace", "version": 1},
            {"kind": "span_start", "seq": 1, "id": 1, "parent": 0,
             "name": "a", "fields": {}},
            {"kind": "span_start", "seq": 2, "id": 2, "parent": 1,
             "name": "b", "fields": {}},
            {"kind": "span_end", "seq": 3, "id": 1, "name": "a",
             "status": "ok", "duration_s": 0.0, "fields": {}},
        ]
        with pytest.raises(ObservabilityError, match="nesting"):
            summarize(records)

    def test_recorded_summary_must_match_reconstruction(self):
        records = [
            {"kind": "header", "schema": "repro.obs.trace", "version": 1},
            {"kind": "span_start", "seq": 1, "id": 1, "parent": 0,
             "name": "auction",
             "fields": {"mechanism": "ssam", "demand": {"1": 1}}},
            {"kind": "event", "seq": 2, "span": 1, "name": "winner",
             "fields": {"original_price": 3.0, "payment": 4.0,
                        "covered": [1]}},
            {"kind": "span_end", "seq": 3, "id": 1, "name": "auction",
             "status": "ok", "duration_s": 0.0,
             "fields": {"social_cost": 99.0}},
            {"kind": "footer", "seq": 4, "spans": 1},
        ]
        with pytest.raises(ObservabilityError, match="disagrees"):
            summarize(records)

    def test_truncated_trace_is_flagged_not_fatal(self):
        records = [
            {"kind": "header", "schema": "repro.obs.trace", "version": 1},
            {"kind": "span_start", "seq": 1, "id": 1, "parent": 0,
             "name": "auction", "fields": {}},
        ]
        assert summarize(records).truncated is True

    def test_state_singleton_identity(self):
        # Hot paths read this exact object; rebinding it would silently
        # disconnect the instrumentation.
        from repro.core.columnar import _OBS as columnar_state
        from repro.core.msoa import _OBS as msoa_state
        from repro.core.ssam import _OBS as ssam_state

        assert columnar_state is STATE
        assert msoa_state is STATE
        assert ssam_state is STATE
