"""Unit tests for the engine perf-regression harness."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.bench_engine import (
    EngineBenchCase,
    default_cases,
    render_engine_bench,
    run_engine_bench,
    write_engine_bench,
)
from repro.workload.bidgen import MarketConfig

TINY = EngineBenchCase(
    name="tiny",
    config=MarketConfig(n_sellers=8, n_buyers=3),
    repeats=1,
)


class TestCases:
    def test_quick_is_a_subset_sweep(self):
        quick = {c.name for c in default_cases(quick=True)}
        full = {c.name for c in default_cases()}
        assert "stress_large_n" in quick and "stress_large_n" in full
        assert len(quick) < len(full)

    def test_stress_case_is_smaller_in_quick_mode(self):
        quick = next(
            c for c in default_cases(quick=True) if c.name == "stress_large_n"
        )
        full = next(c for c in default_cases() if c.name == "stress_large_n")
        assert quick.config.n_sellers < full.config.n_sellers


class TestRun:
    def test_payload_schema_and_equivalence(self):
        payload = run_engine_bench(cases=[TINY])
        assert payload["bench"] == "engine"
        (row,) = payload["cases"]
        assert row["case"] == "tiny"
        assert row["equivalent"] is True
        assert row["reference_ms"] > 0 and row["columnar_ms"] > 0
        assert row["speedup_columnar"] == pytest.approx(
            row["reference_ms"] / row["columnar_ms"]
        )
        assert row["winners"] >= 1 and row["bids"] >= 8

    def test_unwritable_path_rejected(self, tmp_path):
        payload = run_engine_bench(cases=[TINY])
        with pytest.raises(ConfigurationError):
            write_engine_bench(payload, tmp_path / "missing" / "b.json")

    def test_write_and_render(self, tmp_path):
        payload = run_engine_bench(cases=[TINY])
        target = write_engine_bench(payload, tmp_path / "bench.json")
        reread = json.loads(target.read_text())
        assert reread == json.loads(json.dumps(payload))
        rendered = render_engine_bench(payload)
        assert "tiny" in rendered and "speedup" in rendered
