"""Unit tests for the columnar scale-bench tier and its regression gate."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.bench_scale import (
    MsoaScaleCase,
    ScaleBenchCase,
    ShardScaleCase,
    check_scale_regression,
    default_scale_cases,
    default_shard_case,
    load_scale_bench,
    render_scale_bench,
    run_scale_bench,
    write_scale_bench,
)
from repro.experiments.bench_scale import _interleaved, _median_ratio
from repro.shard.streaming import StreamConfig
from repro.workload.bidgen import MarketConfig

TINY = ScaleBenchCase(
    name="tiny",
    config=MarketConfig(n_sellers=10, n_buyers=3),
    repeats=1,
)
TINY_NO_REF = ScaleBenchCase(
    name="tiny_no_ref",
    config=MarketConfig(n_sellers=10, n_buyers=3),
    repeats=1,
    time_reference=False,
)
TINY_MSOA = MsoaScaleCase(
    name="tiny_msoa",
    config=MarketConfig(n_sellers=10, n_buyers=3),
    rounds=3,
    repeats=1,
)
TINY_SHARD = ShardScaleCase(
    name="tiny_shard",
    config=StreamConfig(
        rounds=2,
        regions=2,
        buyers_per_region=4,
        sellers_per_region=12,
        demand_range=(1, 2),
        cross_region_fraction=0.0,
    ),
    repeats=1,
)

_BASE_PAYLOAD: dict = {}


def tiny_payload() -> dict:
    # The tiny bench is deterministic; run it once and hand each test
    # its own deep copy (tests mutate their payloads).
    if not _BASE_PAYLOAD:
        _BASE_PAYLOAD.update(
            run_scale_bench(
                cases=[TINY, TINY_NO_REF],
                msoa_case=TINY_MSOA,
                shard_case=TINY_SHARD,
            )
        )
    return json.loads(json.dumps(_BASE_PAYLOAD))


class TestCases:
    def test_quick_drops_only_the_largest_case(self):
        quick_cases, quick_msoa = default_scale_cases(quick=True)
        full_cases, full_msoa = default_scale_cases()
        assert {c.name for c in quick_cases} == {"scale_10k"}
        assert {c.name for c in full_cases} == {"scale_10k", "scale_100k"}
        # The shared cases must be configured identically so the CI
        # regression gate compares like with like.
        assert quick_cases[0] == full_cases[0]
        assert quick_msoa == full_msoa

    def test_full_tier_reaches_the_target_scales(self):
        full_cases, _ = default_scale_cases()
        by_name = {c.name: c for c in full_cases}
        ten_k = by_name["scale_10k"]
        hundred_k = by_name["scale_100k"]
        assert ten_k.config.n_sellers * ten_k.config.bids_per_seller == 10_000
        assert (
            hundred_k.config.n_sellers * hundred_k.config.bids_per_seller
            == 100_000
        )
        assert ten_k.time_reference and not hundred_k.time_reference

    def test_default_shard_case_hits_one_million_units(self):
        full = default_shard_case()
        assert full.name == "shard_1m"
        assert full.config.expected_demand_units == 1_000_000
        # The full tier skips the unsharded twin (it would double an
        # already long run); the quick tier keeps it for the CI
        # equivalence check.
        assert not full.compare_unsharded
        quick = default_shard_case(quick=True)
        assert quick.name == "shard_quick"
        assert quick.compare_unsharded

    def test_default_shard_case_forwards_overrides(self):
        case = default_shard_case(quick=True, shards=4, strategy="hash")
        assert case.shards == 4
        assert case.strategy == "hash"


class TestRun:
    def test_payload_schema_and_equivalence(self):
        payload = tiny_payload()
        assert payload["bench"] == "scale"
        ref_row, no_ref_row = payload["cases"]
        assert ref_row["equivalent"] is True
        assert ref_row["reference_ms"] > 0
        assert ref_row["speedup_columnar"] > 0
        assert ref_row["reference_payment_ms"] > 0
        assert ref_row["batched_payment_ms"] > 0
        # The first call also builds what later calls read from caches.
        assert ref_row["cold_payment_ms"] > 0
        assert ref_row["payment_batch_speedup"] > 0
        # Ratios over the reference engine are null where it is skipped.
        assert no_ref_row["reference_ms"] is None
        assert no_ref_row["reference_payment_ms"] is None
        assert no_ref_row["speedup_columnar"] is None
        assert no_ref_row["payment_batch_speedup"] is None
        assert no_ref_row["columnar_ms"] > 0
        assert no_ref_row["batched_payment_ms"] > 0
        msoa = payload["msoa"]
        assert msoa["equivalent"] is True
        assert msoa["incremental_ms_per_round"] > 0
        assert msoa["cold_ms_per_round"] > 0
        assert msoa["rounds"] == 3
        assert msoa["ssam_ms_per_round"] > 0
        assert 0 < msoa["ssam_share"]

    def test_shard_payload_schema(self):
        shard = tiny_payload()["shard"]
        assert shard["case"] == "tiny_shard"
        assert shard["rounds"] == 2
        assert shard["shards"] == 2
        assert shard["strategy"] == "region"
        assert shard["demand_units"] > 0
        assert shard["auctions_per_sec"] > 0
        assert shard["p99_round_ms"] >= shard["mean_round_ms"] > 0
        assert shard["clamped_shards"] == 0
        # compare_unsharded=True: the twin ran and winner sets matched.
        assert shard["equivalent"] is True
        assert shard["sharded_speedup"] > 0

    def test_write_load_roundtrip_and_render(self, tmp_path):
        payload = tiny_payload()
        target = write_scale_bench(payload, tmp_path / "scale.json")
        assert load_scale_bench(target) == json.loads(json.dumps(payload))
        rendered = render_scale_bench(payload)
        assert "tiny" in rendered and "tiny_msoa" in rendered
        assert "tiny_shard" in rendered
        assert "auctions/sec" in rendered
        # The reference-free case renders a placeholder, not a crash.
        assert "-" in rendered

    def test_render_against_baseline_covers_every_case(self):
        # The comparison table must be the *union* of gated case names:
        # cases new to the payload are marked, retired baseline cases
        # still show up as absent — nothing is silently skipped.
        payload = tiny_payload()
        baseline = json.loads(json.dumps(payload))
        baseline["shard"]["case"] = "retired_shard"
        rendered = render_scale_bench(payload, baseline=baseline)
        assert "vs baseline" in rendered
        for name in ("tiny", "tiny_no_ref", "tiny_msoa"):
            assert name in rendered
        assert "tiny_shard" in rendered and "(new)" in rendered
        assert "retired_shard" in rendered and "absent" in rendered

    def test_render_without_baseline_has_no_comparison(self):
        rendered = render_scale_bench(tiny_payload())
        assert "vs baseline" not in rendered

    def test_load_rejects_non_scale_payloads(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"bench": "engine"}))
        with pytest.raises(ConfigurationError):
            load_scale_bench(path)
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_scale_bench(path)
        with pytest.raises(ConfigurationError):
            load_scale_bench(tmp_path / "missing.json")


class TestTiming:
    def test_interleaved_times_round_robin(self):
        calls = []
        samples = _interleaved(
            3, lambda: calls.append("a"), lambda: calls.append("b")
        )
        assert calls == ["a", "b"] * 3
        assert [len(times) for times in samples] == [3, 3]

    def test_median_ratio_pairs_rounds(self):
        # Per-round ratios 2, 10, 3: the one slow round cannot move the
        # median, whereas min/min would read 1 / 0.1 = 10.
        assert _median_ratio([2.0, 1.0, 3.0], [1.0, 0.1, 1.0]) == 3.0
        assert _median_ratio([1.0], [0.0]) is None


class TestRegressionGate:
    def _payloads(self):
        payload = tiny_payload()
        baseline = json.loads(json.dumps(payload))
        return payload, baseline

    def test_identical_payloads_pass(self):
        payload, baseline = self._payloads()
        assert check_scale_regression(payload, baseline) == []

    def test_within_tolerance_passes(self):
        payload, baseline = self._payloads()
        row = payload["cases"][0]
        row["speedup_columnar"] = (
            baseline["cases"][0]["speedup_columnar"] * 0.85
        )
        assert check_scale_regression(payload, baseline) == []

    def test_speedup_regression_fails(self):
        payload, baseline = self._payloads()
        row = payload["cases"][0]
        row["speedup_columnar"] = (
            baseline["cases"][0]["speedup_columnar"] * 0.5
        )
        failures = check_scale_regression(payload, baseline)
        assert len(failures) == 1
        assert "speedup_columnar" in failures[0]

    def test_msoa_incrementality_regression_fails(self):
        payload, baseline = self._payloads()
        payload["msoa"]["incremental_speedup"] = (
            baseline["msoa"]["incremental_speedup"] * 0.5
        )
        failures = check_scale_regression(payload, baseline)
        assert len(failures) == 1
        assert "incremental_speedup" in failures[0]

    def test_msoa_overhead_regression_fails(self):
        # SSAM's share of an incremental round falls when MSOA's own
        # per-round work grows back.
        payload, baseline = self._payloads()
        payload["msoa"]["ssam_share"] = baseline["msoa"]["ssam_share"] * 0.7
        failures = check_scale_regression(payload, baseline)
        assert len(failures) == 1
        assert "ssam_share" in failures[0]
        payload["msoa"]["ssam_share"] = baseline["msoa"]["ssam_share"] * 0.9
        assert check_scale_regression(payload, baseline) == []

    def test_divergence_fails_regardless_of_timing(self):
        payload, baseline = self._payloads()
        payload["cases"][0]["equivalent"] = False
        payload["msoa"]["equivalent"] = False
        failures = check_scale_regression(payload, baseline)
        assert any("diverged" in f for f in failures)
        assert any("cold-rebuild" in f for f in failures)

    def test_shard_divergence_fails(self):
        payload, baseline = self._payloads()
        payload["shard"]["equivalent"] = False
        failures = check_scale_regression(payload, baseline)
        assert any("sharded winners diverged" in f for f in failures)

    def test_shard_equivalence_none_is_not_a_failure(self):
        # The full tier doesn't run the unsharded twin: None means
        # "not compared", only an explicit False is a divergence.
        payload, baseline = self._payloads()
        payload["shard"]["equivalent"] = None
        assert check_scale_regression(payload, baseline) == []

    def test_shard_speedup_regression_fails(self):
        payload, baseline = self._payloads()
        payload["shard"]["sharded_speedup"] = (
            baseline["shard"]["sharded_speedup"] * 0.5
        )
        failures = check_scale_regression(payload, baseline)
        assert len(failures) == 1
        assert "sharded_speedup" in failures[0]

    def test_shard_case_rename_skips_the_ratio_gate(self):
        payload, baseline = self._payloads()
        baseline["shard"]["case"] = "some_retired_case"
        payload["shard"]["sharded_speedup"] = 0.001
        assert check_scale_regression(payload, baseline) == []

    def test_cases_missing_from_baseline_are_skipped(self):
        payload, baseline = self._payloads()
        baseline["cases"] = []
        baseline["msoa"] = None
        baseline.pop("shard")
        assert check_scale_regression(payload, baseline) == []

    def test_bad_tolerance_rejected(self):
        payload, baseline = self._payloads()
        with pytest.raises(ConfigurationError):
            check_scale_regression(payload, baseline, tolerance=1.5)


class TestShardBaselineRows:
    """The committed baseline lists several shard rows; a fresh row is
    gated against the baseline row of the same case name."""

    def _payloads(self):
        payload = tiny_payload()
        baseline = json.loads(json.dumps(payload))
        other = dict(baseline["shard"], case="shard_1m", sharded_speedup=None)
        baseline["shard"] = [other, baseline["shard"]]
        return payload, baseline

    def test_matching_row_is_gated(self):
        payload, baseline = self._payloads()
        assert check_scale_regression(payload, baseline) == []
        payload["shard"]["sharded_speedup"] = (
            baseline["shard"][1]["sharded_speedup"] * 0.5
        )
        failures = check_scale_regression(payload, baseline)
        assert len(failures) == 1
        assert "tiny_shard: sharded_speedup regressed" in failures[0]

    def test_every_row_renders_and_joins_the_comparison(self):
        payload, baseline = self._payloads()
        rendered = render_scale_bench(baseline, baseline=baseline)
        assert "shard_1m" in rendered and "tiny_shard" in rendered
        rendered = render_scale_bench(payload, baseline=baseline)
        assert "shard_1m" in rendered and "absent" in rendered

    def test_shard_horizons_run_round_robin(self, monkeypatch):
        from repro.experiments import bench_scale

        calls = []
        original = bench_scale._interleaved

        def spy(repeats, *fns):
            calls.append((repeats, len(fns)))
            return original(repeats, *fns)

        monkeypatch.setattr(bench_scale, "_interleaved", spy)
        row = bench_scale._run_shard_case(
            ShardScaleCase(
                name="tiny_shard",
                config=TINY_SHARD.config,
                repeats=2,
            )
        )
        assert calls == [(2, 2)]
        assert row["equivalent"] is True
        assert row["sharded_speedup"] > 0
