"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in FIGURES:
            assert f"fig {key}" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "SSAM social cost" in out
        assert "competitive bound" in out

    def test_unknown_panel_errors(self, capsys):
        assert main(["fig", "9z"]) == 2
        assert "unknown figure panel" in capsys.readouterr().err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_quick_flag_parsed(self):
        args = build_parser().parse_args(["fig", "3a", "--quick"])
        assert args.panel == "3a" and args.quick is True

    def test_bench_flags_parsed(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--out", "x.json"]
        )
        assert args.quick is True
        assert args.out == "x.json"
        # --out defaults to None; _cmd_bench resolves it per tier
        # (BENCH_engine.json, or BENCH_scale.json under --scale).
        bare = build_parser().parse_args(["bench"])
        assert bare.out is None
        assert bare.scale is False and bare.against is None
        scaled = build_parser().parse_args(
            ["bench", "--scale", "--against", "base.json"]
        )
        assert scaled.scale is True
        assert scaled.against == "base.json"

    def test_all_figures_registered(self):
        assert set(FIGURES) == {"3a", "3b", "4a", "4b", "5a", "6a", "6b"}


class TestFigureExecution:
    def test_fig4a_runs_quick(self, capsys):
        # 4a is the cheapest panel: a single auction round.
        assert main(["fig", "4a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out
        assert "payment" in out


class TestBenchCommand:
    def test_bench_writes_payload(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.experiments import bench_engine
        from repro.workload.bidgen import MarketConfig

        monkeypatch.setattr(
            bench_engine,
            "default_cases",
            lambda *, quick=False: [
                bench_engine.EngineBenchCase(
                    name="tiny",
                    config=MarketConfig(n_sellers=8, n_buyers=3),
                    repeats=1,
                )
            ],
        )
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "engine bench" in printed and str(out) in printed
        payload = json.loads(out.read_text())
        assert payload["bench"] == "engine"
        assert payload["cases"][0]["equivalent"] is True


class TestMechanismCommands:
    def test_mechanisms_lists_the_registry(self, capsys):
        from repro.core.registry import list_mechanisms

        assert main(["mechanisms"]) == 0
        out = capsys.readouterr().out
        for name in list_mechanisms():
            assert name in out
        assert "critical-value" in out and "clarke-pivot" in out

    def test_run_default_is_ssam(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "ssam on one paper-default round" in out
        assert "social cost" in out and "winners" in out

    def test_run_dispatches_a_baseline(self, capsys):
        assert main(["run", "--mechanism", "pay-as-bid"]) == 0
        out = capsys.readouterr().out
        assert "pay-as-bid" in out

    def test_run_online_mechanism_over_horizon(self, capsys):
        assert main(["run", "--mechanism", "msoa", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "msoa over 2 rounds" in out

    def test_run_horizon_benchmark(self, capsys):
        assert main(
            ["run", "--mechanism", "offline-greedy", "--rounds", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "offline-greedy over 2 rounds" in out and "exact=" in out

    def test_run_writes_outcome_with_mechanism_tag(self, tmp_path, capsys):
        from repro.experiments.storage import load_outcome

        out_path = tmp_path / "vcg.json"
        assert main(
            ["run", "--mechanism", "vcg", "--out", str(out_path)]
        ) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        assert load_outcome(out_path).mechanism == "vcg"

    def test_run_out_rejected_for_horizon_benchmarks(self, tmp_path, capsys):
        out_path = tmp_path / "offline.json"
        assert main(
            [
                "run", "--mechanism", "offline-greedy",
                "--rounds", "2", "--out", str(out_path),
            ]
        ) == 2
        assert "not supported" in capsys.readouterr().err
        assert not out_path.exists()

    def test_run_unknown_mechanism_reports_cleanly(self, capsys):
        assert main(["run", "--mechanism", "nope"]) == 2
        assert "unknown mechanism" in capsys.readouterr().err

    def test_fig_engine_flag_parsed(self):
        args = build_parser().parse_args(["fig", "4a", "--engine", "reference"])
        assert args.engine == "reference"
        assert build_parser().parse_args(["fig", "4a"]).engine == "columnar"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "4a", "--engine", "fast"])

    def test_fig_runs_on_reference_engine(self, capsys):
        assert main(["fig", "4a", "--quick", "--engine", "reference"]) == 0
        assert "Figure 4(a)" in capsys.readouterr().out


class TestExtraCommands:
    def test_compare_prints_mechanism_table(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "VCG" in out and "SSAM" in out and "posted@35" in out

    def test_trace_prints_sparklines(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "demand" in out and "cost" in out

    def test_explain_narrates_an_auction(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "winners cover" in out
        assert "truthfulness premium" in out


class TestVerifyCommand:
    def test_verify_minimal_invocation_exits_zero(self, capsys):
        assert main(["verify", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "ssam" in out

    def test_verify_unknown_mechanism_reports_cleanly(self, capsys):
        assert main(["verify", "--mechanism", "nope", "--instances", "3"]) == 2
        assert "unknown mechanism" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_flags_parsed_on_all_instrumented_subcommands(self):
        for command in (["run"], ["fig", "4a"], ["bench"], ["verify"]):
            args = build_parser().parse_args(
                command + ["--trace", "t.jsonl", "--metrics", "m.json"]
            )
            assert args.trace == "t.jsonl"
            assert args.metrics == "m.json"
            defaults = build_parser().parse_args(command)
            assert defaults.trace is None and defaults.metrics is None

    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import read_trace, summarize

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["run", "--trace", str(trace), "--metrics", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote trace {trace}" in out
        assert f"wrote metrics {metrics}" in out
        records = read_trace(trace)
        assert records[0]["kind"] == "header"
        summary = summarize(trace)
        assert summary.truncated is False
        assert len(summary.auctions) == 1
        import json

        payload = json.loads(metrics.read_text())
        assert payload["counters"]["ssam.runs"] == 1.0

    def test_run_online_trace_reconstructs_rounds(self, tmp_path, capsys):
        from repro.obs import summarize

        trace = tmp_path / "msoa.jsonl"
        assert main(
            [
                "run", "--mechanism", "msoa", "--rounds", "2",
                "--trace", str(trace),
            ]
        ) == 0
        summary = summarize(trace)
        assert [r.round_index for r in summary.rounds] == [0, 1]
        printed = capsys.readouterr().out
        assert f"social cost   {summary.social_cost:.2f}" in printed

    def test_unwritable_trace_path_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "t.jsonl"
        assert main(["run", "--trace", str(target)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot open trace" in err

    def test_unwritable_metrics_path_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "m.json"
        assert main(["run", "--metrics", str(target)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot write metrics" in err

    def test_flags_leave_observability_disabled_after_exit(self, tmp_path):
        from repro.obs import is_enabled

        assert main(["run", "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert is_enabled() is False

    def test_trace_flag_never_changes_printed_results(self, tmp_path, capsys):
        assert main(["run", "--seed", "13"]) == 0
        untraced = capsys.readouterr().out
        assert main(
            ["run", "--seed", "13", "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(untraced.rsplit("\n", 1)[0].rstrip())
