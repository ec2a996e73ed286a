"""Design-validity smoke for the benchmark: every workload at tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Checks that the nine end-to-end and every per-layer metric are reported
with the units ``BENCHMARK.json`` declares, that the layers are stressed
in the order the workloads were chosen for, and that the command exits
non-zero on a failed output check or without the program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro.core.msoa import MultiStageOnlineAuction  # noqa: E402
from repro.core.wsp import WSPInstance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "stream_shard": lambda seed: workloads.StreamShard(
        seed, regions=3, buyers_per_region=10, sellers_per_region=30
    ),
    "wide_market": lambda seed: workloads.WideMarket(
        seed, sellers=200, buyers=8
    ),
    "serve_tcp": lambda seed: workloads.ServeTcp(seed, clouds=2, horizon=4),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans")
    return {
        name: bench.measure_traced(make(3), 0.3, spans / f"{name}.jsonl")
        for name, make in TINY.items()
    }


def _units(result) -> dict[str, str]:
    return {name: unit for name, (_, unit) in result.metrics.items()}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_present_with_units(name):
    result = bench.measure(TINY[name](2), 0.0)
    assert result.errors == []
    assert result.failed == 0
    assert result.attempted >= bench.MIN_ROUNDS
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = {name: value for name, (value, _) in result.metrics.items()}
    assert all(value > 0 for value in values.values()), values
    if name == "serve_tcp":
        # The platform skips infeasible rounds; their demand stays unmet.
        assert values["coverage"] <= 1.0
    else:
        assert values["coverage"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_present_with_units(traced, name):
    result = traced[name]
    assert result.errors == []
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_layers_are_stressed_where_the_workloads_say(traced):
    value = {
        workload: {name: v for name, (v, _) in result.metrics.items()}
        for workload, result in traced.items()
    }
    share = {w: value[w]["ssam.payments.share"] for w in value}
    assert share["stream_shard"] > share["wide_market"] > share["serve_tcp"]
    assert value["wide_market"]["columnar.cache_hit_share"] > 0.9
    assert value["stream_shard"]["columnar.cache_hit_share"] == 0.0
    assert value["stream_shard"]["shard.partition.ms"] > 0
    assert value["wide_market"]["shard.partition.ms"] == 0.0
    assert value["serve_tcp"]["dist.frames"] > 0
    assert value["serve_tcp"]["sim.events"] > 0
    assert value["serve_tcp"]["dist.timeout_share"] == 0.0


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    def broken_verify(self, run):
        run.fail_check("injected")

    monkeypatch.setitem(workloads.WORKLOADS, "wide_market", TINY["wide_market"])
    monkeypatch.setattr(workloads.WideMarket, "verify", broken_verify)
    code = bench.main(["--workload", "wide_market", "--seed", "1",
                       "--seconds", "0", "--trace", "0"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "stream_shard", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_coverage_check_compares_the_outcome_with_its_input():
    workload = TINY["wide_market"](4)
    instance = next(workload.instances())
    result = MultiStageOnlineAuction(
        workload.capacities, engine="columnar"
    ).process_round(instance)
    run = workloads.Run()
    workloads.account(run, result, instance.demand, in_prefix=True)
    assert run.errors == []
    assert run.covered == run.demanded == sum(instance.demand.values())

    asked_more = {b: u + (b == 0) for b, u in instance.demand.items()}
    run = workloads.Run()
    workloads.account(run, result, asked_more, in_prefix=True)
    assert run.errors, "an outcome that clears other demand must fail"

    skipped = MultiStageOnlineAuction(
        workload.capacities, engine="columnar", on_infeasible="skip"
    ).process_round(WSPInstance(bids=instance.bids[:1], demand=instance.demand))
    run = workloads.Run()
    workloads.account(run, skipped, instance.demand, in_prefix=True,
                      may_skip=True)
    assert run.errors == []
    assert run.covered == 0 and run.demanded == sum(instance.demand.values())
    run = workloads.Run()
    workloads.account(run, skipped, instance.demand, in_prefix=True)
    assert run.errors, "a skipped round is an error where skips are not allowed"
