"""The request simulator and the demand estimator are ``@profiled`` phases.

A metrics registry alone then splits a platform round into simulation,
estimation and auction time.  Observing must not change the round.
"""

from repro.dist.scenario import DistScenario, replay_scenario
from repro.obs import observing, read_trace


def outcome_dicts(reports):
    return [
        (
            report.snapshots,
            dict(report.demand_units),
            None if report.auction is None else report.auction.to_dict(),
        )
        for report in reports
    ]


def test_simulate_and_estimate_phases_count_each_round():
    scenario = DistScenario(seed=7, horizon_rounds=4)
    untraced = replay_scenario(scenario)
    with observing() as metrics:
        traced = replay_scenario(scenario)
        calls = {
            phase: metrics.counter(f"phase.{phase}.calls").value
            for phase in ("platform.round", "platform.simulate", "demand.estimate")
        }
        simulate_seconds = metrics.histogram("phase.platform.simulate.seconds")
        assert simulate_seconds.count == 4
        assert simulate_seconds.total > 0.0
    assert calls == {
        "platform.round": 4,
        "platform.simulate": 4,
        "demand.estimate": 4,
    }
    assert outcome_dicts(traced) == outcome_dicts(untraced)


def test_traced_simulate_span_counts_arrivals_and_completions(tmp_path):
    """``platform.simulate`` closes with ``events``: what its round ran."""
    path = tmp_path / "platform.jsonl"
    with observing(trace=path):
        reports = replay_scenario(DistScenario(seed=7, horizon_rounds=4))
    events = [
        record["fields"]["events"]
        for record in read_trace(path)
        if record["kind"] == "span_end" and record["name"] == "platform.simulate"
    ]
    # Each arrival is one event and each completion is counted at the
    # horizon, so a round's count is what its snapshots received and served.
    assert events == [
        sum(s.received + s.served for s in report.snapshots)
        for report in reports
    ]
    assert all(count > 0 for count in events)
