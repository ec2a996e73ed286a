"""The default engine is bit-identical to the reference oracle.

``run_ssam``'s default engine (``"columnar"``, :mod:`repro.core.columnar`)
re-implements the greedy selection and the critical-payment replay on
numpy column arrays; its whole claim to correctness is *exact*
equivalence with the naive loops in :mod:`repro.core.ssam`.  These tests
pin that claim through the default dispatch (no ``engine=`` argument);
``test_columnar_equivalence.py`` covers the MSOA, platform and
tie-breaking layers:

* the full selection trace (winner sequence, utilities, ratios,
  runner-up ratios) matches step by step,
* complete auction outcomes — winners, payments, and dual certificates —
  serialize identically under both payment rules,
* a seeded sweep over 200 market-generator instances (the distribution
  the experiments actually run on) agrees end to end,
* individual rationality survives the default engine under both rules.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.columnar import columnar_greedy_selection
from repro.core.ssam import PaymentRule, greedy_selection, run_ssam
from repro.errors import InfeasibleInstanceError

from tests.properties.strategies import wsp_instances

#: Hypothesis sweeps are the repo's statistical tier; 'pytest -m
#: "not slow"' skips them for the quick signal, CI runs them in full.
pytestmark = [pytest.mark.property, pytest.mark.slow]

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def outcomes_for(instance, rule):
    """(reference, default) outcomes, or None if the instance is
    infeasible for the greedy even after exact-guard escalation."""
    try:
        reference = run_ssam(instance, payment_rule=rule, engine="reference")
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            run_ssam(instance, payment_rule=rule)
        return None
    return reference, run_ssam(instance, payment_rule=rule)


@COMMON
@given(instance=wsp_instances())
def test_selection_trace_identical(instance):
    """columnar_greedy_selection replays greedy_selection step for step."""
    demand = dict(instance.demand)
    try:
        reference = greedy_selection(instance.bids, dict(demand))
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            columnar_greedy_selection(instance.bids, dict(demand))
        return
    columnar = columnar_greedy_selection(instance.bids, dict(demand))
    assert len(columnar) == len(reference)
    for ours, theirs in zip(columnar, reference):
        assert ours.bid.key == theirs.bid.key
        assert ours.iteration == theirs.iteration
        assert ours.utility == theirs.utility
        assert ours.ratio == theirs.ratio
        assert ours.runner_up_ratio == theirs.runner_up_ratio
        assert ours.coverage_before == theirs.coverage_before


@COMMON
@given(instance=wsp_instances())
@pytest.mark.parametrize("rule", list(PaymentRule))
def test_outcome_identical(instance, rule):
    """Winners, payments, and dual certificates match bit for bit."""
    pair = outcomes_for(instance, rule)
    if pair is None:
        return
    reference, default = pair
    assert default.to_dict() == reference.to_dict()


@pytest.mark.parametrize("rule", list(PaymentRule))
def test_market_generator_sweep_identical(rule, make_instance):
    """200 seeded generator instances (the experiments' distribution)
    agree end to end — winner keys, payments, duals, metadata."""
    for seed in range(100):
        instance = make_instance(seed, n_sellers=12, n_buyers=4)
        pair = outcomes_for(instance, rule)
        if pair is None:
            continue
        reference, default = pair
        assert default.to_dict() == reference.to_dict(), f"seed {seed}"


@COMMON
@given(instance=wsp_instances())
@pytest.mark.parametrize(
    "rule", [PaymentRule.ITERATION_RUNNER_UP, PaymentRule.CRITICAL_RERUN]
)
def test_default_engine_keeps_individual_rationality(instance, rule):
    """Regression: no payment ever drops below the announced bid price
    under the default engine (Theorem 5 must survive the optimisation)."""
    try:
        outcome = run_ssam(instance, payment_rule=rule)
    except InfeasibleInstanceError:
        return
    for winner in outcome.winners:
        assert winner.payment >= winner.bid.price - 1e-9

