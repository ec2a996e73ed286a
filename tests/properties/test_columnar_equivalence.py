"""The columnar engine is bit-identical to the reference engine.

:mod:`repro.core.columnar` re-implements the greedy selection and the
critical-payment replay on numpy column arrays, batching every winner's
replay through one shared greedy prefix; its whole claim to correctness
is *exact* equivalence with the scalar reference loops.  These tests pin that
claim across every layer that can select an engine:

* the full selection trace (winner sequence, utilities, ratios,
  runner-up ratios, coverage snapshots) matches the reference oracle
  step by step,
* complete auction outcomes — winners, payments, and dual certificates —
  serialize identically across both engines under both payment
  rules, over a 300-instance seeded generator sweep plus hypothesis
  draws,
* MSOA horizons agree across engines, with and without seeded
  :class:`~repro.faults.FaultPlan` injection, and the incremental
  layout carry produces bit-identical outcomes to a cold per-round
  rebuild (the incrementality contract) while actually hitting its
  cache on structurally stable rounds,
* the full platform loop — MSOA, pay-as-bid, and VCG mechanisms —
  yields identical round reports and ledger totals under every engine,
* the layout's Ξ (Theorem 3's price spread, read from the price column
  for every columnar ratio bound) equals the walk over bids exactly,
* on tie-heavy markets (prices from a small integer set), the
  head-candidate scan of selection and of the payment kernel breaks
  ratio and price ties and picks the runner-up exactly like the
  reference order, with the guard cheap and escalated, and
  its lockstep replays price every winner exactly like the scalar
  replays, whichever size rule picks the path,
* one payment call over several markets (a sharded round's batch)
  prices every bid exactly like one call per market, and like the
  scalar reference replay, and a second call on the same recorded
  trajectories agrees.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.columnar import (
    ColumnarInstance,
    ColumnarState,
    _guarded_choice,
    _ordered_candidates,
    columnar_critical_payments,
    columnar_greedy_selection,
)
from repro.core.msoa import run_msoa
from repro.core.ratios import price_spread
from repro.core.ssam import (
    GreedyStep,
    PaymentRule,
    _critical_payment,
    greedy_selection,
    run_ssam,
)
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.faults import FaultPlan, SellerDefault

from tests.properties.strategies import wsp_instances

pytestmark = pytest.mark.property

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

RULES = [PaymentRule.CRITICAL_RERUN, PaymentRule.ITERATION_RUNNER_UP]


def outcomes_for(instance, rule, *, engines=("reference", "columnar")):
    """One outcome per engine, or None if the instance is infeasible —
    in which case every engine must agree on the infeasibility too."""
    outcomes = {}
    try:
        outcomes[engines[0]] = run_ssam(
            instance, payment_rule=rule, engine=engines[0]
        )
    except InfeasibleInstanceError:
        for engine in engines[1:]:
            with pytest.raises(InfeasibleInstanceError):
                run_ssam(instance, payment_rule=rule, engine=engine)
        return None
    for engine in engines[1:]:
        outcomes[engine] = run_ssam(instance, payment_rule=rule, engine=engine)
    return outcomes


@pytest.mark.slow
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
    assert_same_trace(columnar, reference)


def assert_same_trace(ours, theirs):
    """Equal :class:`GreedyStep` traces, compared field by field."""
    assert len(ours) == len(theirs)
    for mine, other in zip(ours, theirs):
        for field in dataclasses.fields(GreedyStep):
            assert getattr(mine, field.name) == getattr(other, field.name), (
                mine.iteration,
                field.name,
            )


@pytest.mark.slow
@COMMON
@given(instance=wsp_instances())
@pytest.mark.parametrize("rule", list(PaymentRule))
def test_outcome_identical_both_engines(instance, rule):
    """Winners, payments, and dual certificates match bit for bit."""
    outcomes = outcomes_for(instance, rule)
    if outcomes is None:
        return
    assert outcomes["columnar"].to_dict() == outcomes["reference"].to_dict()


@pytest.mark.parametrize("rule", RULES)
def test_market_generator_sweep_identical(rule, make_instance):
    """300 seeded generator instances (150 per payment rule, disjoint
    seed ranges) agree across both engines end to end — winner
    keys, payments, duals, metadata."""
    offset = 0 if rule is PaymentRule.CRITICAL_RERUN else 150
    for seed in range(offset, offset + 150):
        instance = make_instance(seed, n_sellers=12, n_buyers=4)
        outcomes = outcomes_for(instance, rule)
        if outcomes is None:
            continue
        reference = outcomes["reference"].to_dict()
        assert outcomes["columnar"].to_dict() == reference, f"seed {seed}"


TIE_PRICES = (1.0, 2.0, 3.0, 4.0, 6.0)

GUARD_MODES = [
    pytest.param(False, id="guard"),
    pytest.param(True, id="exact-guard"),
]


@COMMON
@given(instance=wsp_instances(price_choices=(0.0, *TIE_PRICES)))
@pytest.mark.parametrize("exact_guard", GUARD_MODES)
def test_tie_heavy_selection_trace_identical(instance, exact_guard):
    """Tied ratios (zero prices included) are where the head scan's
    tie-break and runner-up could differ from the reference sort; the
    traces must match step for step in both guard modes."""
    demand = dict(instance.demand)
    try:
        reference = greedy_selection(
            instance.bids, dict(demand), exact_guard=exact_guard
        )
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            columnar_greedy_selection(
                instance.bids, dict(demand), exact_guard=exact_guard
            )
        return
    assert_same_trace(
        columnar_greedy_selection(
            instance.bids, dict(demand), exact_guard=exact_guard
        ),
        reference,
    )


@COMMON
@given(instance=wsp_instances(max_sellers=10, price_choices=TIE_PRICES))
@pytest.mark.parametrize("exact_guard", GUARD_MODES)
def test_tie_heavy_payments_identical(instance, exact_guard):
    """Integer prices make equal ratios common; the batched kernel must
    still price every bid (winners and losers) exactly like the scalar
    reference replay."""
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    options = dict(exact_guard=exact_guard)
    try:
        reference_steps = greedy_selection(instance.bids, demand, **options)
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            columnar_greedy_selection(instance.bids, demand, **options)
        return
    steps = columnar_greedy_selection(instance.bids, demand, **options)
    assert [s.bid.key for s in steps] == [
        s.bid.key for s in reference_steps
    ]
    probes = list(instance.bids)
    assert columnar_critical_payments(instance, probes, **options) == [
        _critical_payment(instance, bid, **options) for bid in probes
    ]


# The payment kernel's chunk bound, overridden per run: every replay
# in one chunk (the default at these sizes), or chunks of three.
KERNEL_MODES = {
    "lockstep": lambda n_bids: {},
    "lockstep-chunks": lambda n_bids: {"_LOCKSTEP_CELLS": 3 * n_bids},
}

# Zero-priced bids (a 0/0 quotient once their utility is gone) and
# +∞-priced ones (ties with the +∞ winner) on top of the tie-heavy
# prices: heads the walker must resolve inside the batch.
EDGE_PRICES = (0.0, *TIE_PRICES, math.inf)


@COMMON
@given(
    instance=st.one_of(
        wsp_instances(
            min_sellers=20,
            max_sellers=40,
            min_buyers=6,
            max_buyers=10,
            max_covered=3,
            price_choices=EDGE_PRICES,
        ),
        # Scarcer supply: more replays meet a head that strands a buyer.
        wsp_instances(
            min_sellers=10,
            max_sellers=30,
            min_buyers=6,
            max_buyers=10,
            max_covered=2,
            max_demand=6,
            price_choices=EDGE_PRICES,
        ),
    )
)
def test_lockstep_payments_identical(instance):
    """Narrow tie-heavy markets, with zero and +∞ prices among the
    ties, price every winner exactly like its scalar reference replay,
    in one chunk or in chunks of three."""
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    try:
        steps = greedy_selection(instance.bids, demand)
    except InfeasibleInstanceError:
        return
    winners = [step.bid for step in steps]
    expected = [_critical_payment(instance, bid) for bid in winners]
    for mode, constants in KERNEL_MODES.items():
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants(len(instance.bids)).items():
                patch.setattr(columnar, name, value)
            got = columnar_critical_payments(instance, winners)
        assert got == expected, mode


def _select_like_run_ssam(instance):
    """The columnar trajectory ``run_ssam`` would select, escalated to
    the exact guard when the cheap one cannot complete (None if even
    that is infeasible)."""
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    for exact_guard in (False, True):
        try:
            return columnar_greedy_selection(
                instance.bids, demand, exact_guard=exact_guard
            )
        except InfeasibleInstanceError:
            continue
    return None


def _own_sellers(instance, market, ceiling):
    """``instance`` under price ceiling ``ceiling``, its sellers
    renumbered so that no two markets of a batch share a bid key."""
    return WSPInstance(
        bids=tuple(
            dataclasses.replace(bid, seller=bid.seller + 1000 * market)
            for bid in instance.bids
        ),
        demand=instance.demand,
        price_ceiling=ceiling,
    )


# Each market with its own ceiling: 2.5 sits below most TIE_PRICES, so
# a pivotal winner priced above it is paid less than its own offer.
BATCH_MARKETS = st.lists(
    st.tuples(
        st.one_of(
            wsp_instances(
                min_sellers=6,
                max_sellers=14,
                min_buyers=3,
                max_buyers=8,
                max_covered=3,
                price_choices=EDGE_PRICES,
            ),
            # Scarcer supply: more replays meet a head that strands a
            # buyer.
            wsp_instances(
                min_sellers=4,
                max_sellers=12,
                min_buyers=3,
                max_buyers=8,
                max_covered=2,
                max_demand=4,
                price_choices=EDGE_PRICES,
            ),
        ),
        st.sampled_from((2.5, 100.0, None)),
    ),
    min_size=2,
    max_size=4,
)


@COMMON
@given(markets=BATCH_MARKETS)
@pytest.mark.parametrize("mode", list(KERNEL_MODES))
def test_multi_market_batch_is_per_market_payments(markets, mode):
    """One kernel call over several markets (a sharded round's shards,
    of different widths, ceilings and guard modes) prices every bid —
    winners and probed losers, on tie-heavy, zero and +∞ prices, with
    stranding heads resolved inside the batch — exactly like one call
    per market, which prices it exactly like the scalar reference
    replay.  A second call with the same
    trajectories agrees: the recorded states are never mutated."""
    markets = [_own_sellers(m, i, c) for i, (m, c) in enumerate(markets)]
    trajectories = [_select_like_run_ssam(m) for m in markets]
    kept = [(m, t) for m, t in zip(markets, trajectories) if t is not None]
    if not kept:
        return
    markets, trajectories = map(list, zip(*kept))
    # Probes run market by market backwards, so a bid's market is not
    # always the previous bid's.
    probes = [bid for m in reversed(markets) for bid in m.bids]
    expected = {
        bid.key: _critical_payment(m, bid, exact_guard=t.exact_guard)
        for m, t in zip(markets, trajectories)
        for bid in m.bids
    }
    width = max(len(m.bids) for m in markets)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in KERNEL_MODES[mode](width).items():
            patch.setattr(columnar, name, value)
        per_market = {
            bid.key: payment
            for m, t in zip(markets, trajectories)
            for bid, payment in zip(
                m.bids,
                columnar_critical_payments(m, m.bids, trajectory=t),
            )
        }
        batched = [
            columnar_critical_payments(markets, probes, trajectory=trajectories)
            for _ in range(2)
        ]
    assert per_market == expected
    assert batched[0] == batched[1] == [expected[bid.key] for bid in probes]


@COMMON
@given(
    instance=st.one_of(
        # Zero prices: all-zero sellers are skipped, a zero bottom under
        # a positive top makes Ξ infinite.
        wsp_instances(
            price_choices=(0.0, 0.5, 1.0, 3.0, 12.5), max_bids_per_seller=3
        ),
        wsp_instances(min_price=0.0, max_bids_per_seller=3),
    )
)
def test_layout_price_spread_is_price_spread(instance):
    """Ξ read from the layout's price column equals the walk over bids."""
    layout = ColumnarInstance.build(instance.bids, instance.demand)
    assert layout.price_spread() == price_spread(instance.bids)
    outcome = run_ssam(instance, engine="columnar")
    assert outcome.ratio_bound == run_ssam(
        instance, engine="reference"
    ).ratio_bound


@COMMON
@given(instance=wsp_instances(price_choices=(0.0, *TIE_PRICES)))
@pytest.mark.parametrize("infinite_row", [None, 0])
def test_head_candidate_is_the_ordered_head(instance, infinite_row):
    """At every step of a greedy run, the selection loop's winner is the
    row of ``_ordered_candidates(state)`` the guard walk picks (its head
    unless that strands a buyer) and its runner-up the next ratio, and
    the run is the reference's step for step; also with one row priced
    +∞ as in a payment replay."""
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    bids = list(instance.bids)
    if infinite_row is not None:
        bids[infinite_row] = bids[infinite_row].with_price(math.inf)
    try:
        reference = greedy_selection(bids, dict(demand))
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            columnar_greedy_selection(bids, demand)
        return
    run = columnar_greedy_selection(bids, demand)
    assert_same_trace(run, reference)
    for row, step, state in zip(run.rows, run, run.states):
        order, ratios = _ordered_candidates(state)
        pos = _guarded_choice(state, order, exact_guard=False)
        assert (row, step.ratio) == (int(order[pos]), float(ratios[pos]))
        assert step.runner_up_ratio == (
            float(ratios[pos + 1]) if pos + 1 < order.size else None
        )


class TestMsoaEquivalence:
    def test_horizons_identical_across_engines(self, make_horizon):
        for seed in (11, 23, 37, 53):
            rounds, capacities = make_horizon(seed, rounds=4)
            reference = run_msoa(rounds, capacities, engine="reference")
            columnar = run_msoa(rounds, capacities, engine="columnar")
            assert columnar.to_dict() == reference.to_dict(), f"seed {seed}"

    def test_reference_agrees_too(self, make_horizon):
        # ... with the cross-round layout carry off (cold rebuilds).
        rounds, capacities = make_horizon(11, rounds=3)
        reference = run_msoa(rounds, capacities, engine="reference")
        columnar = run_msoa(
            rounds, capacities, engine="columnar", columnar_incremental=False
        )
        assert columnar.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("plan_seed", [3, 9])
    def test_faulted_horizons_identical(self, make_horizon, plan_seed):
        plan = FaultPlan(
            seed=plan_seed,
            seller_defaults=(SellerDefault(probability=0.4),),
        )
        for seed in (11, 23):
            rounds, capacities = make_horizon(seed, rounds=4)
            reference = run_msoa(
                rounds, capacities, engine="reference", faults=plan
            )
            columnar = run_msoa(
                rounds, capacities, engine="columnar", faults=plan
            )
            assert columnar.to_dict() == reference.to_dict(), f"seed {seed}"
            assert reference.fault_events == columnar.fault_events


class TestMsoaIncrementality:
    """Carried columnar state must equal a cold rebuild every round."""

    def test_redrawn_horizons_carry_equals_cold(self, make_horizon):
        # Redrawn demand/bids miss the structural cache each round, so
        # this pins the carry logic's miss path (rebuild) too.
        for seed in (11, 23, 37):
            rounds, capacities = make_horizon(seed, rounds=4)
            carried = run_msoa(
                rounds, capacities, engine="columnar",
                columnar_incremental=True,
            )
            cold = run_msoa(
                rounds, capacities, engine="columnar",
                columnar_incremental=False,
            )
            assert carried.to_dict() == cold.to_dict(), f"seed {seed}"

    def test_faulted_horizons_carry_equals_cold(self, make_horizon):
        plan = FaultPlan(
            seed=3, seller_defaults=(SellerDefault(probability=0.4),)
        )
        rounds, capacities = make_horizon(11, rounds=4)
        carried = run_msoa(
            rounds, capacities, engine="columnar", faults=plan,
            columnar_incremental=True,
        )
        cold = run_msoa(
            rounds, capacities, engine="columnar", faults=plan,
            columnar_incremental=False,
        )
        assert carried.to_dict() == cold.to_dict()

    def test_stable_structure_hits_cache_and_stays_identical(
        self, make_instance
    ):
        # One instance replayed for T rounds under ample capacity keeps
        # the round structure fixed (ψ only moves prices), so the carry
        # must degrade to price-column refreshes: exactly one build,
        # T - 1 cache hits — and still the cold-rebuild outcome.
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        instance = make_instance(7, n_sellers=12, n_buyers=4)
        rounds = [instance] * 5
        sellers = {bid.seller for bid in instance.bids}
        capacities = {s: 10 * instance.total_demand for s in sellers}
        cold = run_msoa(
            rounds, capacities, engine="columnar",
            columnar_incremental=False,
        )
        _reset_for_tests()
        try:
            configure()
            carried = run_msoa(
                rounds, capacities, engine="columnar",
                columnar_incremental=True,
            )
            metrics = STATE.metrics
            assert metrics.counter("engine.columnar.cache_hits").value == 4
            assert metrics.counter("engine.columnar.cache_misses").value == 1
            assert metrics.counter("engine.columnar.builds").value == 1
            assert (
                metrics.counter("engine.columnar.price_refreshes").value == 4
            )
        finally:
            _reset_for_tests()
        assert carried.to_dict() == cold.to_dict()

    def test_carry_hits_only_while_mask_and_demand_repeat(self):
        # The bid frame re-prices its layout only while the bids, the
        # capacity exclusions and the positive demand all repeat; a
        # price-only change (ψ moving) hits, anything structural misses.
        from repro.core.bids import Bid
        from repro.core.msoa import MultiStageOnlineAuction
        from repro.core.wsp import WSPInstance
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        def bid(seller, covered, price):
            return Bid(
                seller=seller, index=0, covered=frozenset(covered), price=price
            )

        bids = [
            bid(10, {0, 1}, 1.0),  # wins round 0, then Θ = 2 excludes it
            bid(11, {0}, 5.0),
            bid(12, {1}, 5.0),
            bid(13, {0, 1}, 8.0),
        ]
        market = WSPInstance.from_bids(bids, {0: 1, 1: 1}, price_ceiling=50.0)
        new_demand = WSPInstance.from_bids(
            bids, {0: 1, 1: 0}, price_ceiling=50.0
        )
        new_cover = WSPInstance.from_bids(
            [bids[0], bid(11, {0, 1}, 5.0), *bids[2:]],
            {0: 1, 1: 1},
            price_ceiling=50.0,
        )
        rounds = [market, market, market, new_demand, new_cover, new_cover]
        expected = [
            "miss",  # first round: nothing carried
            "miss",  # capacity exclusion: seller 10 screened out
            "hit",  # price-only re-price: ψ of round 1's winner moved
            "miss",  # changed demand vector, same bids and mask
            "miss",  # changed cover set: a new bid frame
            "hit",
        ]
        capacities = {10: 2, 11: 100, 12: 100, 13: 100}
        cold = run_msoa(
            rounds, capacities, engine="columnar",
            columnar_incremental=False,
        )
        _reset_for_tests()
        try:
            configure()
            metrics = STATE.metrics
            auction = MultiStageOnlineAuction(capacities)
            seen, before = [], (0, 0)
            for instance in rounds:
                auction.process_round(instance)
                after = (
                    metrics.counter("engine.columnar.cache_hits").value,
                    metrics.counter("engine.columnar.cache_misses").value,
                )
                delta = (after[0] - before[0], after[1] - before[1])
                seen.append({(1, 0): "hit", (0, 1): "miss"}[delta])
                before = after
        finally:
            _reset_for_tests()
        assert seen == expected
        assert auction.finalize().to_dict() == cold.to_dict()


class TestPlatformLedgerEquivalence:
    """The full Figure-2 loop (clearing + transfers + ledger) is
    engine-independent, mechanism by mechanism."""

    def _run(self, engine, mechanism, faults=None):
        from repro.dist.agents import AgentStreamPolicy
        from repro.dist.scenario import DistScenario

        scenario = DistScenario(
            seed=5,
            horizon_rounds=3,
            mechanism=mechanism,
            engine=engine,
            faults=faults,
        )
        platform = scenario.build_platform(
            bidding_policy=AgentStreamPolicy(
                scenario.seed, scenario.policy_factory()
            )
        )
        reports = platform.run(3)
        return reports, platform.ledger

    @pytest.mark.parametrize("mechanism", [None, "pay-as-bid", "vcg"])
    def test_reports_and_ledger_identical(self, mechanism):
        ref_reports, ref_ledger = self._run("reference", mechanism)
        col_reports, col_ledger = self._run("columnar", mechanism)
        assert len(ref_reports) == len(col_reports)
        for ref_report, col_report in zip(ref_reports, col_reports):
            assert (ref_report.auction is None) == (
                col_report.auction is None
            )
            if ref_report.auction is not None:
                assert (
                    col_report.auction.outcome.to_dict()
                    == ref_report.auction.outcome.to_dict()
                )
        assert col_ledger.total_paid == ref_ledger.total_paid
        assert col_ledger.total_charged == ref_ledger.total_charged

    def test_faulted_platform_identical(self):
        plan = FaultPlan(
            seed=3, seller_defaults=(SellerDefault(probability=0.4),)
        )
        ref_reports, ref_ledger = self._run("reference", None, faults=plan)
        col_reports, col_ledger = self._run("columnar", None, faults=plan)
        for ref_report, col_report in zip(ref_reports, col_reports):
            if ref_report.auction is not None:
                assert (
                    col_report.auction.outcome.to_dict()
                    == ref_report.auction.outcome.to_dict()
                )
        assert col_ledger.total_paid == ref_ledger.total_paid
