"""Unit tests for the columnar production engine against the reference loops.

The property suites (``tests/properties/test_engine_equivalence.py`` and
``test_columnar_equivalence.py``) pin engine↔oracle equivalence
statistically; these tests pin the individual moving parts on
hand-built instances — the incremental state bookkeeping, the guard
escalation, the payment replay, and the ``run_ssam`` option surface.
"""

import pytest

from repro.core.bids import Bid
from repro.core.columnar import (
    ColumnarInstance,
    ColumnarState,
    columnar_critical_payments,
    columnar_greedy_selection,
)
from repro.core.ssam import (
    PaymentRule,
    _critical_payment,
    _selection_strands,
    greedy_selection,
    run_ssam,
)
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError


def bid(seller, covered, price, index=0):
    return Bid(seller=seller, index=index, covered=frozenset(covered), price=price)


def columnar_state(bids, demand):
    return ColumnarState(ColumnarInstance.build(bids, demand))


@pytest.fixture
def market(make_instance):
    return make_instance(42, n_sellers=20, n_buyers=5)


class TestColumnarState:
    BIDS = [
        bid(10, {1, 2}, 12.0),
        bid(11, {1}, 5.0),
        bid(12, {2, 3}, 9.0),
        bid(13, {3}, 4.0),
    ]
    DEMAND = {1: 1, 2: 1, 3: 2}

    def make(self):
        return (
            columnar_state(self.BIDS, self.DEMAND),
            CoverageState(demand=dict(self.DEMAND)),
        )

    def test_initial_utilities_match_rescan(self):
        state, coverage = self.make()
        assert state.utilities.tolist() == [
            coverage.utility_of(b) for b in self.BIDS
        ]

    def run(self):
        return columnar_greedy_selection(self.BIDS, dict(self.DEMAND))

    def test_apply_win_propagates_saturation(self):
        # Seller 13's bid wins first (ratio 4), then seller 12's
        # saturates buyers 2 and 3: bid 0 keeps only buyer 1's unit.
        run = self.run()
        assert [s.bid for s in run] == [self.BIDS[3], self.BIDS[2], self.BIDS[1]]
        coverage = CoverageState(demand=dict(self.DEMAND))
        for step, state in zip(run, run.states):
            assert state.utilities.tolist() == [
                coverage.utility_of(b) for b in self.BIDS
            ]
            coverage.apply(step.bid)
        assert run.states[2].utilities.tolist() == [1, 1, 0, 0]

    def test_remove_seller_deactivates_and_reports(self):
        # Each win retires its seller: its rows leave the market and the
        # buyers it covered lose it as a supplier.
        run = self.run()
        _, after_13, after_12 = run.states
        assert [b.seller for b in after_13.active_bids()] == [10, 11, 12]
        assert after_13.suppliers.tolist() == [2, 2, 1]
        assert [b.seller for b in after_12.active_bids()] == [10, 11]
        assert after_12.suppliers.tolist() == [2, 1, 0]

    def test_would_strand_matches_reference_guard(self):
        state, coverage = self.make()
        for row, b in enumerate(self.BIDS):
            assert state.would_strand(row) == _selection_strands(
                b, self.BIDS, coverage
            )

    def test_would_strand_detects_sole_supplier(self):
        # Buyer 1 needs 2 units from distinct sellers, and only sellers
        # 10 and 11 cover it: consuming seller 10 via its buyer-2 bid
        # leaves buyer 1 with a single admissible supplier.
        bids = [
            bid(10, {1}, 6.0, index=0),
            bid(10, {2}, 0.5, index=1),
            bid(11, {1}, 6.0),
            bid(12, {2}, 8.0),
        ]
        state = columnar_state(bids, {1: 2, 2: 1})
        assert state.would_strand(1)  # seller 10's cheap alternative
        assert not state.would_strand(0)
        assert not state.would_strand(3)


class TestColumnarGreedySelection:
    def test_matches_reference_on_market(self, market):
        reference = greedy_selection(market.bids, dict(market.demand))
        columnar = columnar_greedy_selection(market.bids, dict(market.demand))
        assert [s.bid.key for s in columnar] == [s.bid.key for s in reference]
        assert [s.ratio for s in columnar] == [s.ratio for s in reference]

    def test_infeasible_raises_like_reference(self):
        bids = (bid(10, {1}, 1.0),)
        with pytest.raises(InfeasibleInstanceError):
            columnar_greedy_selection(bids, {1: 2})

    def test_exact_guard_regression_instance(self):
        # The hypothesis-found instance from tests/core/test_guard.py:
        # the cheap guard strands, the exact guard completes.
        bids = (
            bid(100, {2}, 2.0),
            bid(101, {0, 1}, 2.0, index=0),
            bid(101, {2}, 1.0, index=1),
            bid(102, {0}, 1.0, index=0),
            bid(102, {1}, 1.0, index=1),
        )
        demand = {0: 1, 1: 1, 2: 1}
        with pytest.raises(InfeasibleInstanceError):
            columnar_greedy_selection(bids, dict(demand))
        columnar = columnar_greedy_selection(bids, dict(demand), exact_guard=True)
        reference = greedy_selection(bids, dict(demand), exact_guard=True)
        assert [s.bid.key for s in columnar] == [s.bid.key for s in reference]
        # run_ssam escalates to the exact guard on its own, identically
        # on both engines.
        instance = WSPInstance.from_bids(list(bids), demand)
        assert run_ssam(instance).to_dict() == run_ssam(
            instance, engine="reference"
        ).to_dict()


class TestColumnarCriticalPayment:
    @pytest.mark.parametrize("exact_guard", [False, True])
    def test_matches_reference_per_winner(self, market, exact_guard):
        steps = greedy_selection(
            market.bids, dict(market.demand), exact_guard=exact_guard
        )
        winners = [step.bid for step in steps]
        assert columnar_critical_payments(
            market, winners, exact_guard=exact_guard
        ) == [
            _critical_payment(market, winner, exact_guard=exact_guard)
            for winner in winners
        ]

    def test_batch_matches_serial_reference(self, market):
        columnar = run_ssam(market, payment_rule=PaymentRule.CRITICAL_RERUN)
        reference = run_ssam(
            market, payment_rule=PaymentRule.CRITICAL_RERUN, engine="reference"
        )
        assert [w.payment for w in columnar.winners] == [
            w.payment for w in reference.winners
        ]


class TestRunSsamOptions:
    def test_engine_name_validated(self, market):
        with pytest.raises(ConfigurationError):
            run_ssam(market, engine="turbo")

    def test_extra_positionals_rejected(self, market):
        with pytest.raises(TypeError):
            run_ssam(market, PaymentRule.CRITICAL_RERUN, 4)

    def test_guard_needing_instance_matches_reference(self):
        # An unguarded greedy would strand buyer 1's second unit; the
        # guarded default engine must agree with the reference oracle.
        instance = WSPInstance.from_bids(
            [
                bid(10, {1}, 6.0, index=0),
                bid(10, {2}, 0.5, index=1),
                bid(11, {1}, 6.0),
                bid(12, {2}, 8.0),
            ],
            {1: 2, 2: 1},
        )
        assert run_ssam(instance).to_dict() == run_ssam(
            instance, engine="reference"
        ).to_dict()
