"""Unit tests for the outcome containers."""

import json

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.msoa import run_msoa
from repro.core.outcomes import (
    AuctionOutcome,
    OnlineOutcome,
    RowMapping,
    ScaledBids,
    WinningBid,
)
from repro.core.ssam import PaymentRule, run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import MechanismError


def bid(seller, covered, price, index=0, true_cost=None):
    return Bid(
        seller=seller,
        index=index,
        covered=frozenset(covered),
        price=price,
        true_cost=true_cost,
    )


@pytest.fixture
def market():
    return WSPInstance.from_bids(
        [
            bid(10, {1, 2}, 12.0),
            bid(11, {1}, 5.0),
            bid(12, {2, 3}, 9.0),
            bid(14, {3}, 4.0),
        ],
        {1: 1, 2: 1, 3: 2},
    )


class TestWinningBid:
    def test_utility_is_payment_minus_cost(self):
        winner = WinningBid(
            bid=bid(10, {1}, 5.0, true_cost=3.0),
            payment=8.0,
            iteration=0,
            marginal_utility=1,
            average_price=5.0,
            original_price=5.0,
        )
        assert winner.utility == pytest.approx(5.0)

    def test_negative_payment_rejected(self):
        with pytest.raises(MechanismError):
            WinningBid(
                bid=bid(10, {1}, 5.0),
                payment=-1.0,
                iteration=0,
                marginal_utility=1,
                average_price=5.0,
                original_price=5.0,
            )

    def test_zero_utility_winner_rejected(self):
        with pytest.raises(MechanismError):
            WinningBid(
                bid=bid(10, {1}, 5.0),
                payment=5.0,
                iteration=0,
                marginal_utility=0,
                average_price=5.0,
                original_price=5.0,
            )


class TestAuctionOutcome:
    def test_winner_views(self, market):
        outcome = run_ssam(market)
        assert outcome.winner_keys == {
            w.bid.key for w in outcome.winners
        }
        assert outcome.winning_sellers == {
            w.bid.seller for w in outcome.winners
        }

    def test_coverage_meets_demand(self, market):
        outcome = run_ssam(market)
        coverage = outcome.coverage
        for buyer, units in market.demand.items():
            assert coverage[buyer] >= units

    def test_payment_and_utility_lookup(self, market):
        outcome = run_ssam(market)
        some_winner = outcome.winners[0]
        assert outcome.payment_of(some_winner.bid.seller) == pytest.approx(
            some_winner.payment
        )
        losers = set(market.sellers) - outcome.winning_sellers
        for seller in losers:
            assert outcome.payment_of(seller) == 0.0
            assert outcome.utility_of(seller) == 0.0


class TestOnlineOutcome:
    CAPACITIES = {10: 6, 11: 4, 12: 6, 14: 4}

    def test_aggregates(self, market):
        outcome = run_msoa([market, market], self.CAPACITIES)
        assert outcome.social_cost > 0
        assert outcome.total_payment >= outcome.social_cost - 1e-9
        assert len(outcome.winners_per_round) == 2

    def test_capacity_verification_catches_overflow(self, market):
        good = run_msoa([market], self.CAPACITIES)
        bad = OnlineOutcome(
            rounds=good.rounds,
            capacities={seller: 1 for seller in self.CAPACITIES},
            alpha=good.alpha,
            beta=good.beta,
            competitive_bound=good.competitive_bound,
        )
        with pytest.raises(MechanismError):
            bad.verify_capacities()

    def test_empty_outcome(self):
        outcome = OnlineOutcome(
            rounds=(),
            capacities={},
            alpha=1.0,
            beta=float("inf"),
            competitive_bound=1.0,
        )
        assert outcome.social_cost == 0.0
        assert outcome.capacity_used == {}


class TestSerde:
    """to_dict()/from_dict() round-trips survive a JSON encode cycle."""

    @pytest.mark.parametrize("rule", list(PaymentRule))
    def test_auction_outcome_round_trip(self, market, rule):
        outcome = run_ssam(market, payment_rule=rule)
        payload = json.loads(json.dumps(outcome.to_dict()))
        again = AuctionOutcome.from_dict(payload)
        assert again.to_dict() == outcome.to_dict()
        assert again.winner_keys == outcome.winner_keys
        assert again.total_payment == pytest.approx(outcome.total_payment)
        assert again.duals.certified_lower_bound() == pytest.approx(
            outcome.duals.certified_lower_bound()
        )
        again.verify()

    def test_online_outcome_round_trip(self, market):
        capacities = {10: 6, 11: 4, 12: 6, 14: 4}
        outcome = run_msoa([market, market], capacities)
        payload = json.loads(json.dumps(outcome.to_dict()))
        again = OnlineOutcome.from_dict(payload)
        assert again.to_dict() == outcome.to_dict()
        assert again.social_cost == pytest.approx(outcome.social_cost)
        assert len(again.rounds) == len(outcome.rounds)
        again.verify_capacities()

    def test_infinite_beta_survives(self, market):
        outcome = run_msoa([market], {10: 6, 11: 4, 12: 6, 14: 4})
        data = outcome.to_dict()
        data["beta"] = float("inf")
        again = OnlineOutcome.from_dict(json.loads(json.dumps(data)))
        assert again.beta == float("inf")

    def test_wrong_kind_rejected(self, market):
        data = run_ssam(market).to_dict()
        data["kind"] = "online"
        with pytest.raises(MechanismError):
            AuctionOutcome.from_dict(data)

    def test_future_schema_rejected(self, market):
        data = run_ssam(market).to_dict()
        data["schema_version"] = 999
        with pytest.raises(MechanismError):
            AuctionOutcome.from_dict(data)


class TestLazyViews:
    """The read-only views MSOA's round results are made of."""

    def test_scaled_bids_build_each_bid_once_in_order(self, market):
        rows = np.array([0, 2, 3])
        prices = np.array([13.0, 9.5, 4.0])
        view = ScaledBids(market.bids, rows, prices)
        eager = tuple(
            Bid(
                seller=market.bids[r].seller,
                index=market.bids[r].index,
                covered=market.bids[r].covered,
                price=p,
                true_cost=market.bids[r].cost,
            )
            for r, p in zip(rows, prices)
        )
        assert len(view) == 3
        assert view == eager and tuple(view) == eager
        assert view[-1] is view[2] and view[0] is next(iter(view))
        assert view[1:] == eager[1:]
        assert type(view[0].price) is float
        with pytest.raises(IndexError):
            view[3]

    def test_row_mapping_is_the_dict_of_its_rows(self, market):
        keys = [b.key for b in market.bids]
        row_of = {key: row for row, key in enumerate(keys)}
        prices = [b.price for b in market.bids]
        full = RowMapping(keys, row_of, prices)
        assert full == {b.key: b.price for b in market.bids}
        assert list(full) == keys and len(full) == 4
        masked = RowMapping(
            keys, row_of, prices, np.array([True, False, True, True])
        )
        assert list(masked) == [keys[0], keys[2], keys[3]]
        assert len(masked) == 3
        assert masked == {k: p for k, p in zip(keys, prices) if k != keys[1]}
        assert keys[1] not in masked
        with pytest.raises(KeyError):
            masked[keys[1]]

    def test_msoa_round_views_round_trip(self, market):
        # Θ = 1 for seller 12 (size 2): excluded from the first round on.
        outcome = run_msoa(
            [market] * 3, {10: 6, 11: 4, 12: 1, 14: 4}, on_infeasible="skip"
        )
        assert isinstance(outcome.rounds[0].scaled_prices, RowMapping)
        assert len(outcome.rounds[0].scaled_prices) == 3
        data = outcome.to_dict()
        assert OnlineOutcome.from_dict(data).to_dict() == data
