"""Unit tests for the bid data structures."""

import pytest

from repro.core.bids import Bid, BidderProfile, group_bids_by_seller, validate_bids
from repro.errors import ConfigurationError


def make_bid(seller=1, index=0, covered=(10, 11), price=5.0, true_cost=None):
    return Bid(
        seller=seller,
        index=index,
        covered=frozenset(covered),
        price=price,
        true_cost=true_cost,
    )


class TestBid:
    def test_key_is_seller_index_pair(self):
        assert make_bid(seller=3, index=2).key == (3, 2)

    def test_size_counts_covered_buyers(self):
        assert make_bid(covered=(10, 11, 12)).size == 3

    def test_cost_defaults_to_price(self):
        assert make_bid(price=7.5).cost == 7.5

    def test_cost_uses_true_cost_when_given(self):
        assert make_bid(price=7.5, true_cost=4.0).cost == 4.0

    def test_empty_coverage_rejected(self):
        with pytest.raises(ConfigurationError):
            make_bid(covered=())

    def test_negative_price_rejected(self):
        with pytest.raises(ConfigurationError):
            make_bid(price=-1.0)

    def test_negative_true_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            make_bid(true_cost=-0.5)

    def test_nan_price_and_true_cost_rejected(self):
        # NaN slips past ``< 0``; the engines would then disagree (the
        # reference sort is undefined, the columnar head scan finds no
        # minimum).
        with pytest.raises(ConfigurationError, match="nan"):
            make_bid(price=float("nan"))
        with pytest.raises(ConfigurationError, match="nan"):
            make_bid(true_cost=float("nan"))

    def test_infinite_price_stays_legal(self):
        # Payment replays price a winner out with ``with_price(inf)``.
        assert make_bid().with_price(float("inf")).price == float("inf")

    def test_seller_cannot_cover_itself(self):
        with pytest.raises(ConfigurationError):
            make_bid(seller=10, covered=(10, 11))

    def test_with_price_pins_true_cost(self):
        bid = make_bid(price=5.0)
        deviated = bid.with_price(9.0)
        assert deviated.price == 9.0
        assert deviated.cost == 5.0
        assert deviated.key == bid.key
        assert deviated.covered == bid.covered

    def test_with_price_preserves_existing_true_cost(self):
        bid = make_bid(price=5.0, true_cost=3.0)
        assert bid.with_price(9.0).cost == 3.0

    def test_bids_are_hashable_and_frozen(self):
        bid = make_bid()
        assert bid in {bid}
        with pytest.raises(AttributeError):
            bid.price = 1.0  # type: ignore[misc]


class TestBidderProfile:
    def test_positive_capacity_ok(self):
        assert BidderProfile(seller=1, capacity=5).capacity == 5

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ConfigurationError):
            BidderProfile(seller=1, capacity=capacity)


class TestGrouping:
    def test_groups_by_seller_preserving_order(self):
        bids = [
            make_bid(seller=1, index=0),
            make_bid(seller=2, index=0),
            make_bid(seller=1, index=1),
        ]
        grouped = group_bids_by_seller(bids)
        assert sorted(grouped) == [1, 2]
        assert [b.index for b in grouped[1]] == [0, 1]

    def test_empty_input_gives_empty_mapping(self):
        assert group_bids_by_seller([]) == {}


class TestValidateBids:
    DEMAND = {10: 1, 11: 2}

    def test_valid_bids_pass_through_in_order(self):
        bids = [make_bid(seller=1), make_bid(seller=2)]
        assert validate_bids(bids, self.DEMAND) == tuple(bids)

    def test_duplicate_keys_rejected(self):
        bids = [make_bid(seller=1, index=0), make_bid(seller=1, index=0)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            validate_bids(bids, self.DEMAND)

    def test_unknown_buyer_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown buyers"):
            validate_bids([make_bid(covered=(10, 99))], self.DEMAND)

    def test_seller_doubling_as_buyer_rejected(self):
        with pytest.raises(ConfigurationError, match="both seller and buyer"):
            validate_bids([make_bid(seller=10, covered=(11,))], self.DEMAND)
