"""Unit tests for the winner-selection problem model."""

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.wsp import CoverageState, WSPInstance, clear_supply_clamped
from repro.errors import ConfigurationError, InfeasibleInstanceError


def bid(seller, covered, price, index=0):
    return Bid(seller=seller, index=index, covered=frozenset(covered), price=price)


@pytest.fixture
def simple_instance():
    return WSPInstance.from_bids(
        [
            bid(10, {1, 2}, 12.0),
            bid(11, {1}, 5.0),
            bid(12, {2, 3}, 9.0),
            bid(13, {1, 2, 3}, 30.0),
            bid(14, {3}, 4.0),
        ],
        {1: 1, 2: 1, 3: 2},
    )


class TestConstruction:
    def test_buyers_sorted_and_positive_demand_only(self):
        instance = WSPInstance.from_bids(
            [bid(10, {2, 5}, 1.0)], {5: 1, 2: 2, 7: 0}
        )
        assert instance.buyers == (2, 5)

    def test_total_demand_sums_units(self, simple_instance):
        assert simple_instance.total_demand == 4

    def test_sellers_sorted(self, simple_instance):
        assert simple_instance.sellers == (10, 11, 12, 13, 14)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: -1})

    def test_fractional_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 1.5})

    def test_non_positive_ceiling_rejected(self):
        with pytest.raises(ConfigurationError):
            WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 1}, price_ceiling=0.0)

    def test_effective_ceiling_defaults_to_max_price(self, simple_instance):
        assert simple_instance.effective_ceiling == 30.0

    def test_effective_ceiling_uses_explicit_value(self):
        instance = WSPInstance.from_bids(
            [bid(10, {1}, 1.0)], {1: 1}, price_ceiling=99.0
        )
        assert instance.effective_ceiling == 99.0


class TestViews:
    def test_bids_of_filters_by_seller(self, simple_instance):
        assert [b.key for b in simple_instance.bids_of(10)] == [(10, 0)]

    def test_without_seller_removes_all_its_bids(self, simple_instance):
        reduced = simple_instance.without_seller(10)
        assert 10 not in reduced.sellers
        assert reduced.demand == simple_instance.demand

    def test_replace_bid_swaps_matching_key(self, simple_instance):
        new = bid(11, {1}, 2.5)
        replaced = simple_instance.replace_bid(new)
        assert replaced.bids_of(11)[0].price == 2.5

    def test_replace_bid_unknown_key_rejected(self, simple_instance):
        with pytest.raises(ConfigurationError):
            simple_instance.replace_bid(bid(99, {1}, 2.5))


class TestFeasibility:
    def test_simple_instance_feasible(self, simple_instance):
        simple_instance.check_feasible()

    def test_undersupplied_buyer_infeasible(self):
        instance = WSPInstance.from_bids(
            [bid(10, {1}, 1.0)], {1: 2}
        )
        with pytest.raises(InfeasibleInstanceError, match="distinct sellers"):
            instance.check_feasible()

    def test_alternative_bids_do_not_double_count(self):
        # Seller 10's two alternatives cover buyers 1 and 2, but only one
        # can win; buyer demand of one unit each from two buyers needs a
        # second seller.
        instance = WSPInstance.from_bids(
            [
                bid(10, {1}, 1.0, index=0),
                bid(10, {2}, 1.0, index=1),
            ],
            {1: 1, 2: 1},
        )
        assert not instance.is_feasible()

    def test_is_feasible_boolean_wrapper(self, simple_instance):
        assert simple_instance.is_feasible()

    def test_zero_demand_always_feasible(self):
        instance = WSPInstance.from_bids([], {})
        instance.check_feasible()


class TestMatrices:
    def test_shapes_and_contents(self, simple_instance):
        c, a_cover, b_cover, a_seller, b_seller = (
            simple_instance.constraint_matrices()
        )
        assert c.shape == (5,)
        assert a_cover.shape == (3, 5)
        assert a_seller.shape == (5, 5)
        assert np.all(b_seller == 1)
        # Buyer 3 (row 2) is covered by bids of sellers 12, 13, 14.
        assert list(np.nonzero(a_cover[2])[0]) == [2, 3, 4]
        assert b_cover[2] == 2


class TestSolutionVerification:
    def test_valid_solution_accepted(self, simple_instance):
        chosen = [
            simple_instance.bids[1],  # (11, {1})
            simple_instance.bids[2],  # (12, {2,3})
            simple_instance.bids[4],  # (14, {3})
        ]
        simple_instance.verify_solution(chosen)
        assert simple_instance.solution_cost(chosen) == pytest.approx(18.0)

    def test_double_selection_rejected(self, simple_instance):
        first = simple_instance.bids[0]
        with pytest.raises(InfeasibleInstanceError):
            simple_instance.verify_solution([first, first])

    def test_under_coverage_rejected(self, simple_instance):
        with pytest.raises(InfeasibleInstanceError):
            simple_instance.verify_solution([simple_instance.bids[1]])

    def test_two_bids_same_seller_rejected(self):
        instance = WSPInstance.from_bids(
            [bid(10, {1}, 1.0, index=0), bid(10, {1}, 2.0, index=1), bid(11, {1}, 3.0)],
            {1: 1},
        )
        with pytest.raises(InfeasibleInstanceError):
            instance.verify_solution([instance.bids[0], instance.bids[1]])


class TestCoverageState:
    def test_utility_counts_unmet_covered_buyers(self):
        state = CoverageState(demand={1: 2, 2: 1})
        offer = bid(10, {1, 2}, 1.0)
        assert state.utility_of(offer) == 2
        state.apply(offer)
        assert state.utility_of(bid(11, {1, 2}, 1.0)) == 1  # buyer 2 done

    def test_apply_returns_marginal_units(self):
        state = CoverageState(demand={1: 1})
        assert state.apply(bid(10, {1}, 1.0)) == 1
        assert state.apply(bid(11, {1}, 1.0)) == 0

    def test_unmet_and_satisfied(self):
        state = CoverageState(demand={1: 2})
        assert state.unmet == 2 and not state.satisfied
        state.apply(bid(10, {1}, 1.0))
        state.apply(bid(11, {1}, 1.0))
        assert state.unmet == 0 and state.satisfied

    def test_copy_is_independent(self):
        state = CoverageState(demand={1: 1})
        clone = state.copy()
        state.apply(bid(10, {1}, 1.0))
        assert clone.unmet == 1 and state.unmet == 0


class TestClearSupplyClamped:
    """The one clamp-and-retry repair shared by MSOA's best effort, a
    shard's local clearing and partial fault degradation."""

    def market(self):
        # Buyer 1 needs 3 units but only sellers 10 and 11 cover it.
        return WSPInstance.from_bids(
            [bid(10, {1}, 5.0), bid(11, {1, 2}, 6.0)],
            {1: 3, 2: 1},
            price_ceiling=20.0,
        )

    def test_clears_the_clamped_demand(self):
        seen = []
        result = clear_supply_clamped(
            self.market(), lambda inst: seen.append(inst) or "cleared"
        )
        assert result == "cleared"
        assert [dict(inst.demand) for inst in seen] == [{1: 2, 2: 1}]
        assert seen[0].price_ceiling == 20.0

    def stuck(self, inst):
        if inst.total_demand:
            raise InfeasibleInstanceError("stuck")
        return inst

    def test_default_fallback_clears_an_empty_demand(self):
        instance = self.market()
        empty = clear_supply_clamped(instance, self.stuck)
        assert dict(empty.demand) == {} and empty.price_ceiling is None
        assert empty.bids == instance.bids

    def test_given_fallback_replaces_the_empty_clear(self):
        instance = self.market()
        result = clear_supply_clamped(
            instance, self.stuck, lambda inst: ("skipped", inst)
        )
        assert result == ("skipped", instance)
