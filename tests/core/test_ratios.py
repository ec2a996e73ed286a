"""Unit tests for the ratio arithmetic (Theorems 3 and 7 bounds)."""

import math

import pytest

from repro.core.bids import Bid
from repro.core.ratios import (
    capacity_margin,
    harmonic,
    msoa_competitive_bound,
    price_spread,
    ssam_ratio_bound,
)
from repro.errors import ConfigurationError


def bid(seller, covered, price, index=0):
    return Bid(seller=seller, index=index, covered=frozenset(covered), price=price)


class TestHarmonic:
    def test_small_values_exact(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(2) == pytest.approx(1.5)
        assert harmonic(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_monotone(self):
        values = [harmonic(n) for n in range(1, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_n_asymptotic_matches_exact(self):
        exact = sum(1.0 / k for k in range(1, 20_001))
        assert harmonic(20_000) == pytest.approx(exact, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            harmonic(-1)


class TestPriceSpread:
    def test_single_bid_per_seller_gives_one(self):
        bids = [bid(1, {10}, 5.0), bid(2, {10}, 50.0)]
        assert price_spread(bids) == 1.0

    def test_multi_bid_seller_spread(self):
        bids = [bid(1, {10}, 5.0, index=0), bid(1, {11}, 20.0, index=1)]
        assert price_spread(bids) == pytest.approx(4.0)

    def test_worst_seller_dominates(self):
        bids = [
            bid(1, {10}, 5.0, index=0),
            bid(1, {11}, 10.0, index=1),
            bid(2, {10}, 1.0, index=0),
            bid(2, {11}, 10.0, index=1),
        ]
        assert price_spread(bids) == pytest.approx(10.0)

    def test_zero_min_with_positive_max_is_infinite(self):
        bids = [bid(1, {10}, 0.0, index=0), bid(1, {11}, 3.0, index=1)]
        assert math.isinf(price_spread(bids))

    def test_all_zero_prices_spread_one(self):
        bids = [bid(1, {10}, 0.0, index=0), bid(1, {11}, 0.0, index=1)]
        assert price_spread(bids) == 1.0

    def test_empty_bids_spread_one(self):
        assert price_spread([]) == 1.0


class TestSSAMBound:
    def test_single_bid_sellers_reduce_to_harmonic(self):
        bids = [bid(1, {10}, 5.0), bid(2, {10}, 7.0)]
        assert ssam_ratio_bound(3, bids) == pytest.approx(harmonic(3))

    def test_zero_demand_clamped_to_one_unit(self):
        assert ssam_ratio_bound(0, [bid(1, {10}, 5.0)]) == pytest.approx(1.0)


class TestCapacityMargin:
    def test_minimum_over_bids(self):
        bids = [bid(1, {10, 11}, 5.0), bid(2, {10}, 5.0)]
        beta = capacity_margin({1: 6, 2: 3}, bids)
        assert beta == pytest.approx(3.0)  # min(6/2, 3/1)

    def test_unconstrained_sellers_skipped(self):
        bids = [bid(1, {10, 11}, 5.0)]
        assert math.isinf(capacity_margin({}, bids))


class TestCompetitiveBound:
    def test_formula(self):
        assert msoa_competitive_bound(2.0, 3.0) == pytest.approx(3.0)

    def test_beta_at_most_one_gives_infinity(self):
        assert math.isinf(msoa_competitive_bound(2.0, 1.0))
        assert math.isinf(msoa_competitive_bound(2.0, 0.5))

    def test_infinite_beta_gives_alpha(self):
        # The β → ∞ limit of αβ/(β−1), not inf/inf = nan.
        assert msoa_competitive_bound(2.0, math.inf) == 2.0
        assert msoa_competitive_bound(1.0, math.inf) == 1.0
        assert msoa_competitive_bound(2.0, 1e300) == pytest.approx(2.0)

    def test_non_positive_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            msoa_competitive_bound(0.0, 2.0)
        with pytest.raises(ConfigurationError):
            msoa_competitive_bound(0.0, math.inf)

    def test_bound_decreases_with_beta(self):
        bounds = [msoa_competitive_bound(2.0, b) for b in (1.5, 2.0, 4.0, 10.0)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
