"""Unit tests for max-min fair sharing."""

import pytest

from repro.edge.fair_share import max_min_fair_share
from repro.errors import ConfigurationError


class TestMaxMinFairShare:
    def test_equal_split_when_demands_exceed_capacity(self):
        allocation = max_min_fair_share(9.0, {1: 10.0, 2: 10.0, 3: 10.0})
        assert all(v == pytest.approx(3.0) for v in allocation.values())

    def test_small_demands_fully_met(self):
        allocation = max_min_fair_share(10.0, {1: 1.0, 2: 2.0, 3: 20.0})
        assert allocation[1] == pytest.approx(1.0)
        assert allocation[2] == pytest.approx(2.0)
        assert allocation[3] == pytest.approx(7.0)

    def test_total_never_exceeds_capacity(self):
        allocation = max_min_fair_share(5.0, {1: 4.0, 2: 4.0})
        assert sum(allocation.values()) <= 5.0 + 1e-9

    def test_weighted_shares(self):
        allocation = max_min_fair_share(
            6.0, {1: 100.0, 2: 100.0}, weights={1: 2.0, 2: 1.0}
        )
        assert allocation[1] == pytest.approx(4.0)
        assert allocation[2] == pytest.approx(2.0)

    def test_zero_demand_gets_nothing(self):
        allocation = max_min_fair_share(10.0, {1: 0.0, 2: 5.0})
        assert allocation[1] == 0.0
        assert allocation[2] == pytest.approx(5.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            max_min_fair_share(-1.0, {1: 1.0})

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            max_min_fair_share(1.0, {1: -1.0})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            max_min_fair_share(1.0, {1: 1.0}, weights={1: 0.0})

    def test_empty_demands(self):
        assert max_min_fair_share(5.0, {}) == {}

    def test_never_exceeds_individual_demand(self):
        allocation = max_min_fair_share(100.0, {1: 3.0, 2: 4.0})
        assert allocation[1] <= 3.0 + 1e-9
        assert allocation[2] <= 4.0 + 1e-9

