"""Literal per-round outcomes of the single-round baseline adapters.

:func:`~repro.core.registry.make_online` runs every ``single`` mechanism
through MSOA's online loop with ``ψ ≡ 0``.  These pins hold that loop to
exact recorded numbers — winner keys, payments and cumulative χ per
round — for four baselines on two small seeded horizons whose tight
capacities force infeasible rounds, with and without a seeded
:class:`~repro.faults.models.SellerDefault` plan.  A change to the shared
loop that moves any adapter's selection, payments or capacity
accounting fails here.

Each entry maps ``(horizon seed, mechanism, faulted)`` to the per-round
``(payments by winner key, non-zero χ)`` pairs under
``on_infeasible="skip"`` and the index of the round on which
``on_infeasible="raise"`` raises (``None`` when no round is
infeasible).  The values are literals, not float hashes, so they compare
across Python versions.
"""

import numpy as np
import pytest

from repro.core.registry import make_online
from repro.errors import InfeasibleInstanceError
from repro.faults import FaultPlan, SellerDefault
from repro.workload.bidgen import MarketConfig, generate_horizon

PINS = {
    (3, "pay-as-bid", False): (
        [
            ({(1001, 0): 12.271317837606446, (1005, 0): 15.467885614220114,
              (1003, 0): 25.752254994633574, (1002, 1): 15.179779202025031},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({(1004, 0): 12.332302718785346, (1000, 1): 19.717430760418416},
             {1000: 2, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 2}),
        ],
        1,
    ),
    (3, "pay-as-bid", True): (
        [
            ({(1005, 0): 15.467885614220114, (1003, 0): 25.752254994633574,
              (1002, 1): 15.179779202025031, (1000, 0): 27.674127391390588},
             {1000: 2, 1002: 2, 1003: 3, 1005: 2}),
            ({(1004, 0): 12.1223693041367, (1001, 0): 25.17209470025037,
              (1000, 1): 25.592318202653793},
             {1000: 5, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 2}),
            ({(1005, 1): 24.073051621993418, (1000, 1): 19.717430760418416},
             {1000: 7, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 5}),
        ],
        None,
    ),
    (3, "greedy-density", False): (
        [
            ({(1001, 0): 12.271317837606446, (1005, 0): 15.467885614220114,
              (1003, 0): 25.752254994633574, (1002, 1): 15.179779202025031},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({(1004, 0): 12.332302718785346, (1000, 1): 19.717430760418416},
             {1000: 2, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 2}),
        ],
        1,
    ),
    (3, "greedy-density", True): (
        [
            ({(1005, 0): 15.467885614220114, (1003, 0): 25.752254994633574,
              (1002, 1): 15.179779202025031, (1000, 0): 27.674127391390588},
             {1000: 2, 1002: 2, 1003: 3, 1005: 2}),
            ({(1004, 0): 12.1223693041367, (1001, 0): 25.17209470025037,
              (1000, 1): 25.592318202653793},
             {1000: 5, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 2}),
            ({(1005, 1): 24.073051621993418, (1000, 1): 19.717430760418416},
             {1000: 7, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 5}),
        ],
        None,
    ),
    (3, "vcg", False): (
        [
            ({(1001, 0): 27.674127391390584, (1002, 1): 27.674127391390584,
              (1003, 0): 27.674127391390584, (1005, 0): 27.67412739139059},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({(1000, 1): 24.073051621993415, (1004, 0): 24.073051621993418},
             {1000: 2, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 2}),
        ],
        1,
    ),
    (3, "vcg", True): (
        [
            ({(1002, 1): 27.674127391390584, (1003, 0): 27.674127391390584,
              (1005, 0): 27.67412739139059, (1000, 0): 28.54391700173326},
             {1000: 2, 1002: 2, 1003: 3, 1005: 2}),
            ({(1001, 0): 150.0, (1004, 0): 99.99999999999999,
              (1005, 0): 150.0},
             {1000: 2, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 5}),
            ({(1000, 1): 19.82426109888022, (1005, 1): 150.0},
             {1000: 4, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 8}),
        ],
        None,
    ),
    (3, "posted-price", False): (
        [
            ({(1001, 0): 150.0, (1002, 1): 100.0,
              (1005, 0): 100.0, (1003, 0): 150.0},
             {1001: 3, 1002: 2, 1003: 3, 1005: 2}),
            ({(1005, 0): 150.0, (1004, 0): 100.0,
              (1000, 1): 150.0},
             {1000: 3, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 5}),
            ({(1005, 1): 150.0, (1000, 1): 100.0},
             {1000: 5, 1001: 3, 1002: 2, 1003: 3, 1004: 2, 1005: 8}),
        ],
        None,
    ),
    (3, "posted-price", True): (
        [
            ({(1002, 1): 100.0, (1005, 0): 100.0,
              (1003, 0): 150.0, (1004, 0): 150.0},
             {1002: 2, 1003: 3, 1004: 3, 1005: 2}),
            ({(1001, 0): 150.0, (1000, 1): 150.0},
             {1000: 3, 1001: 3, 1002: 2, 1003: 3, 1004: 3, 1005: 2}),
            ({(1005, 1): 150.0, (1000, 1): 100.0},
             {1000: 5, 1001: 3, 1002: 2, 1003: 3, 1004: 3, 1005: 5}),
        ],
        None,
    ),
    (8, "pay-as-bid", False): (
        [
            ({(1003, 0): 11.295891312916853, (1005, 0): 12.969427732457255,
              (1000, 0): 18.232234417793848, (1001, 0): 19.1459978666949},
             {1000: 3, 1001: 3, 1003: 3, 1005: 3}),
            ({(1003, 0): 15.404926624848827, (1004, 0): 14.60366447143551,
              (1000, 1): 17.045090564336025},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
            ({},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
        ],
        2,
    ),
    (8, "pay-as-bid", True): (
        [
            ({(1000, 0): 18.232234417793848},
             {1000: 3}),
            ({(1005, 0): 14.251470466194345, (1004, 0): 14.60366447143551,
              (1003, 0): 15.404926624848827},
             {1000: 3, 1003: 3, 1004: 2, 1005: 3}),
            ({(1001, 0): 12.301195259265434, (1002, 0): 19.655124878420388},
             {1000: 3, 1001: 3, 1002: 3, 1003: 3, 1004: 2, 1005: 3}),
        ],
        None,
    ),
    (8, "greedy-density", False): (
        [
            ({(1003, 0): 11.295891312916853, (1005, 0): 12.969427732457255,
              (1000, 0): 18.232234417793848, (1001, 0): 19.1459978666949},
             {1000: 3, 1001: 3, 1003: 3, 1005: 3}),
            ({(1003, 0): 15.404926624848827, (1004, 0): 14.60366447143551,
              (1000, 1): 17.045090564336025},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
            ({},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
        ],
        2,
    ),
    (8, "greedy-density", True): (
        [
            ({(1000, 0): 18.232234417793848},
             {1000: 3}),
            ({(1005, 0): 14.251470466194345, (1004, 0): 14.60366447143551,
              (1003, 0): 15.404926624848827},
             {1000: 3, 1003: 3, 1004: 2, 1005: 3}),
            ({(1001, 0): 12.301195259265434, (1002, 0): 19.655124878420388},
             {1000: 3, 1001: 3, 1002: 3, 1003: 3, 1004: 2, 1005: 3}),
        ],
        None,
    ),
    (8, "vcg", False): (
        [
            ({(1000, 0): 27.974716097237852, (1001, 0): 27.974716097237852,
              (1003, 0): 27.974716097237867, (1005, 0): 27.97471609723786},
             {1000: 3, 1001: 3, 1003: 3, 1005: 3}),
            ({(1000, 1): 25.02780834200281, (1003, 0): 25.027808342002814,
              (1004, 0): 25.027808342002814},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
            ({},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
        ],
        2,
    ),
    (8, "vcg", True): (
        [
            ({(1003, 0): 27.974716097237867},
             {1003: 3}),
            ({(1003, 0): 17.04509056433602, (1004, 0): 17.04509056433602,
              (1005, 0): 17.045090564336018},
             {1003: 6, 1004: 2, 1005: 3}),
            ({(1000, 0): 150.0, (1001, 0): 150.0},
             {1000: 3, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
        ],
        None,
    ),
    (8, "posted-price", False): (
        [
            ({(1003, 0): 150.0, (1005, 0): 150.0,
              (1000, 0): 150.0, (1001, 0): 150.0},
             {1000: 3, 1001: 3, 1003: 3, 1005: 3}),
            ({(1003, 0): 150.0, (1004, 0): 100.0,
              (1000, 1): 100.0},
             {1000: 5, 1001: 3, 1003: 6, 1004: 2, 1005: 3}),
            ({(1002, 0): 150.0, (1003, 0): 150.0,
              (1000, 0): 150.0},
             {1000: 8, 1001: 3, 1002: 3, 1003: 9, 1004: 2, 1005: 3}),
        ],
        None,
    ),
    (8, "posted-price", True): (
        [
            ({(1000, 0): 150.0, (1002, 0): 150.0,
              (1004, 0): 150.0},
             {1000: 3, 1002: 3, 1004: 3}),
            ({(1005, 0): 150.0, (1003, 0): 150.0,
              (1000, 1): 100.0},
             {1000: 5, 1002: 3, 1003: 3, 1004: 3, 1005: 3}),
            ({(1000, 0): 150.0},
             {1000: 8, 1002: 3, 1003: 3, 1004: 3, 1005: 3}),
        ],
        None,
    ),
}


def _horizon(seed):
    rounds, capacities = generate_horizon(
        MarketConfig(n_sellers=6, n_buyers=3, bids_per_seller=2),
        np.random.default_rng(seed),
        rounds=3,
    )
    return rounds, {seller: max(1, cap // 4) for seller, cap in capacities.items()}


def _adapter_and_rounds(key, on_infeasible):
    seed, name, faulted = key
    rounds, capacities = _horizon(seed)
    faults = (
        FaultPlan(seed=seed, seller_defaults=(SellerDefault(probability=0.3),))
        if faulted
        else None
    )
    adapter = make_online(
        name, capacities, on_infeasible=on_infeasible, faults=faults
    )
    return adapter, rounds


def _observed(result):
    return (
        {winner.key: winner.payment for winner in result.outcome.winners},
        {seller: units for seller, units in result.capacity_used.items() if units},
    )


def _assert_rounds_match(actual, expected):
    assert len(actual) == len(expected)
    for (payments, chi), (expected_payments, expected_chi) in zip(actual, expected):
        assert payments.keys() == expected_payments.keys()
        assert payments == pytest.approx(expected_payments, rel=1e-9)
        assert chi == expected_chi


def _key_id(key):
    seed, name, faulted = key
    return f"{seed}-{name}-{'faulted' if faulted else 'clean'}"


@pytest.mark.parametrize("key", list(PINS), ids=_key_id)
def test_skip_rounds_match_pins(key):
    expected, _ = PINS[key]
    adapter, rounds = _adapter_and_rounds(key, "skip")
    actual = [_observed(adapter.process_round(instance)) for instance in rounds]
    _assert_rounds_match(actual, expected)


@pytest.mark.parametrize("key", list(PINS), ids=_key_id)
def test_raise_rounds_match_pins(key):
    expected, raise_at = PINS[key]
    adapter, rounds = _adapter_and_rounds(key, "raise")
    stop = len(rounds) if raise_at is None else raise_at
    actual = [_observed(adapter.process_round(instance)) for instance in rounds[:stop]]
    _assert_rounds_match(actual, expected[:stop])
    if raise_at is not None:
        with pytest.raises(InfeasibleInstanceError):
            adapter.process_round(rounds[raise_at])
