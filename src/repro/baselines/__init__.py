"""Baseline mechanisms the paper's design is compared against.

* :mod:`repro.baselines.fixed_pricing` — the introduction's posted-price
  alternative.
* :mod:`repro.baselines.random_mechanism` — the sanity-floor random cover.
* :mod:`repro.baselines.pay_as_bid` — SSAM's allocation with naive
  payments (isolates the price of truthfulness).
* :mod:`repro.baselines.vcg` — the exact truthful gold standard.
* :mod:`repro.baselines.offline` — the clairvoyant horizon optimum
  (competitive-ratio denominator).

Every single-round baseline emits the uniform
:class:`~repro.core.outcomes.AuctionOutcome`; prefer addressing them
through the registry (:func:`repro.core.registry.get_mechanism`).
"""

from repro.baselines.fixed_pricing import PostedPriceOutcome, run_posted_price
from repro.baselines.greedy_variants import (
    VARIANT_KEYS,
    GreedyVariantOutcome,
    run_greedy_variant,
)
from repro.baselines.offline import (
    OfflineOutcome,
    run_offline_greedy,
    run_offline_optimal,
)
from repro.baselines.pay_as_bid import run_pay_as_bid
from repro.baselines.random_mechanism import run_random_selection
from repro.baselines.vcg import run_vcg

__all__ = [
    "PostedPriceOutcome",
    "run_posted_price",
    "OfflineOutcome",
    "VARIANT_KEYS",
    "GreedyVariantOutcome",
    "run_greedy_variant",
    "run_offline_greedy",
    "run_offline_optimal",
    "run_pay_as_bid",
    "run_random_selection",
    "run_vcg",
]
