"""Exact digests of whole MSOA horizons across every round-loop path.

Each scenario drives one online auctioneer over a small seeded horizon
and pins two sha256 digests:

* ``outcome`` — the JSON of the horizon's ``to_dict()`` (``sort_keys``),
  or of every round's ``RoundResult.to_dict()`` in streaming mode;
* ``state`` — ``float.hex`` of the final ``psi``, the exact
  ``capacity_used`` items in order, and the key order of every round's
  ``psi_after`` / ``capacity_used``.

The values were recorded from the per-bid ``dict`` implementation of the
ψ/χ state, so any change to the screen (line 5), the re-pricing
(line 8), the ψ/χ update (lines 11–12) or the result views that moves a
single bit or key fails here.  The scenarios cover the cache-hit
``wide_market`` shape, tight capacities (sellers drop out mid-horizon),
unconstrained sellers that win, Θ past the int64 overflow of ``Θ²``,
every ``on_infeasible`` mode, a seeded fault plan, a fixed ``alpha``,
the reference engine, a baseline through :func:`make_online` and a
2-shard :class:`ShardedOnlineAuction`.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.msoa import MultiStageOnlineAuction
from repro.core.registry import make_online
from repro.core.wsp import WSPInstance
from repro.faults import BidDropout, FaultPlan, SellerDefault
from repro.shard import ShardedOnlineAuction
from repro.workload.bidgen import MarketConfig, generate_horizon


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _state_digest(auction, results) -> str:
    return _sha(
        {
            "psi": [[s, float(p).hex()] for s, p in auction.psi.items()],
            "chi": [[s, u] for s, u in auction.capacity_used.items()],
            "psi_keys": [list(r.psi_after) for r in results],
            "chi_keys": [list(r.capacity_used) for r in results],
        }
    )


def _run(auction, rounds):
    results = [auction.process_round(instance) for instance in rounds]
    return auction.finalize().to_dict(), results


def _horizon(seed, *, rounds=6, capacity_range=(10, 40), feasible=True,
             **config):
    return generate_horizon(
        MarketConfig(**config),
        np.random.default_rng(seed),
        rounds=rounds,
        capacity_range=capacity_range,
        ensure_feasible=feasible,
    )


def _wide_market():
    """Standing bids re-priced every round, Θ huge: every round after
    the first is a structure-cache hit.  Streaming mode."""
    rng = np.random.default_rng(11)
    keys = [
        (1000 + s, j, frozenset(int(b) for b in rng.choice(8, size=int(
            rng.integers(1, 4)), replace=False)))
        for s in range(150)
        for j in range(2)
    ]
    demand = {b: 1 + b % 2 for b in range(8)}
    auction = MultiStageOnlineAuction(
        {1000 + s: 10**9 for s in range(150)}, retain_rounds=False
    )
    results = []
    for _ in range(5):
        prices = rng.uniform(10.0, 35.0, size=len(keys)).tolist()
        results.append(auction.process_round(WSPInstance(
            bids=tuple(
                Bid(seller=s, index=j, covered=c, price=p, true_cost=p)
                for (s, j, c), p in zip(keys, prices)
            ),
            demand=demand,
            price_ceiling=50.0,
        )))
    assert auction.finalize().rounds == ()
    return [r.to_dict() for r in results], results, auction


def _tight(on_infeasible):
    rounds, capacities = _horizon(
        5, rounds=8, capacity_range=(2, 5), feasible=False,
        n_sellers=12, n_buyers=4,
    )
    auction = MultiStageOnlineAuction(capacities, on_infeasible=on_infeasible)
    data, results = _run(auction, rounds)
    # Depleted sellers are screened out mid-horizon.
    assert any(len(r.scaled_prices) < len(r.original_bids) for r in results)
    return data, results, auction


def _default(**options):
    rounds, capacities = _horizon(7)
    auction = MultiStageOnlineAuction(capacities, **options)
    return (*_run(auction, rounds), auction)


def _unconstrained_winners():
    rounds, capacities = _horizon(9, capacity_range=(3, 8))
    # Every other seller is unconstrained: never screened, ψ stays 0,
    # but its χ is tracked once it wins.
    capacities = {s: c for s, c in capacities.items() if s % 2}
    auction = MultiStageOnlineAuction(capacities, on_infeasible="best_effort")
    data, results = _run(auction, rounds)
    assert any(
        w.seller not in capacities for r in results for w in r.outcome.winners
    )
    return data, results, auction


def _huge_theta():
    rounds, capacities = _horizon(13)
    # Θ > 3.03e9: Θ² overflows int64, so the ψ update must stay in
    # Python ints/floats.
    auction = MultiStageOnlineAuction({s: 4 * 10**9 + s for s in capacities})
    return (*_run(auction, rounds), auction)


def _faulted():
    rounds, capacities = _horizon(17)
    plan = FaultPlan(
        seed=3,
        seller_defaults=(SellerDefault(probability=0.3),),
        bid_dropouts=(BidDropout(probability=0.2),),
    )
    auction = MultiStageOnlineAuction(
        capacities, faults=plan, on_infeasible="best_effort"
    )
    data, results = _run(auction, rounds)
    assert sum(len(r.resilience.events) for r in results if r.resilience)
    return data, results, auction


def _adapter():
    rounds, capacities = _horizon(3, capacity_range=(2, 4), feasible=False)
    auction = make_online("greedy-density", capacities, on_infeasible="skip")
    data, results = _run(auction, rounds)
    for instance, result in zip(rounds, results):
        # ψ ≡ 0: the round clears the announced bids themselves.
        announced = {bid.key: bid for bid in instance.bids}
        for bid in result.outcome.instance.bids:
            assert bid is announced[bid.key]
            assert bid.true_cost is None
    return data, results, auction


def _sharded():
    rounds, capacities = _horizon(21, n_sellers=30, n_buyers=6)
    auction = ShardedOnlineAuction(
        capacities, shards=2, on_infeasible="best_effort"
    )
    data, results = _run(auction, rounds)
    return data, results, auction


SCENARIOS = {
    "wide_market": _wide_market,
    "tight_skip": lambda: _tight("skip"),
    "tight_best_effort": lambda: _tight("best_effort"),
    "raise": lambda: _default(),
    "fixed_alpha": lambda: _default(alpha=2.5),
    "reference_engine": lambda: _default(engine="reference"),
    "cold_rebuild": lambda: _default(columnar_incremental=False),
    "unconstrained_winners": _unconstrained_winners,
    "huge_theta": _huge_theta,
    "faulted": _faulted,
    "adapter": _adapter,
    "sharded": _sharded,
}


def digests(name: str) -> tuple[str, str]:
    data, results, auction = SCENARIOS[name]()
    return _sha(data), _state_digest(auction, results)


DIGESTS = {
    'adapter': (
        "e89c41b69bd1adb18d4c5269beabb72fdf5d3d8eb0e2034734f845c25e00d868",
        "d1a5bb8135f65d5dd4215aca07b06793a48c8fdac90f4ff5300ba43fd9573059",
    ),
    'cold_rebuild': (
        "5b63c1e8d45a2228a8d2b99533aed0c50fe498f21d0d91c8731ffa4705c21990",
        "9d7b6f715758490506de1ed3c122ca97fb6b26dd70fe8e4afac4574577c8ca9c",
    ),
    'faulted': (
        "64d902e58303b7f417a5384451bca0d4e79427c705d5a61e141aeb2f11c19af0",
        "3115cd021406cb1de3f651ae65b27eec9296cbc32508e4ec5496308709019674",
    ),
    'fixed_alpha': (
        "deaa4fd4b0f58c87ab2de2adbdf397c3352ac353f9f99c51fa74acc5a2a2fa49",
        "c68550266ef7827f89520975d25306c057ccbc3a00509be797dc3854717b50b9",
    ),
    'huge_theta': (
        "0d88cc3cd4caed0c3f961a1d55044bd1d9cfcf1d1d52fd8d5bdabafd30b0d43f",
        "0f549cb351dde7d4a29d660cdcd034406e8f7d7ba4ea45e8af2c8e9651702b0e",
    ),
    'raise': (
        "5b63c1e8d45a2228a8d2b99533aed0c50fe498f21d0d91c8731ffa4705c21990",
        "9d7b6f715758490506de1ed3c122ca97fb6b26dd70fe8e4afac4574577c8ca9c",
    ),
    'reference_engine': (
        "5b63c1e8d45a2228a8d2b99533aed0c50fe498f21d0d91c8731ffa4705c21990",
        "9d7b6f715758490506de1ed3c122ca97fb6b26dd70fe8e4afac4574577c8ca9c",
    ),
    'sharded': (
        "6e356142fdd0e2a2c867a55738fe6ae1c1d723356c8aee40bc2cb7fadbe61d08",
        "208864ee99e270366a404a112c62c42f421974b938d17cb6057aa50520f218b6",
    ),
    'tight_best_effort': (
        "17f84d8f564b4be996826519bfb7d054a779b591253c800eb2147e03d020b0ef",
        "8cfdb7b790af69c36024a25846213c472298be1487bff200fddeae9f4a15070b",
    ),
    'tight_skip': (
        "b049c1f55a152e4c6c1fbb7a27c57281c7a8b97c341eb0372268bb2118d9e2f8",
        "25a4ea37250ee63a20fc30d7394f4eac6fdb69b11c5469318e69dbc25ebcbf91",
    ),
    'unconstrained_winners': (
        "a57b4dcdeaf033186c0c9283345ae295d4e07eb2f353c5c8f75d8ac59323c801",
        "f4cf40f437d15001285ce3dbd6c54375bb1f87a009df46052c7150f0200dbdc5",
    ),
    'wide_market': (
        "571dd154634f3371a7e23fcf20b2f60086f5fa82923f72a0eb5b0bdc46df0744",
        "24acae8523979d388d41d61f244d1c9b4c6b4dd1835346de904a8942a40e47b8",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_horizon_digest(name):
    assert digests(name) == DIGESTS[name]
