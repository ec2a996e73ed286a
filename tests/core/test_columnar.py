"""Unit tests for the columnar numerical core (repro.core.columnar).

The end-to-end bit-identity contract lives in
``tests/properties/test_columnar_equivalence.py``; these tests pin the
layer underneath it: the layout construction, the re-pricing path's
structural sharing, the recorded states' independence, the batched payment
kernel against per-winner scalar replays (including shuffled, subset,
duplicate, and non-winner probe lists), the selection head scan's
fallback to the ordered guard walk, the engine-dispatch validation,
and the observability counters the new kernels emit.
"""

import math

import numpy as np
import pytest

from repro.core import columnar
from repro.core.bids import Bid
from repro.core.columnar import (
    ColumnarInstance,
    ColumnarState,
    columnar_critical_payments,
    columnar_greedy_selection,
)
from repro.core.ratios import price_spread
from repro.core.ssam import (
    PaymentRule,
    _critical_payment,
    greedy_selection,
    run_ssam,
)
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError

_ORDERED_CANDIDATES = columnar._ordered_candidates
_LOCKSTEP_REPLAYS = columnar._lockstep_replays


def tiny_instance():
    """A handcrafted market small enough to verify the layout by hand.

    Sellers 100/101/102; buyer 0 needs 2 units, buyer 1 needs 1, buyer 2
    has zero demand (stays in the map, contributes no utility).
    """
    bids = (
        Bid(seller=100, index=0, covered=frozenset({0, 1}), price=10.0),
        Bid(seller=100, index=1, covered=frozenset({0}), price=6.0),
        Bid(seller=101, index=0, covered=frozenset({0, 2}), price=8.0),
        Bid(seller=102, index=0, covered=frozenset({1}), price=5.0),
    )
    demand = {0: 2, 1: 1, 2: 0}
    return WSPInstance.from_bids(list(bids), demand, price_ceiling=50.0)


class TestBuild:
    def test_layout_matches_the_bids(self):
        instance = tiny_instance()
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        assert inst.n_bids == 4
        assert inst.buyers == [0, 1, 2]
        assert inst.demand.tolist() == [2, 1, 0]
        assert inst.prices.tolist() == [10.0, 6.0, 8.0, 5.0]
        assert inst.seller_ids.tolist() == [100, 100, 101, 102]
        # Dense mask row i == bid i's covered set (buyer-column order).
        assert inst.cover.tolist() == [
            [True, True, False],
            [True, False, False],
            [True, False, True],
            [False, True, False],
        ]
        # Utilities count *positive-demand* buyers only (buyer 2 is 0).
        assert inst.initial_utilities.tolist() == [2, 1, 1, 1]
        # Suppliers: distinct sellers covering each buyer.
        assert inst.initial_suppliers.tolist() == [2, 2, 1]
        assert inst.row_of[(101, 0)] == 2

    def test_csr_and_dense_masks_agree(self, make_instance):
        instance = make_instance(3)
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        for row in range(inst.n_bids):
            cols = inst.cover_cols[
                inst.cover_indptr[row] : inst.cover_indptr[row + 1]
            ]
            assert sorted(np.flatnonzero(inst.cover[row])) == sorted(cols)

    def test_seller_bid_rows_group_rows_by_seller(self, make_instance):
        # ``seller_table`` row s: seller row s's bid rows, ascending,
        # padded by repeating the last.
        instance = make_instance(3, n_sellers=40)
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        view = inst.subset(range(0, inst.n_bids, 2), inst.buyers)
        for layout in (inst, view):
            table = layout.seller_table
            assert table.shape[0] == layout.sellers.size
            for s, got in enumerate(table.tolist()):
                want = np.flatnonzero(layout.seller_rows == s).tolist()
                assert got[: len(want)] == want
                assert set(got[len(want) :]) <= {want[-1]}


class TestWithBids:
    def test_shares_structure_and_swaps_prices(self):
        instance = tiny_instance()
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        bids = [bid.with_price(bid.price * 2) for bid in instance.bids]
        repriced = inst.with_bids(bids, [bid.price for bid in bids])
        assert repriced.prices.tolist() == [20.0, 12.0, 16.0, 10.0]
        assert repriced.bids is bids
        # Structural arrays are the *same objects*, not copies.
        assert repriced.cover is inst.cover
        assert repriced.seller_cov is inst.seller_cov
        assert repriced.initial_utilities is inst.initial_utilities
        assert repriced.row_of is inst.row_of
        for name in ("demand", "seller_ids", "bid_indices", "cover_indptr",
                     "cover_cols", "initial_suppliers"):
            assert getattr(repriced, name) is getattr(inst, name), name
        assert repriced.demand_map is inst.demand_map
        assert repriced.buyers is inst.buyers

    def test_rejects_length_mismatches(self):
        # Keys are not re-checked: the caller guarantees the structure
        # matches, so a refresh makes no per-bid calls.
        instance = tiny_instance()
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        with pytest.raises(ValueError, match="expected 4 bids"):
            inst.with_bids(instance.bids[:2], inst.prices)
        with pytest.raises(ValueError, match="expected 4 prices"):
            inst.with_bids(instance.bids, inst.prices[:3])


class TestPriceSpread:
    def test_zero_prices_follow_the_scalar_rules(self):
        def spread(priced):
            bids = [
                Bid(seller=s, index=j, covered=frozenset({0}), price=p)
                for s, prices in priced.items()
                for j, p in enumerate(prices)
            ]
            layout = ColumnarInstance.build(bids, {0: 1})
            assert layout.price_spread() == price_spread(bids)
            return layout.price_spread()

        assert spread({100: (2.0, 6.0), 101: (0.0, 0.0)}) == 3.0
        assert spread({100: (2.0, 6.0), 101: (0.0, 4.0)}) == math.inf
        assert spread({100: (0.0,), 101: (5.0,)}) == 1.0


class TestStateFork:
    """A selection records each step's state as its own fork: later
    wins never touch it."""

    def test_fork_is_independent(self):
        instance = tiny_instance()
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        run = columnar_greedy_selection(
            instance.bids, instance.demand, columnar=inst
        )
        first, second, third = run.states
        fresh = ColumnarState(inst)
        for name in ("granted", "active", "utilities", "suppliers", "unsat"):
            np.testing.assert_array_equal(
                getattr(first, name), getattr(fresh, name), err_msg=name
            )
        assert first.unmet == 3
        # Seller 102's bid wins first (ratio 5, the cheaper of the tie),
        # then seller 100's single-buyer bid retires both of its rows.
        assert second.active.tolist() == [True, True, True, False]
        assert second.granted.tolist() == [0, 1, 0]
        assert second.unmet == 2
        assert third.active.tolist() == [False, False, True, False]
        assert third.granted.tolist() == [1, 1, 0]
        assert third.unmet == 1

    def test_apply_win_mirrors_reference_semantics(self):
        # Each recorded state is the reference coverage after the wins
        # before it: granted units, and every in-market bid's utility.
        instance = tiny_instance()
        inst = ColumnarInstance.build(instance.bids, instance.demand)
        run = columnar_greedy_selection(
            instance.bids, instance.demand, columnar=inst
        )
        coverage = CoverageState(demand=dict(instance.demand))
        for step, state in zip(run, run.states):
            assert dict(step.coverage_before) == coverage.granted
            for row in state.active.nonzero()[0].tolist():
                assert state.utilities[row] == coverage.utility_of(
                    instance.bids[row]
                )
            assert state.unmet == sum(
                max(units - coverage.granted.get(buyer, 0), 0)
                for buyer, units in instance.demand.items()
            )
            coverage.apply(step.bid)
        assert coverage.satisfied


class TestEngineDispatch:
    def test_unknown_engine_rejected(self, make_instance):
        with pytest.raises(ConfigurationError, match="columnar"):
            run_ssam(make_instance(), engine="vectorised")

    def test_mismatched_layout_rejected(self, make_instance):
        other = make_instance(1, n_sellers=6)
        layout = ColumnarInstance.build(other.bids, other.demand)
        with pytest.raises(ConfigurationError, match="does not match"):
            run_ssam(make_instance(2), engine="columnar", columnar=layout)

    def test_prebuilt_layout_is_used(self, make_instance):
        instance = make_instance(3)
        demand = {b: u for b, u in instance.demand.items() if u > 0}
        layout = ColumnarInstance.build(instance.bids, demand)
        with_layout = run_ssam(
            instance, engine="columnar", columnar=layout
        )
        without = run_ssam(instance, engine="columnar")
        assert with_layout.to_dict() == without.to_dict()

    def test_pay_as_bid_engine_validation(self, make_instance):
        from repro.baselines.pay_as_bid import run_pay_as_bid

        with pytest.raises(ConfigurationError, match="engine"):
            run_pay_as_bid(make_instance(), engine="nope")


class TestBatchedPayments:
    def _selection(self, instance):
        demand = {b: u for b, u in instance.demand.items() if u > 0}
        return columnar_greedy_selection(instance.bids, demand)

    def test_matches_scalar_replay_for_winners(self, make_instance):
        for seed in range(10):
            instance = make_instance(seed)
            winners = [step.bid for step in self._selection(instance)]
            batched = columnar_critical_payments(instance, winners)
            scalar = [
                _critical_payment(instance, winner)
                for winner in winners
            ]
            assert batched == scalar, f"seed {seed}"

    def test_order_subsets_and_duplicates(self, make_instance):
        instance = make_instance(4)
        winners = [step.bid for step in self._selection(instance)]
        if len(winners) < 2:
            pytest.skip("needs at least two winners")
        probe = [winners[-1], winners[0], winners[-1]]
        batched = columnar_critical_payments(instance, probe)
        scalar = [_critical_payment(instance, bid) for bid in probe]
        assert batched == scalar
        assert batched[0] == batched[2]  # deduped rows share one replay

    def test_non_winner_bids_are_priced_too(self, make_instance):
        # The kernel generalizes to arbitrary bids (losers replay the
        # whole main trajectory, with the sibling-seller early exit).
        instance = make_instance(5)
        winner_keys = {
            step.bid.key for step in self._selection(instance)
        }
        losers = [
            bid for bid in instance.bids if bid.key not in winner_keys
        ][:4]
        if not losers:
            pytest.skip("every bid won")
        batched = columnar_critical_payments(instance, losers)
        scalar = [_critical_payment(instance, bid) for bid in losers]
        assert batched == scalar

    def test_recorded_trajectory_prices_again_unchanged(self, make_instance):
        # The kernel reads the states selection recorded and replays
        # from copies: a second call with the same trajectory agrees,
        # and every recorded state still holds what it held.
        instance = make_instance(4)
        steps = self._selection(instance)
        snapshot = [
            (s.granted.tolist(), s.active.tolist(), s.utilities.tolist(),
             s.suppliers.tolist(), s.unsat.tolist(), s.unmet, s.prices)
            for s in steps.states
        ]
        winners = [step.bid for step in steps]
        first = columnar_critical_payments(
            instance, winners, trajectory=steps
        )
        assert first == columnar_critical_payments(
            instance, winners, trajectory=steps
        )
        assert first == [_critical_payment(instance, w) for w in winners]
        assert snapshot == [
            (s.granted.tolist(), s.active.tolist(), s.utilities.tolist(),
             s.suppliers.tolist(), s.unsat.tolist(), s.unmet, s.prices)
            for s in steps.states
        ]
        assert all(s.prices is steps.layout.prices for s in steps.states)

    def test_prefix_ends_before_the_winners_own_step(self):
        # Seller 100 is buyer 0's only supplier and asks 80 over a
        # ceiling of 50: it is pivotal, so its critical value is the
        # cap 1 × 50.  Its own step's offer 1 × 80 lies past the end of
        # its shared prefix and must not count.
        instance = WSPInstance.from_bids(
            [
                Bid(seller=100, index=0, covered=frozenset({0}), price=80.0),
                Bid(seller=101, index=0, covered=frozenset({1}), price=5.0),
            ],
            {0: 1, 1: 1},
            price_ceiling=50.0,
        )
        winners = [step.bid for step in self._selection(instance)]
        assert [bid.seller for bid in winners] == [101, 100]
        assert columnar_critical_payments(instance, winners) == [
            _critical_payment(instance, bid) for bid in winners
        ] == [80.0, 50.0]

    def test_batch_markets_must_hold_disjoint_keys(self, make_instance):
        instance = make_instance(4)
        winners = [step.bid for step in self._selection(instance)]
        with pytest.raises(ValueError, match="share a bid key"):
            columnar_critical_payments([instance, instance], winners)

    def test_empty_winner_list(self, make_instance):
        assert columnar_critical_payments(make_instance(), []) == []

    def test_payments_are_finite_and_above_price(self, make_instance):
        instance = make_instance(6)
        outcome = run_ssam(
            instance,
            payment_rule=PaymentRule.CRITICAL_RERUN,
            engine="columnar",
        )
        for winner in outcome.winners:
            assert math.isfinite(winner.payment)
            assert winner.payment >= winner.bid.price - 1e-9


class TestObservabilityCounters:
    def test_columnar_run_emits_counters_and_phases(self, make_instance):
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        instance = make_instance(7)
        _reset_for_tests()
        try:
            configure()
            run_ssam(
                instance,
                payment_rule=PaymentRule.CRITICAL_RERUN,
                engine="columnar",
            )
            metrics = STATE.metrics
            assert metrics.counter("engine.columnar.builds").value >= 1
            assert (
                metrics.counter("engine.columnar.candidates_scanned").value
                > 0
            )
            assert (
                metrics.counter("engine.columnar.payment_batches").value == 1
            )
            assert (
                metrics.counter("engine.columnar.payment_forks").value >= 1
            )
            # @profiled phases on the new kernels.
            assert metrics.counter("phase.columnar.build.calls").value >= 1
            assert (
                metrics.counter("phase.columnar.payments.calls").value == 1
            )
        finally:
            _reset_for_tests()

    def test_with_bids_counts_price_refreshes(self, make_instance):
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        instance = make_instance(8)
        demand = {b: u for b, u in instance.demand.items() if u > 0}
        layout = ColumnarInstance.build(instance.bids, demand)
        _reset_for_tests()
        try:
            configure()
            layout.with_bids(instance.bids, layout.prices)
            assert (
                STATE.metrics.counter(
                    "engine.columnar.price_refreshes"
                ).value
                == 1
            )
        finally:
            _reset_for_tests()

    def test_suffix_replay_stops_once_the_winner_saturates(self):
        # Seller 100 wins buyer 0 at ratio 1.0.  Its +∞ replay picks
        # seller 101 (ratio 1.5), which saturates buyer 0 and drops the
        # winner's utility to 0: the replay stops after that one step,
        # although buyer 1 still needs two of sellers 102–104.
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        instance = WSPInstance.from_bids(
            [
                Bid(seller=100, index=0, covered=frozenset({0}), price=1.0),
                Bid(seller=101, index=0, covered=frozenset({0}), price=1.5),
                Bid(seller=102, index=0, covered=frozenset({1}), price=2.0),
                Bid(seller=103, index=0, covered=frozenset({1}), price=3.0),
                Bid(seller=104, index=0, covered=frozenset({1}), price=4.0),
            ],
            {0: 1, 1: 2},
            price_ceiling=50.0,
        )
        winner = instance.bids[0]
        _reset_for_tests()
        try:
            configure()
            payments = columnar_critical_payments(instance, [winner])
            steps = STATE.metrics.counter(
                "engine.columnar.payment_suffix_steps"
            ).value
        finally:
            _reset_for_tests()
        assert payments == [_critical_payment(instance, winner)] == [1.5]
        assert steps == 1


class TestSelectionHead:
    """Selection takes the head of the reference order and walks the
    full order only when that head would strand a buyer."""

    @staticmethod
    def _select(monkeypatch, instance):
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        calls = []

        def counted(state):
            calls.append(state)
            return _ORDERED_CANDIDATES(state)

        monkeypatch.setattr(columnar, "_ordered_candidates", counted)
        _reset_for_tests()
        try:
            configure()
            steps = columnar_greedy_selection(instance.bids, instance.demand)
            walks = STATE.metrics.counter(
                "engine.columnar.selection_walks"
            ).value
        finally:
            _reset_for_tests()
        assert steps == greedy_selection(instance.bids, instance.demand)
        return steps, len(calls), walks

    def test_wide_market_never_walks_the_order(self, monkeypatch):
        # 400 sellers over 4 buyers of demand 3: every buyer keeps ~100
        # other suppliers, so no head ever strands one.
        rng = np.random.default_rng(5)
        bids = [
            Bid(
                seller=100 + s,
                index=i,
                covered=frozenset(
                    rng.choice(4, size=rng.integers(1, 4), replace=False)
                    .tolist()
                ),
                price=float(rng.integers(1, 40)),
            )
            for s in range(400)
            for i in range(2)
        ]
        instance = WSPInstance.from_bids(bids, {j: 3 for j in range(4)})
        steps, calls, walks = self._select(monkeypatch, instance)
        assert len(steps) > 1
        assert calls == walks == 0

    def test_a_stranding_head_walks_the_order(self, monkeypatch):
        # Seller 100's 1.0 bid heads the order, but accepting it removes
        # buyer 1's only supplier: the walk takes seller 101 instead.
        instance = WSPInstance.from_bids(
            [
                Bid(seller=100, index=0, covered=frozenset({0}), price=1.0),
                Bid(seller=100, index=1, covered=frozenset({1}), price=5.0),
                Bid(seller=101, index=0, covered=frozenset({0}), price=2.0),
            ],
            {0: 1, 1: 1},
        )
        steps, calls, walks = self._select(monkeypatch, instance)
        assert [s.bid.key for s in steps] == [(101, 0), (100, 1)]
        assert [s.runner_up_ratio for s in steps] == [5.0, None]
        assert calls == walks == 1


class TestLockstepReplays:
    """The one payment-replay walker resolves every head inside the
    batch: a stranding head through the ordered guard walk on its row,
    the +∞ winner as a ceiling-capped end, every exact-guard step
    through the walk with ``exact_guard=True``."""

    @staticmethod
    def _replay(monkeypatch, instance, winners, *, exact_guard=False):
        """Price ``winners`` from their recorded run; the payments, the
        kernel counters, and per ordered walk whether the head of its
        state (a view of a batch row, read at the call) would strand a
        buyer."""
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        trajectory = columnar_greedy_selection(
            instance.bids, instance.demand, exact_guard=exact_guard
        )
        walks = []

        def counted(state):
            order, ratios = _ORDERED_CANDIDATES(state)
            walks.append(state.would_strand(int(order[0])))
            return order, ratios

        monkeypatch.setattr(columnar, "_ordered_candidates", counted)
        _reset_for_tests()
        try:
            configure()
            payments = columnar_critical_payments(
                instance, winners, trajectory=trajectory
            )
            counts = {
                name: STATE.metrics.counter(
                    f"engine.columnar.payment_{name}"
                ).value
                for name in ("lockstep_steps", "suffix_steps")
            }
        finally:
            _reset_for_tests()
        return payments, counts, walks

    def test_head_that_strands_a_buyer_walks_the_order_in_the_batch(
        self, monkeypatch
    ):
        # Seller 100 wins buyer 0.  In its +∞ replay the head is
        # seller 101's 1.2 bid, whose acceptance removes buyer 1's only
        # supplier: the walk on that row takes seller 101's 5.0 bid
        # (threshold 1 × 5.0), then the winner is the only candidate
        # left and the replay ends ceiling-capped.
        instance = WSPInstance.from_bids(
            [
                Bid(seller=100, index=0, covered=frozenset({0}), price=1.0),
                Bid(seller=101, index=0, covered=frozenset({0}), price=1.2),
                Bid(seller=101, index=1, covered=frozenset({1}), price=5.0),
            ],
            {0: 1, 1: 1},
            price_ceiling=50.0,
        )
        winner = instance.bids[0]
        payments, counts, walks = self._replay(monkeypatch, instance, [winner])
        assert payments == [_critical_payment(instance, winner)] == [50.0]
        assert walks == [True]
        assert counts == {"lockstep_steps": 2, "suffix_steps": 2}

    def test_replay_that_ends_on_the_winner_is_ceiling_capped(
        self, monkeypatch
    ):
        # Seller 100 is buyer 0's only supplier.  Its +∞ replay takes
        # seller 101 (threshold 1 × 2.0), then its head is the +∞
        # winner itself: the replay ends with the threshold capped at
        # utility × ceiling, with no walk.
        instance = WSPInstance.from_bids(
            [
                Bid(seller=100, index=0, covered=frozenset({0}), price=1.0),
                Bid(seller=101, index=0, covered=frozenset({1}), price=2.0),
            ],
            {0: 1, 1: 1},
            price_ceiling=50.0,
        )
        winner = instance.bids[0]
        payments, counts, walks = self._replay(monkeypatch, instance, [winner])
        assert payments == [_critical_payment(instance, winner)] == [50.0]
        assert walks == []
        assert counts == {"lockstep_steps": 2, "suffix_steps": 2}

    def test_exact_guard_rows_walk_the_order_every_step(
        self, make_instance, monkeypatch
    ):
        instance = make_instance(3)
        winners = [
            step.bid
            for step in columnar_greedy_selection(
                instance.bids, instance.demand, exact_guard=True
            )
        ]
        payments, counts, walks = self._replay(
            monkeypatch, instance, winners, exact_guard=True
        )
        assert payments == [
            _critical_payment(instance, bid, exact_guard=True)
            for bid in winners
        ]
        assert counts["suffix_steps"] > 0
        assert len(walks) == counts["suffix_steps"]

    def test_ten_thousand_bid_market_runs_in_two_chunks(
        self, make_instance, monkeypatch
    ):
        # ⌊65 536 / 10⁴⌋ = 6 replays per chunk: scale_10k's 11 winners
        # diverge at their own steps and run as chunks of 6 and 5.
        chunks = []

        def counted(batch):
            chunks.append(len(batch))
            return _LOCKSTEP_REPLAYS(batch)

        monkeypatch.setattr(columnar, "_lockstep_replays", counted)
        instance = make_instance(
            2019, n_sellers=5_000, n_buyers=16, demand_units_range=(1, 3)
        )
        assert len(instance.bids) == 10_000
        winners = [
            step.bid
            for step in columnar_greedy_selection(
                instance.bids, instance.demand
            )
        ]
        assert len(winners) == 11
        assert columnar_critical_payments(instance, winners) == [
            _critical_payment(instance, bid) for bid in winners
        ]
        assert chunks == [6, 5]


def _one_market(markets):
    """One round holding ``markets`` side by side: market ``m``'s buyers
    and sellers renumbered into a range of their own, its buyers in
    region ``m``; with the region plan, its shards and their layouts."""
    import dataclasses

    from repro.shard.plan import RegionShardPlan, partition_round

    bids, demand, regions = [], {}, {}
    for m, market in enumerate(markets):
        bids.extend(
            dataclasses.replace(
                bid,
                seller=bid.seller + 10_000 * (m + 1),
                covered=frozenset(b + 1_000 * m for b in bid.covered),
            )
            for bid in market.bids
        )
        for buyer, units in market.demand.items():
            demand[buyer + 1_000 * m] = units
            regions[buyer + 1_000 * m] = m
    instance = WSPInstance(bids=tuple(bids), demand=demand)
    positive = {b: u for b, u in demand.items() if u > 0}
    layout = ColumnarInstance.build(instance.bids, positive)
    partition = partition_round(
        instance,
        RegionShardPlan(regions=regions, n_shards=len(markets)),
        layout=layout,
    )
    assert not partition.cross_bids
    views = [
        layout.subset(partition.local_rows[s], list(partition.shard_demand[s]))
        for s in partition.active_shards
    ]
    return layout, views


def _walk_alone(view, exact_guard):
    try:
        return columnar_greedy_selection(
            view.bids, view.demand_map, exact_guard=exact_guard, columnar=view
        )
    except InfeasibleInstanceError:
        return None


def _reference_alone(view, exact_guard):
    try:
        return greedy_selection(
            list(view.bids), dict(view.demand_map), exact_guard=exact_guard
        )
    except InfeasibleInstanceError:
        return None


def _trace(steps):
    return [
        (s.iteration, s.bid, s.utility, s.ratio, s.runner_up_ratio,
         dict(s.coverage_before))
        for s in steps
    ]


def _assert_lockstep_is_per_shard(layout, views, *, exact_guard=False):
    """Each shard's lockstep walk equals a one-shard walk on its layout
    (steps, rows, every recorded state and the stacked states) and the
    reference engine's walk of the shard."""
    lockstep = columnar_greedy_selection(
        layout.bids,
        layout.demand_map,
        exact_guard=exact_guard,
        columnar=layout,
        shards=views,
    )
    assert len(lockstep) == len(views)
    for got, view in zip(lockstep, views):
        alone = _walk_alone(view, exact_guard)
        reference = _reference_alone(view, exact_guard)
        if alone is None:
            assert got is None and reference is None
            continue
        assert got.layout is view and got.exact_guard == exact_guard
        assert _trace(got) == _trace(alone) == _trace(reference)
        assert got.rows == alone.rows
        assert len(got.states) == len(alone.states) == len(alone)
        for mine, theirs in zip(got.states, alone.states):
            assert mine.inst is view and mine.unmet == theirs.unmet
            assert mine.prices is view.prices
            for name in ("granted", "active", "utilities", "suppliers", "unsat"):
                np.testing.assert_array_equal(
                    getattr(mine, name), getattr(theirs, name), err_msg=name
                )
        for mine, theirs in zip(got.stacked(), alone.stacked()):
            np.testing.assert_array_equal(mine, theirs)
    return lockstep


def _market(bids, demand):
    return WSPInstance.from_bids(
        [
            Bid(seller=seller, index=index, covered=frozenset(cover), price=price)
            for seller, index, cover, price in bids
        ],
        demand,
    )


# One step: the cheaper of two single-buyer bids.
ONE_STEP = _market([(100, 0, {0}, 2.0), (101, 0, {0}, 3.0)], {0: 1})
# Three steps over two buyers.
THREE_STEPS = _market(
    [(100, 0, {0, 1}, 10.0), (100, 1, {0}, 6.0), (101, 0, {0}, 8.0),
     (102, 0, {1}, 5.0), (103, 0, {0}, 9.0)],
    {0: 2, 1: 1},
)
# Seller 100's 1.0 bid heads the order but would strand buyer 1.
STRANDING = _market(
    [(100, 0, {0}, 1.0), (100, 1, {1}, 5.0), (101, 0, {0}, 2.0)],
    {0: 1, 1: 1},
)
# The stranding guard cannot complete it; the exact guard can.
EXACT_ONLY = _market(
    [(100, 0, {0, 1, 2}, 2.0), (100, 1, {1, 2}, 1.0), (101, 0, {2}, 4.0),
     (101, 1, {0, 1}, 2.0)],
    {0: 1, 1: 1, 2: 2},
)
# Buyer 0 needs two units from one seller: infeasible, so it clamps.
INFEASIBLE = _market([(100, 0, {0}, 1.0), (101, 0, {1}, 1.0)], {0: 2, 1: 1})


@pytest.mark.shard
class TestLockstepSelection:
    """Shards selected side by side walk exactly as they walk alone."""

    def test_shards_of_different_lengths_and_a_stranding_head(
        self, monkeypatch
    ):
        calls = []

        def counted(state):
            calls.append(state.inst)
            return _ORDERED_CANDIDATES(state)

        layout, views = _one_market([ONE_STEP, THREE_STEPS, STRANDING])
        monkeypatch.setattr(columnar, "_ordered_candidates", counted)
        lockstep = _assert_lockstep_is_per_shard(layout, views)
        assert [len(run) for run in lockstep] == [1, 3, 2]
        # Only the stranding shard walked its order, once in the
        # lockstep call and once alone; the others took their heads.
        assert calls == [views[2], views[2]]

    def test_exact_guard_and_infeasible_shards(self):
        layout, views = _one_market([ONE_STEP, EXACT_ONLY, INFEASIBLE])
        cheap = _assert_lockstep_is_per_shard(layout, views)
        assert [run is None for run in cheap] == [False, True, True]
        exact = _assert_lockstep_is_per_shard(
            layout, views[1:], exact_guard=True
        )
        assert [run is None for run in exact] == [False, True]

    def test_sharded_round_escalates_and_clamps_like_the_reference(self):
        # In one sharded round the exact-guard shard escalates and the
        # infeasible one clamps, its residual served by a cross bid:
        # the merged outcome is the reference engine's, shard by shard.
        from repro.shard.plan import RegionShardPlan
        from repro.shard.ssam import run_sharded_ssam

        layout, _ = _one_market([THREE_STEPS, EXACT_ONLY, INFEASIBLE])
        cross = Bid(seller=99_999, index=0, covered=frozenset({0, 2_000}), price=7.0)
        instance = WSPInstance(
            bids=(*layout.bids, cross), demand=layout.demand_map
        )
        plan = RegionShardPlan(
            regions={b: b // 1_000 for b in layout.buyers}, n_shards=3
        )
        results = {
            engine: run_sharded_ssam(instance, plan, engine=engine)
            for engine in ("columnar", "reference")
        }
        assert (
            results["columnar"].outcome.to_dict()
            == results["reference"].outcome.to_dict()
        )
        assert results["columnar"].stats.clamped_shards == 1
        assert results["columnar"].cross_outcome.winners[0].bid == cross


def _lockstep_markets():
    from hypothesis import strategies as st

    from tests.properties.strategies import wsp_instances
    from tests.properties.test_columnar_equivalence import EDGE_PRICES

    market = st.one_of(
        wsp_instances(
            min_sellers=4,
            max_sellers=12,
            min_buyers=2,
            max_buyers=6,
            max_covered=3,
            price_choices=EDGE_PRICES,
        ),
        # Scarcer supply: more heads strand a buyer, more shards clamp.
        wsp_instances(
            min_sellers=2,
            max_sellers=8,
            min_buyers=2,
            max_buyers=6,
            max_covered=2,
            max_demand=4,
            price_choices=EDGE_PRICES,
        ),
    )
    return st.lists(market, min_size=2, max_size=4)


@pytest.mark.shard
def test_lockstep_selection_is_per_shard_selection():
    """Tie-heavy shards with 0.0 and +∞ prices among the ties, in both
    guard modes: every shard's lockstep walk is its own walk."""
    from hypothesis import HealthCheck, given, settings

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(markets=_lockstep_markets())
    def check(markets):
        layout, views = _one_market(markets)
        for exact_guard in (False, True):
            _assert_lockstep_is_per_shard(
                layout, views, exact_guard=exact_guard
            )

    check()
