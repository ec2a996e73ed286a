"""Tests for the deprecation shims and the end of their cycles.

Live shims: the retired worker-pool and engine options
(``parallelism=``, ``shard_workers=``, ``engine="fast"``), which warn
and change nothing; the retired ``guard=`` keyword, whose ``True`` warns
and whose ``False`` raises; and direct
:class:`~repro.edge.platform.EdgePlatform` wiring (now routed through :func:`repro.api.serve`, warning at
construction).  Both must keep old call sites working bit-for-bit while
announcing the new spelling.  The positional ``payment_rule`` shim has
run its cycle: options are keyword-only.
"""

import warnings

import pytest

from repro.core.msoa import MultiStageOnlineAuction, run_msoa
from repro.core.registry import get_mechanism, make_online
from repro.core.ssam import PaymentRule, run_ssam
from repro.errors import ConfigurationError


class TestPositionalPaymentRuleShim:
    """The positional ``payment_rule`` shim's cycle is over: options are
    keyword-only, and a positional option is a plain ``TypeError``."""

    def test_run_ssam_rejects_extra_positionals(self, make_instance):
        with pytest.raises(TypeError, match="positional"):
            run_ssam(
                make_instance(),
                PaymentRule.ITERATION_RUNNER_UP,
                PaymentRule.CRITICAL_RERUN,
            )

    def test_run_msoa_rejects_extra_positionals(self):
        with pytest.raises(TypeError, match="positional"):
            run_msoa(
                [],
                {1: 5},
                PaymentRule.ITERATION_RUNNER_UP,
                PaymentRule.CRITICAL_RERUN,
            )

    def test_keyword_calls_stay_silent(self, make_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_ssam(
                make_instance(), payment_rule=PaymentRule.CRITICAL_RERUN
            )


class TestRetiredEngineOptions:
    """``parallelism=``, ``shard_workers=`` and ``engine="fast"`` warn on
    every public entry point and leave the outcome bit-identical."""

    @pytest.mark.parametrize(
        "retired",
        [{"parallelism": 4}, {"parallelism": "auto"}, {"engine": "fast"}],
        ids=["parallelism", "parallelism-auto", "engine-fast"],
    )
    def test_run_ssam(self, make_instance, retired):
        instance = make_instance(3)
        with pytest.warns(DeprecationWarning, match="deprecated"):
            old_style = run_ssam(instance, **retired)
        assert old_style.to_dict() == run_ssam(instance).to_dict()

    @pytest.mark.parametrize(
        "retired",
        [{"parallelism": 2}, {"engine": "fast"}],
        ids=["parallelism", "engine-fast"],
    )
    def test_run_msoa(self, make_horizon, retired):
        rounds, capacities = make_horizon(rounds=3)
        with pytest.warns(DeprecationWarning, match="deprecated"):
            old_style = run_msoa(rounds, capacities, **retired)
        assert old_style.to_dict() == run_msoa(rounds, capacities).to_dict()

    @pytest.mark.parametrize(
        "sharded,retired",
        [
            (False, {"parallelism": 2}),
            (False, {"engine": "fast"}),
            (True, {"parallelism": 2}),
            (True, {"engine": "fast"}),
            (True, {"shard_workers": 2}),
            (True, {"shard_workers": "auto", "parallelism": 1}),
        ],
        ids=[
            "msoa-parallelism",
            "msoa-engine-fast",
            "sharded-parallelism",
            "sharded-engine-fast",
            "sharded-shard-workers",
            "sharded-both-pools",
        ],
    )
    def test_online_auctions(self, make_horizon, sharded, retired):
        from repro.core.msoa import MultiStageOnlineAuction
        from repro.shard import ShardedOnlineAuction

        rounds, capacities = make_horizon(rounds=3)

        def digests(**options):
            if sharded:
                auction = ShardedOnlineAuction(capacities, shards=2, **options)
            else:
                auction = MultiStageOnlineAuction(capacities, **options)
            return [auction.process_round(r).outcome.to_dict() for r in rounds]

        with pytest.warns(DeprecationWarning, match="deprecated"):
            old_style = digests(**retired)
        assert old_style == digests()

    def test_defaults_stay_silent(self, make_horizon):
        from repro.shard import ShardedOnlineAuction

        rounds, capacities = make_horizon(rounds=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_msoa(rounds, capacities)
            ShardedOnlineAuction(capacities, shards=2)


def _horizon_digest(auction, rounds):
    return [auction.process_round(r).outcome.to_dict() for r in rounds]


# Each facade entry that still takes ``guard=``, as a digest of its run.
GUARD_ENTRIES = {
    "run_ssam": lambda instance, rounds, capacities, **options: run_ssam(
        instance, **options
    ).to_dict(),
    "get_mechanism-ssam": lambda instance, rounds, capacities, **options: (
        get_mechanism("ssam")(instance, **options).to_dict()
    ),
    "get_mechanism-ssam-reference": (
        lambda instance, rounds, capacities, **options: get_mechanism(
            "ssam-reference"
        )(instance, **options).to_dict()
    ),
    "run_msoa": lambda instance, rounds, capacities, **options: run_msoa(
        rounds, capacities, **options
    ).to_dict(),
    "MultiStageOnlineAuction": (
        lambda instance, rounds, capacities, **options: _horizon_digest(
            MultiStageOnlineAuction(capacities, **options), rounds
        )
    ),
    "make_online-msoa": lambda instance, rounds, capacities, **options: (
        _horizon_digest(make_online("msoa", capacities, **options), rounds)
    ),
}


class TestRetiredGuard:
    """``guard=`` is retired: the stranding guard is always on.
    ``guard=True`` warns and changes nothing; ``guard=False`` asked for
    the unguarded greedy, which is gone, so it raises instead of
    silently running the guarded one."""

    @pytest.fixture
    def market(self, make_instance, make_horizon):
        rounds, capacities = make_horizon(rounds=3)
        return make_instance(3), rounds, capacities

    @pytest.mark.parametrize("entry", list(GUARD_ENTRIES))
    def test_guard_true_warns_and_changes_nothing(self, market, entry):
        run = GUARD_ENTRIES[entry]
        with pytest.warns(DeprecationWarning, match="guard= is deprecated"):
            old_style = run(*market, guard=True)
        assert old_style == run(*market)

    @pytest.mark.parametrize("entry", list(GUARD_ENTRIES))
    def test_guard_false_raises(self, market, entry):
        with pytest.raises(ConfigurationError, match="guard=False"):
            GUARD_ENTRIES[entry](*market, guard=False)

    def test_default_paths_pass_no_retired_option(self, market):
        # An internal caller still passing guard= (or any retired
        # option) would turn into an error here.
        from repro.dist import DistScenario, replay_scenario
        from repro.shard import ShardedOnlineAuction

        instance, rounds, capacities = market
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_ssam(instance)
            run_msoa(rounds, capacities)
            _horizon_digest(
                ShardedOnlineAuction(capacities, shards=2), rounds
            )
            replay_scenario(DistScenario(n_users=20), rounds=2)


class TestDirectPlatformWiring:
    """Direct ``EdgePlatform(...)`` warns; ``_create`` (the facade's
    path, which every non-deprecation test now uses) stays silent."""

    def _pieces(self):
        import numpy as np

        from repro.demand.estimator import DemandEstimator, DemandWeights
        from repro.demand.indicators import RequestRateIndicator
        from repro.edge.cloud import EdgeCloud
        from repro.edge.network import build_backhaul
        from repro.edge.users import build_user_population

        rng = np.random.default_rng(5)
        clouds = [EdgeCloud(0, capacity=40.0), EdgeCloud(1, capacity=40.0)]
        network = build_backhaul(rng, n_clouds=2)
        users = build_user_population(
            rng,
            n_users=10,
            access_points=2,
            services=(1, 2),
            sensitive_rate=0.25,
            tolerant_rate=0.5,
        )
        estimator = DemandEstimator(
            weights=DemandWeights(
                waiting=2.0, processing=1.0, request_rate=1.0
            ),
            request_rate=RequestRateIndicator(
                delta=0.5, neighbour_density=8.0
            ),
            max_units=3,
        )
        return clouds, network, users, estimator, rng

    def test_direct_wiring_warns_but_works(self):
        from repro.edge.platform import EdgePlatform

        clouds, network, users, estimator, rng = self._pieces()
        with pytest.warns(DeprecationWarning, match="serve"):
            platform = EdgePlatform(
                clouds, network, users, estimator, rng=rng, horizon_rounds=2
            )
        reports = platform.run(1)  # deprecated, not broken
        assert len(reports) == 1

    def test_create_classmethod_is_silent(self):
        from repro.edge.platform import EdgePlatform

        clouds, network, users, estimator, rng = self._pieces()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            platform = EdgePlatform._create(
                clouds, network, users, estimator, rng=rng, horizon_rounds=2
            )
        assert platform.horizon_rounds == 2
