"""Tests for the deprecation shims and the end of their cycles.

Live shims: ``parallelism=`` on :func:`~repro.core.msoa.run_msoa` and
``shard_workers=`` on :class:`~repro.shard.ShardedOnlineAuction`, which
warn against the caller's line and change nothing, and direct
:class:`~repro.edge.platform.EdgePlatform` wiring (now routed through
:func:`repro.api.serve`, warning at construction).  Each must keep old
call sites working bit-for-bit while announcing the new spelling.

Ended cycles: the positional ``payment_rule`` shim (options are
keyword-only), and since 1.4 every other retired spelling — ``guard=``,
``parallelism=`` elsewhere and ``engine="fast"`` — which now fails like
any unknown option or engine.
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


def _removed(retired):
    """Expect the error a spelling removed in 1.4 raises now:
    ``engine="fast"`` is a value, so engine validation rejects it; the
    removed keywords no longer exist."""
    if retired.get("engine") == "fast":
        return pytest.raises(ConfigurationError, match="'columnar', 'reference'")
    return pytest.raises(TypeError, match="unexpected keyword")


def _assert_shim(run, **retired):
    """A surviving shim warns, naming the caller's file (this one), and
    leaves the result bit-identical."""
    with pytest.warns(DeprecationWarning, match="deprecated") as record:
        old_style = run(**retired)
    assert old_style == run()
    assert [w.filename for w in record] == [__file__] * len(record)


def _horizon_digest(auction, rounds):
    return [auction.process_round(r).outcome.to_dict() for r in rounds]


class TestRetiredEngineOptions:
    """``parallelism=`` and ``engine="fast"`` are removed, except the two
    shims the repository benchmark still passes: ``run_msoa(parallelism=)``
    and ``ShardedOnlineAuction(shard_workers=)``."""

    @pytest.mark.parametrize(
        "retired",
        [{"parallelism": 4}, {"parallelism": "auto"}, {"engine": "fast"}],
        ids=["parallelism", "parallelism-auto", "engine-fast"],
    )
    def test_run_ssam(self, make_instance, retired):
        with _removed(retired):
            run_ssam(make_instance(3), **retired)

    @pytest.mark.parametrize(
        "retired,shim",
        [({"parallelism": 2}, True), ({"engine": "fast"}, False)],
        ids=["parallelism", "engine-fast"],
    )
    def test_run_msoa(self, make_horizon, retired, shim):
        rounds, capacities = make_horizon(rounds=3)

        def run(**options):
            return run_msoa(rounds, capacities, **options).to_dict()

        if shim:
            _assert_shim(run, **retired)
        else:
            with _removed(retired):
                run(**retired)

    @pytest.mark.parametrize(
        "sharded,retired,shim",
        [
            (False, {"parallelism": 2}, False),
            (False, {"engine": "fast"}, False),
            (True, {"parallelism": 2}, False),
            (True, {"engine": "fast"}, False),
            (True, {"shard_workers": 2}, True),
            (True, {"shard_workers": "auto", "parallelism": 1}, False),
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
    def test_online_auctions(self, make_horizon, sharded, retired, shim):
        from repro.shard import ShardedOnlineAuction

        rounds, capacities = make_horizon(rounds=3)

        def digests(**options):
            if sharded:
                auction = ShardedOnlineAuction(capacities, shards=2, **options)
            else:
                auction = MultiStageOnlineAuction(capacities, **options)
            return _horizon_digest(auction, rounds)

        if shim:
            _assert_shim(digests, **retired)
            return
        # The shard_workers shim still warns, but does not let the
        # removed parallelism= through.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with _removed(retired):
                digests(**retired)

    @pytest.mark.parametrize(
        "name,option",
        [
            ("msoa", "parallelism"),
            ("msoa", "guard"),
            ("ssam", "parallelism"),
            ("ssam", "guard"),
            ("ssam-reference", "guard"),
        ],
    )
    def test_registry_rejects_removed_options(self, make_horizon, name, option):
        accepted = {
            "msoa": ["alpha", "engine", "faults", "payment_rule", "resilience"],
            "ssam": ["engine", "payment_rule"],
            "ssam-reference": ["payment_rule"],
        }[name]
        _, capacities = make_horizon(rounds=1)
        with pytest.raises(ConfigurationError) as excinfo:
            make_online(name, capacities, **{option: 1})
        assert f"accepted: {accepted}" in str(excinfo.value)

    def test_defaults_stay_silent(self, make_horizon):
        from repro.shard import ShardedOnlineAuction

        rounds, capacities = make_horizon(rounds=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_msoa(rounds, capacities)
            ShardedOnlineAuction(capacities, shards=2)


# Each facade entry that took ``guard=`` in 1.3 → a run of it, and the
# error ``guard=`` raises there now: the plain callables no longer have
# the keyword, and ``make_online`` checks options against the spec.
GUARD_ENTRIES = {
    "run_ssam": (
        lambda instance, rounds, capacities, **options: run_ssam(
            instance, **options
        ),
        TypeError,
    ),
    "get_mechanism-ssam": (
        lambda instance, rounds, capacities, **options: get_mechanism(
            "ssam"
        )(instance, **options),
        TypeError,
    ),
    "get_mechanism-ssam-reference": (
        lambda instance, rounds, capacities, **options: get_mechanism(
            "ssam-reference"
        )(instance, **options),
        TypeError,
    ),
    "run_msoa": (
        lambda instance, rounds, capacities, **options: run_msoa(
            rounds, capacities, **options
        ),
        TypeError,
    ),
    "MultiStageOnlineAuction": (
        lambda instance, rounds, capacities, **options: _horizon_digest(
            MultiStageOnlineAuction(capacities, **options), rounds
        ),
        TypeError,
    ),
    "make_online-msoa": (
        lambda instance, rounds, capacities, **options: _horizon_digest(
            make_online("msoa", capacities, **options), rounds
        ),
        ConfigurationError,
    ),
}


class TestRetiredGuard:
    """``guard=`` is removed: the stranding guard is always on, so either
    value fails like any unknown option instead of being accepted."""

    @pytest.fixture
    def market(self, make_instance, make_horizon):
        rounds, capacities = make_horizon(rounds=3)
        return make_instance(3), rounds, capacities

    @pytest.mark.parametrize("entry", list(GUARD_ENTRIES))
    def test_guard_true_raises(self, market, entry):
        run, error = GUARD_ENTRIES[entry]
        with pytest.raises(error, match="guard"):
            run(*market, guard=True)

    @pytest.mark.parametrize("entry", list(GUARD_ENTRIES))
    def test_guard_false_raises(self, market, entry):
        run, error = GUARD_ENTRIES[entry]
        with pytest.raises(error, match="guard"):
            run(*market, guard=False)

    def test_default_paths_pass_no_retired_option(self, market):
        # An internal caller still passing a retired option would turn
        # into an error here.
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
