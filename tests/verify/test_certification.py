"""Cross-mechanism conformance suite: `repro verify` end to end.

Every registered single/online mechanism is certified against its
declared claims; the suite pins both directions of the contract — SSAM
(both engines) must PASS everything it claims, and the non-truthful
baselines must FAIL truthfulness *as predicted* without breaking
conformance.  The oracle-agreement sweep is the PR's acceptance bar:
the bisection critical prices match the engine payments on hundreds of
generated instances for the columnar and the reference engine alike.
"""

import json
import subprocess
import sys

import pytest

from repro.core.registry import get_spec
from repro.errors import ConfigurationError
from repro.verify import (
    CertificationReport,
    CheckSettings,
    PropertyStatus,
    certifiable_mechanisms,
    certify,
)
from repro.workload.bidgen import MarketConfig

pytestmark = pytest.mark.certify

#: Small, fast certification batch for the per-mechanism conformance
#: sweep; the acceptance-grade batches live in the marked-slow tests.
QUICK = dict(instances=6, seed=7)


class TestConformanceSweep:
    @pytest.mark.parametrize("name", sorted(set(certifiable_mechanisms()) - {"vcg"}))
    def test_mechanism_conforms_to_its_claims(self, name):
        report = certify(name, **QUICK)
        assert report.conforms, report.render()

    @pytest.mark.slow
    def test_vcg_conforms_to_its_claims(self):
        # VCG re-solves a MILP for every counterfactual probe; two
        # instances keep this in budget while still exercising it.
        report = certify("vcg", instances=2, seed=7)
        assert report.conforms, report.render()

    def test_ssam_passes_every_claimed_property(self):
        report = certify("ssam", **QUICK)
        for result in report.results:
            assert result.claimed, result.name
            assert result.status is PropertyStatus.PASS, report.render()

    def test_pay_as_bid_fails_truthfulness_as_predicted(self):
        report = certify("pay-as-bid", **QUICK)
        assert report.conforms
        truthfulness = report.result_for("truthfulness")
        assert truthfulness.status is PropertyStatus.FAIL
        assert not truthfulness.claimed
        assert "truthfulness" in report.expected_failures
        # The counterexamples are concrete and reproducible.
        violation = truthfulness.violations[0]
        assert violation.observed > violation.expected

    def test_online_mechanism_skips_single_round_probes(self):
        report = certify("msoa", instances=2, seed=7)
        assert report.conforms
        assert report.result_for("feasibility").status is PropertyStatus.PASS
        skipped = report.result_for("truthfulness")
        assert skipped.status is PropertyStatus.SKIP
        assert not skipped.claimed

    def test_reports_are_reproducible(self):
        first = certify("ssam", **QUICK)
        second = certify("ssam", **QUICK)
        assert first.to_dict() == second.to_dict()


class TestOracleEngineAgreement:
    """Acceptance bar: bisection oracle ≡ engine payments, both engines.

    ``certify`` cross-checks every sampled winner's payment against the
    engine-independent bisection threshold; a PASS over 100 instances ×
    2 engines (≥ 200 certified instances total, ~400 winner payments)
    is the strongest evidence the repo has that the payment rule
    implements Lemma 3.
    """

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["columnar", "reference"])
    def test_bisection_matches_engine_payments_at_scale(self, engine):
        report = certify(
            "ssam",
            instances=100,
            seed=13,
            engine=engine,
            properties=["critical-payment"],
            settings=CheckSettings(max_critical_bids=3),
        )
        result = report.result_for("critical-payment")
        assert result.status is PropertyStatus.PASS, report.render()
        assert result.checked >= 200  # winners probed across the batch


class TestCertifyValidation:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            certify("nope")

    def test_horizon_benchmark_rejected(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            certify("offline-milp")

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigurationError, match="telepathy"):
            certify("ssam", instances=1, properties=["telepathy"])

    def test_non_positive_instances_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            certify("ssam", instances=0)

    def test_property_subset_restricts_report(self):
        report = certify(
            "ssam", instances=2, properties=["feasibility", "monotonicity"]
        )
        assert [r.name for r in report.results] == [
            "feasibility", "monotonicity",
        ]

    def test_custom_market_is_recorded(self):
        market = MarketConfig(n_sellers=6, n_buyers=2, bids_per_seller=2)
        report = certify("ssam", instances=2, market=market)
        assert report.market["n_sellers"] == 6
        assert report.market["n_buyers"] == 2


class TestVerifyCli:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "verify", *argv],
            capture_output=True,
            text=True,
        )

    def test_conforming_mechanism_exits_zero(self, tmp_path):
        target = tmp_path / "cert.json"
        proc = self.run_cli(
            "--mechanism", "ssam", "--instances", "4", "--seed", "7",
            "--report", str(target),
        )
        assert proc.returncode == 0, proc.stderr
        assert "CONFORMS" in proc.stdout
        payload = json.loads(target.read_text())
        report = CertificationReport.from_dict(payload)
        assert report.mechanism == "ssam" and report.conforms

    def test_expected_failures_still_exit_zero(self):
        proc = self.run_cli(
            "--mechanism", "pay-as-bid", "--instances", "4", "--seed", "7"
        )
        assert proc.returncode == 0, proc.stderr
        assert "expected failure" in proc.stdout

    def test_unknown_mechanism_exits_two(self):
        proc = self.run_cli("--mechanism", "nope", "--instances", "1")
        assert proc.returncode == 2
        assert "unknown mechanism" in proc.stderr


def test_claims_and_legacy_truthful_flag_agree():
    """The spec's coarse ``truthful`` boolean and the fine-grained claims
    must tell one story — a mechanism flagged truthful has to claim the
    property (posted-price's trivial truthfulness is claimed without the
    flag, so only this direction is asserted)."""
    for name in certifiable_mechanisms():
        spec = get_spec(name)
        if spec.truthful and spec.kind == "single":
            assert "truthfulness" in spec.claims, name
