"""Unit tests for scenario presets and diurnal demand traces."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.scenarios import (
    PAPER_DEFAULTS,
    PaperScenario,
    bids_sweep,
    microservice_sweep,
    rounds_sweep,
)
from repro.workload.traces import DiurnalTraceConfig, generate_demand_trace


class TestScenarios:
    def test_paper_defaults_match_section_va(self):
        assert PAPER_DEFAULTS.n_users == 300
        assert PAPER_DEFAULTS.n_base_stations == 10
        assert PAPER_DEFAULTS.rounds == 10
        assert PAPER_DEFAULTS.n_microservices == 25
        assert PAPER_DEFAULTS.bids_per_seller == 2
        assert PAPER_DEFAULTS.price_range == (10.0, 35.0)

    def test_market_config_buyers_scale_with_requests(self):
        low = PaperScenario(n_requests=100).market_config()
        high = PaperScenario(n_requests=200).market_config()
        assert high.n_buyers > low.n_buyers

    def test_sweeps_vary_one_axis(self):
        counts = [s.n_microservices for s in microservice_sweep()]
        assert counts == [25, 35, 45, 55, 65, 75]
        rounds = [s.rounds for s in rounds_sweep()]
        assert rounds[0] == 1 and rounds[-1] == 15
        bids = [s.bids_per_seller for s in bids_sweep()]
        assert bids == [1, 2, 3, 4]

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            PaperScenario(n_microservices=1)
        with pytest.raises(ConfigurationError):
            PaperScenario(rounds=0)


class TestTraces:
    def test_positive_and_right_length(self):
        trace = generate_demand_trace(
            DiurnalTraceConfig(), 500, np.random.default_rng(1)
        )
        assert len(trace) == 500
        assert np.all(trace > 0)

    def test_diurnal_cycle_visible_without_noise(self):
        config = DiurnalTraceConfig(
            amplitude=0.5, noise_sigma=0.0, flash_probability=0.0, period=100.0
        )
        trace = generate_demand_trace(config, 100, np.random.default_rng(2))
        assert trace.max() == pytest.approx(15.0, rel=0.05)
        assert trace.min() == pytest.approx(5.0, rel=0.05)

    def test_phase_shifts_peak(self):
        config = DiurnalTraceConfig(
            amplitude=0.5, noise_sigma=0.0, flash_probability=0.0, period=100.0
        )
        base = generate_demand_trace(config, 100, np.random.default_rng(3))
        shifted = generate_demand_trace(
            config, 100, np.random.default_rng(3), phase=50.0
        )
        assert int(np.argmax(base)) != int(np.argmax(shifted))

    def test_flash_crowds_add_spikes(self):
        calm = DiurnalTraceConfig(noise_sigma=0.0, flash_probability=0.0)
        spiky = DiurnalTraceConfig(
            noise_sigma=0.0, flash_probability=0.5, flash_multiplier=5.0
        )
        rng = np.random.default_rng(4)
        calm_trace = generate_demand_trace(calm, 200, np.random.default_rng(4))
        spiky_trace = generate_demand_trace(spiky, 200, rng)
        assert spiky_trace.max() > calm_trace.max() * 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalTraceConfig(amplitude=1.0)
        with pytest.raises(ConfigurationError):
            generate_demand_trace(
                DiurnalTraceConfig(), 0, np.random.default_rng(5)
            )
