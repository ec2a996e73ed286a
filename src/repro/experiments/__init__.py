"""Experiment harness regenerating the paper's Figures 3–6.

``figNN`` functions run the sweeps and return printable result tables;
:mod:`repro.experiments.config` holds the sweep axes and the quick/full
presets.
"""

from repro.experiments.bench_engine import (
    EngineBenchCase,
    run_engine_bench,
    write_engine_bench,
)
from repro.experiments.config import FULL, QUICK, ExperimentConfig
from repro.experiments.figures import fig3a, fig3b, fig4a, fig4b, fig5a, fig6a, fig6b
from repro.experiments.storage import (
    diff_tables,
    load_outcome,
    load_table,
    save_csv,
    save_outcome,
    save_table,
)
from repro.experiments.runner import (
    build_horizon_scenario,
    build_single_round,
    mean_over_seeds,
    run_configured_mechanism,
)

__all__ = [
    "FULL",
    "QUICK",
    "ExperimentConfig",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig6a",
    "fig6b",
    "build_horizon_scenario",
    "build_single_round",
    "mean_over_seeds",
    "run_configured_mechanism",
    "diff_tables",
    "load_table",
    "save_csv",
    "save_table",
    "load_outcome",
    "save_outcome",
    "EngineBenchCase",
    "run_engine_bench",
    "write_engine_bench",
]
