"""The documented examples must run: doctests on the public surface.

The API facade, the mechanism entry points, and the fault-plan module all
carry executable examples in their docstrings (they double as the docs'
quickstart snippets); this test keeps them honest.  CI runs it as part of
tier 1, so a signature change that breaks a documented example fails the
build, not the reader.
"""

import doctest
import importlib.util
import pathlib

import pytest

import repro.api
import repro.core.msoa
import repro.core.ssam
import repro.faults.models
import repro.sim.engine
import repro.sim.rng

DOCUMENTED_MODULES = [
    repro.api,
    repro.core.ssam,
    repro.core.msoa,
    repro.faults.models,
    repro.sim.engine,
    repro.sim.rng,
]

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"


def load_example(name):
    """Import ``examples/<name>.py`` without running its ``main()``."""
    spec = importlib.util.spec_from_file_location(
        name, EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_docstring_examples_execute(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its examples"
    assert result.failed == 0


def test_distributed_serving_example_doctest():
    """The serving walkthrough in examples/ carries a checked example
    too — the in-memory serve + determinism assertion from its module
    docstring must keep running as written."""
    module = load_example("distributed_serving")
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, "distributed_serving lost its examples"
    assert result.failed == 0
