"""The package version and the project metadata must agree."""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    with PYPROJECT.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    assert repro.__version__ == project["version"]
