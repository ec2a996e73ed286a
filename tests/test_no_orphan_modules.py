"""Every ``src/repro`` module must be used by something besides its tests.

A module counts as referenced when its dotted path, or one of the names
in its ``__all__``, appears in another non-``__init__`` file under
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``, or in a
top-level ``scripts_*.py``.  Package ``__init__`` re-exports do not
count: an export nobody imports keeps a module alive for no caller.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ALLOWED_ORPHANS = {
    # Public bidding strategies for seller agents; exercised by
    # tests/integration/test_strategic_platform.py.
    "repro.edge.policies",
}


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _exported_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _referencing_files() -> list[Path]:
    files = [
        path
        for top in ("src", "benchmarks", "examples", "perfbench")
        for path in (ROOT / top).rglob("*.py")
    ]
    files += ROOT.glob("scripts_*.py")
    return [path for path in files if path.name != "__init__.py"]


def find_orphans() -> set[str]:
    texts = {path: path.read_text(encoding="utf-8") for path in _referencing_files()}
    orphans = set()
    for module in SRC.joinpath("repro").rglob("*.py"):
        if module.name in ("__init__.py", "__main__.py"):
            continue
        tokens = [re.escape(_dotted(module))]
        tokens += [re.escape(name) for name in _exported_names(module)]
        pattern = re.compile(r"\b(?:%s)\b" % "|".join(tokens))
        if not any(
            pattern.search(text)
            for path, text in texts.items()
            if path != module
        ):
            orphans.add(_dotted(module))
    return orphans


@pytest.fixture(scope="module")
def orphans():
    return find_orphans()


def test_no_orphan_modules(orphans):
    assert orphans <= ALLOWED_ORPHANS, (
        f"modules no caller references: {sorted(orphans - ALLOWED_ORPHANS)}"
    )


def test_allowlist_is_not_stale(orphans):
    assert ALLOWED_ORPHANS <= orphans
