"""The runtime imports only the standard library (pyproject: dependencies = []).

Test-only packages such as numpy and hypothesis may be installed, so an
import of one of them from src/ would still run here; this test reads every
module's imports without running them.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trihom").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """Top-level package names of the module's absolute imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found() -> None:
    assert len(SOURCES) >= 6


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_runtime_imports_only_the_standard_library(path: Path) -> None:
    outside = sorted(absolute_imports(path) - set(sys.stdlib_module_names))
    assert not outside, f"{path.name} imports non-stdlib packages: {outside}"
