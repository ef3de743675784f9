"""The runtime depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "zenon").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level package of every absolute import in a source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_numpy_and_the_standard_library(path):
    outside = [n for n in _absolute_imports(path) if n != "numpy" and n not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside}"


def test_every_module_is_checked():
    assert len(SOURCES) >= 10 and any(p.name == "linalg.py" for p in SOURCES)
