"""Every name a package or test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports names to re-export them; test_acceptance.py is kept
# unedited and imports the package as mg without using it.
SKIPPED = {"__init__.py", "test_acceptance.py"}
MODULES = sorted(p for p in [*(ROOT / "src" / "maskgrid").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name not in SKIPPED)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from .errors import ShapeError as SE, ConfigError\n"
              "def f(x: SE) -> None:\n    return os.path\n")
    assert _unused_imports(source) == [(2, "sys"), (3, "ConfigError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
