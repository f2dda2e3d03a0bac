"""Every name a package or test module imports is used in that module, and
no package module uses another one's single-underscore names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports names to re-export them; test_acceptance.py is kept
# unedited and imports the package as mg without using it.
SKIPPED = {"__init__.py", "test_acceptance.py"}
PACKAGE = sorted((ROOT / "src" / "maskgrid").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_reaches(source: str) -> list:
    """(line, name) of each single-underscore name that a package module
    imports from another package module or reaches as module._name."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("maskgrid")):
            for alias in node.names:
                if node.module is None or node.module == "maskgrid":
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_finds_private_reaches():
    source = ("from . import coding, errors as e\n"
              "from ._version import __version__\n"
              "from .coding import (DoaSet, _place,\n    _rows)\n"
              "def f():\n    return coding._CODINGS, e.__doc__, e._x\n")
    assert _private_reaches(source) == [(3, "_place"), (3, "_rows"),
                                        (6, "coding._CODINGS"), (6, "e._x")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert _private_reaches(path.read_text()) == []
