"""The error contract: one root per exit code, and nothing else is raised.

Every raise in the package names a class from errors.py (or re-raises),
each of those classes has exactly one of the three roots, and cli.main
maps the roots onto exit codes 2, 3 and 4 without catching builtin
exceptions, so a program bug surfaces as a traceback.
"""

import ast
import builtins
from pathlib import Path

import pytest

from maskgrid import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maskgrid"
MODULES = sorted(PACKAGE.glob("*.py"))
ROOTS = (errors.ConfigError, errors.NumericError, errors.FormatError)
# Every class errors.py defines, except the common base that is never raised.
CLASSES = {name: cls for name, cls in vars(errors).items()
           if isinstance(cls, type) and cls.__module__ == errors.__name__
           and cls is not errors.MaskGridError}


def _raised_names(source: str) -> list:
    """(line, name) of each raise; name is None for a bare re-raise."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((node.lineno, None if exc is None
                        else getattr(exc, "id", ast.unparse(exc))))
    return out


def _caught_builtins(source: str) -> list:
    """(line, name) of each builtin exception an except clause names."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            out += [(node.lineno, t.id) for t in types
                    if isinstance(t, ast.Name) and hasattr(builtins, t.id)]
    return out


def test_guards_find_violations():
    source = ("try:\n    raise ValueError('x')\nexcept (OSError, KeyError):\n"
              "    raise\nexcept json.JSONDecodeError as err:\n"
              "    raise ConfigError(str(err)) from None\n")
    assert _raised_names(source) == [(2, "ValueError"), (4, None),
                                     (6, "ConfigError")]
    assert _caught_builtins(source) == [(3, "OSError"), (3, "KeyError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_names_a_package_error(path):
    assert [(line, name) for line, name in _raised_names(path.read_text())
            if name is not None and name not in CLASSES] == []


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_every_error_has_exactly_one_root(name):
    assert sum(issubclass(CLASSES[name], root) for root in ROOTS) == 1


def test_cli_catches_no_builtin_but_oserror():
    source = (PACKAGE / "cli.py").read_text()
    assert [name for _, name in _caught_builtins(source)
            if name != "OSError"] == []


def test_cli_main_maps_each_root_to_one_exit_code():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    (handled,) = [node for node in ast.walk(main) if isinstance(node, ast.Try)]
    clauses = []
    for handler in handled.handlers:
        (ret,) = [n for n in handler.body if isinstance(n, ast.Return)]
        clauses.append((ast.unparse(handler.type), ret.value.value))
    assert clauses == [("ConfigError", 2), ("NumericError", 3),
                       ("(FormatError, OSError)", 4)]
