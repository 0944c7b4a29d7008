"""No vorstokes module imports a name it never uses, or inside a function.

The project ships no linter, so this parses each module with ``ast``.  A
name counts as used when the module reads it or lists it in ``__all__``.
The package ``__init__`` is left out of the unused-name check: its imports
are the package's public names.  Every module imports at module level, so
its dependencies show at the top and a cycle fails at import time.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vorstokes"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_an_unused_import_is_found():
    source = "from scipy.interpolate import CubicSpline, PchipInterpolator\nPchipInterpolator\n"
    assert unused_imports(source) == ["CubicSpline"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert unused_imports((PACKAGE / name).read_text()) == []


def function_level_imports(source):
    """Line numbers of the imports inside a function body."""
    return sorted({node.lineno
                   for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_a_function_level_import_is_found():
    source = ("import math\n\ndef f():\n    def g():\n        import os\n"
              "    from math import pi\n    return pi\n")
    assert function_level_imports(source) == [5, 6]


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports_only_at_module_level(name):
    assert function_level_imports((PACKAGE / name).read_text()) == []
