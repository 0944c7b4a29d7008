"""No vorstokes module imports a name it never uses, or inside a function, and no
function takes a parameter it never reads.

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


def unread_parameters(source):
    """``function:parameter`` for each parameter its function's body never reads.

    A method's receiver (``self``, ``cls``) is not counted, and a body that
    only raises NotImplementedError (after its docstring) is an abstract stub
    and is exempt.  Reads in nested functions count.
    """
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if (len(body) == 1 and isinstance(body[0], ast.Raise)
                and "NotImplementedError" in ast.unparse(body[0])):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{fn.name}:{name}" for name in params
                   if name not in read and name not in ("self", "cls")]
    return unread


def test_an_unread_parameter_is_found():
    source = ('def f(a, b, *args, c=1, **kw):\n    """Doc."""\n    del b\n'
              '    def g():\n        return a + c\n    return g\n\n'
              'class C:\n    def m(self, x):\n        return 1\n\n'
              '    def stub(self, y):\n        """Doc."""\n        raise NotImplementedError\n')
    assert unread_parameters(source) == ["f:b", "f:args", "f:kw", "m:x"]


@pytest.mark.parametrize("name", ALL_MODULES)
def test_every_parameter_is_read(name):
    assert unread_parameters((PACKAGE / name).read_text()) == []
