"""Every name a vorstokes module lists in ``__all__`` exists in that module.

A deleted function left in ``__all__`` breaks ``from vorstokes.x import *``
only when someone runs it; this test finds it at once.
"""

import importlib
import pkgutil

import pytest

import vorstokes

MODULES = ["vorstokes"] + [f"vorstokes.{info.name}"
                           for info in pkgutil.iter_modules(vorstokes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
