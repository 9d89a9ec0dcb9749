"""Every name a module of the package exports must exist on it.

A stale ``__all__`` entry left behind by a deletion otherwise fails only
under ``from lwfv.<module> import *``.
"""
import importlib
import pkgutil

import pytest

import lwfv

MODULES = sorted(f"lwfv.{m.name}" for m in pkgutil.iter_modules(lwfv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
