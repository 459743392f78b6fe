"""Public surface: every exported name resolves and is exported once."""

import collections
import importlib
import pkgutil

import pytest

import collapsim

MODULES = ["collapsim"] + sorted(
    "collapsim." + info.name for info in pkgutil.iter_modules(collapsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    counts = collections.Counter(exported)
    assert [n for n, c in counts.items() if c > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
