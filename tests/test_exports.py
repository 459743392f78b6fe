"""Public surface: every exported name resolves and is exported once."""

import ast
import collections
import importlib
import inspect
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


def test_package_exports_are_exported_by_their_home_module():
    # the package re-exports from its modules; a name deleted from its
    # home module's __all__ must not live on in the package's
    tree = ast.parse(inspect.getsource(collapsim))
    homes = {alias.name: "collapsim." + node.module
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    missing = [name for name in collapsim.__all__
               if name not in getattr(importlib.import_module(homes[name]), "__all__", ())]
    assert missing == []
