"""The package's public names agree with each module's `__all__`.

A stale `__all__` entry otherwise fails only at `from repchain.<module>
import *`, and a top-level name missing from its module's `__all__` is
public in one place and private in the other.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import repchain

MODULES = sorted(info.name for info in pkgutil.iter_modules(repchain.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"repchain.{name}")
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


def test_package_imports_only_public_names():
    tree = ast.parse(inspect.getsource(repchain))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1
        module = importlib.import_module(f"repchain.{node.module}")
        assert [alias.name for alias in node.names if alias.name not in module.__all__] == []
