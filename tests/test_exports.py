"""Every public name the package declares resolves to an attribute."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jumphjb

MODULES = sorted(m.name for m in pkgutil.iter_modules(jumphjb.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"jumphjb.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(jumphjb.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 30
    assert [name for name in names if not hasattr(jumphjb, name)] == []
