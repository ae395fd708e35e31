"""Export lists name only what exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eigengarch

MODULES = sorted(m.name for m in pkgutil.iter_modules(eigengarch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"eigengarch.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from eigengarch.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_resolve():
    # every name the package __init__ imports from a submodule is defined there
    tree = ast.parse(Path(eigengarch.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"eigengarch.{module}")
        assert hasattr(source, name), f"eigengarch.{module}.{name}"
        assert getattr(eigengarch, name) is getattr(source, name)
