"""Every public name the package declares resolves.

A name left in a module's ``__all__`` after the object is deleted makes
``from squarelab.<module> import *`` raise ``AttributeError``; a name left in
the package's re-exports breaks ``import squarelab`` itself.
"""
import ast
import importlib
from pathlib import Path

import pytest

import squarelab

MODULES = ("core_sets", "constructions", "finders", "dimension_lab", "bounds_report", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"squarelab.{name}")
    declared = getattr(module, "__all__", [])
    assert len(declared) == len(set(declared))
    assert [n for n in declared if not hasattr(module, n)] == []
    exec(f"from squarelab.{name} import *", {})


def test_package_reexports_exist():
    tree = ast.parse(Path(squarelab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    for node in imports:
        module = importlib.import_module(f"squarelab.{node.module}")
        for alias in node.names:
            assert getattr(squarelab, alias.name) is getattr(module, alias.name)
