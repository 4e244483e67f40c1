"""Every public name the package declares resolves.

A name left in a module's ``__all__`` after the object is deleted makes
``from squarelab.<module> import *`` raise ``AttributeError``; a name left in
the package's re-exports breaks ``import squarelab`` itself.
"""
import ast
import importlib.util
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
    # no name is imported at start-up: every module's names resolve through
    # the package's lazy table on first use
    tree = ast.parse(Path(squarelab.__file__).read_text())
    assert [node for node in tree.body if isinstance(node, ast.ImportFrom)] == []
    assert set(squarelab._LAZY.values()) == {"core_sets", "constructions", "finders",
                                             "dimension_lab", "bounds_report"}
    for name, owner in squarelab._LAZY.items():
        module = importlib.import_module(f"squarelab.{owner}")
        assert getattr(squarelab, name) is getattr(module, name)
        assert name in dir(squarelab) and name in squarelab.__all__
    assert len(squarelab.__all__) == len(set(squarelab.__all__))
    assert [n for n in squarelab.__all__ if not hasattr(squarelab, n)] == []
    with pytest.raises(AttributeError, match="has no attribute 'gen_Dk_typo'"):
        squarelab.gen_Dk_typo


def test_traced_methods_are_their_own_classes_entries():
    # bench/tracing.py wraps each of these through its class's own __dict__:
    # one inherited from the shared row-set core would break the traced run
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, methods in tracing.METHODS.items():
        module = importlib.import_module(f"squarelab.{layer}")
        for cls_name, meth in methods:
            assert meth in vars(getattr(module, cls_name)), (cls_name, meth)
    assert isinstance(vars(squarelab.IntSet1D)["from_sorted_array"], classmethod)
    assert isinstance(vars(squarelab.PointSet2D)["product"], classmethod)
