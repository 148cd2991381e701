"""The package's public names: each module lists only what it defines, the
package exposes only what some module lists, and each listed name has a
reader outside the tests."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import kronmc

MODULES = [importlib.import_module(f"kronmc.{info.name}")
           for info in pkgutil.iter_modules(kronmc.__path__)
           if not info.name.startswith("_")]
ROOT = Path(__file__).resolve().parents[1]


def _reads(path):
    """Names read in the Python file ``path`` (as a name or an attribute),
    each with the lines it is read on, outside the body of a top-level
    definition of the same name: a definition does not read itself."""
    tree = ast.parse(path.read_text())
    own = {node.name: (node.lineno, node.end_lineno) for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reads = set()
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        first, last = own.get(name, (0, -1))
        if name is not None and not first <= node.lineno <= last:
            reads.add(name)
    return reads


def _unread(module):
    """The names in ``module.__all__`` that nothing reads in the package's
    own modules (its __init__ aside), the demos, perfbench's non-test files
    or the README.  __all__ lists names as strings, which count for nothing."""
    files = ([path for path in (ROOT / "src" / "kronmc").glob("*.py")
              if path.name != "__init__.py"]
             + list((ROOT / "demos").glob("*.py"))
             + [path for path in (ROOT / "perfbench").glob("*.py")
                if not path.name.startswith("test_")])
    reads = set().union(*map(_reads, files))
    readme = (ROOT / "README.md").read_text()
    return {name for name in module.__all__
            if name not in reads and not re.search(rf"\b{name}\b", readme)}


def test_every_listed_name_is_defined_in_its_module():
    exec("from kronmc import *", {})
    for module in MODULES:
        exec(f"from {module.__name__} import *", {})
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__, (
                f"{module.__name__}.__all__ lists {name}, defined in {value.__module__}")


def test_every_package_name_is_listed_by_a_module():
    listed = set().union(*(getattr(module, "__all__", ()) for module in MODULES))
    public = {name for name, value in vars(kronmc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - listed == {"InvalidInputError", "NumericalError"}


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_listed_name_has_a_reader_outside_the_tests(module):
    assert _unread(module) == set()


def test_a_listed_name_that_nothing_reads_is_caught(monkeypatch):
    from kronmc import solvers

    monkeypatch.setattr(solvers, "__all__", [*solvers.__all__, "unread_helper"])
    assert "unread_helper" in _unread(solvers)
