"""The package's public names: each module lists only what it defines, and
the package exposes only what some module lists."""

import importlib
import pkgutil
import types

import kronmc

MODULES = [importlib.import_module(f"kronmc.{info.name}")
           for info in pkgutil.iter_modules(kronmc.__path__)
           if not info.name.startswith("_")]


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
