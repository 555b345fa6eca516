"""The package's public names: every name a module exports exists."""

import importlib
import pkgutil

import ekinode


def test_every_exported_name_resolves():
    # The package and each of its modules that declares __all__.
    modules = [ekinode] + [
        importlib.import_module(f"ekinode.{info.name}") for info in pkgutil.iter_modules(ekinode.__path__)
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 6
    for module in exporting:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            getattr(module, name)
