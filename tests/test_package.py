import importlib
import pkgutil

import pytest

import skinfem

MODULES = ["skinfem"] + [
    f"skinfem.{m.name}" for m in pkgutil.iter_modules(skinfem.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"
