import importlib
import pkgutil

import pytest

import csrk

MODULES = ["csrk"] + [f"csrk.{info.name}"
                      for info in pkgutil.iter_modules(csrk.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing {missing}"
    assert len(set(names)) == len(names), f"{module}.__all__ repeats a name"
