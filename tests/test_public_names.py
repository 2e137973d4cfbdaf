"""Every name a module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import irslink

MODULES = ["irslink"] + [f"irslink.{m.name}" for m in pkgutil.iter_modules(irslink.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
