"""Every name a module exports resolves, so a stale export cannot linger."""

import importlib
import pkgutil

import pytest

import sqsums

# __main__ runs the command line on import
MODULES = ["sqsums"] + [f"sqsums.{m.name}" for m in pkgutil.iter_modules(sqsums.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
