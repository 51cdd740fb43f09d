"""Every name a module exports through ``__all__`` exists in it."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["analysis", "config", "experiments",
                                    "geometry", "cli"])
def test_all_names_exist(module):
    mod = importlib.import_module(f"pma_lab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"pma_lab.{module}.__all__ names missing: {missing}"
