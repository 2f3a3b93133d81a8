"""Every name the packages export resolves, so a re-export left behind by a
deletion fails here rather than at a caller's import."""

import importlib

import pytest


@pytest.mark.parametrize("modname", ["reachmon", "reachmon.nets"])
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
