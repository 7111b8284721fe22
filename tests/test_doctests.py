"""Run the docstring examples of every cactusflower module."""
import doctest
import importlib
import pkgutil

import pytest

import cactusflower

MODULES = sorted(m.name for m in pkgutil.iter_modules(cactusflower.__path__, "cactusflower."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    found = sum(
        doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    )
    assert found >= 55
