"""The public surface: every name in a module's ``__all__`` resolves.

A stale entry breaks ``from blackstock.<module> import *`` and nothing else
notices it.
"""

import importlib
import pkgutil

import pytest

import blackstock

MODULES = ("cli", "config", "dynamics", "energy", "experiments", "fields", "grid",
           "inequalities", "integrate", "storage")


@pytest.mark.parametrize("name", ("blackstock",) + tuple(f"blackstock.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_module_is_listed():
    assert sorted(m.name for m in pkgutil.iter_modules(blackstock.__path__)) == sorted(MODULES)
