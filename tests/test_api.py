"""The public surface: every name in a module's ``__all__`` resolves, and
the package runs on numpy alone.

A stale entry breaks ``from blackstock.<module> import *`` and nothing else
notices it.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_package_and_cli_import_no_scipy():
    # scipy is a test dependency only; a fresh interpreter that imports the
    # package and its command-line runner must not load any part of it.
    src = str(Path(blackstock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, blackstock, blackstock.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
