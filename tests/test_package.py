"""The package and its modules."""

import importlib
import pkgutil

import machlab


def test_every_module_imports():
    names = sorted(info.name for info in pkgutil.iter_modules(machlab.__path__))
    assert "spectral" in names and "cli" in names
    for name in names:
        importlib.import_module(f"machlab.{name}")
