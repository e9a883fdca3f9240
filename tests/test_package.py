"""The package and its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import machlab

# Imports allowed inside a function, as (module, function, import statement).
# ``acceptance`` drives the experiments it checks, so the selftest driver
# cannot import it at module level: the one import cycle of the package.
_LOCAL_IMPORTS = {("experiments", "drive_selftest", "from . import acceptance")}


def test_every_module_imports():
    names = sorted(info.name for info in pkgutil.iter_modules(machlab.__path__))
    assert "spectral" in names and "cli" in names
    for name in names:
        importlib.import_module(f"machlab.{name}")


def test_no_module_imports_inside_a_function():
    """A function-level import can hide an import cycle; every import sits at
    module level but the documented one."""
    found = set()
    for path in sorted(Path(machlab.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((path.stem, func.name, ast.unparse(node)))
    assert found == _LOCAL_IMPORTS
