"""The package and its modules."""

import ast
import importlib
import pkgutil
from collections import Counter
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


def _referenced(node) -> Counter:
    """How often each name is read as a ``Name`` or an ``Attribute`` under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_function_and_class_has_a_use_in_the_package():
    """A private module-level function or class that nothing in the package
    reaches, outside its own definition, is dead code, even if a test calls it."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(machlab.__file__).parent.glob("*.py"))]
    refs = sum(map(_referenced, trees), Counter())
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    assert private
    assert [node.name for node in private
            if refs[node.name] <= _referenced(node)[node.name]] == []


# Public functions that nothing in the package calls: the artifact readers,
# which tests and the benchmark use to read back what the drivers write.
_READERS = {"spectral.read_snapshot", "ledger.RunLedger.from_csv"}


def test_every_public_function_has_a_caller_in_the_package():
    """A public function or method that nothing in the package reaches,
    outside its own definition, serves only the tests: it belongs there, or
    nowhere. Names match as in the private-name test above, so a method
    counts as reached when any attribute of its name is read."""
    paths = sorted(Path(machlab.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    refs = sum(map(_referenced, trees.values()), Counter())
    public = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                public += [(f"{stem}.{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public.append((f"{stem}.{node.name}", node))
    public = [(name, node) for name, node in public if not node.name.startswith("_")]
    assert public
    assert {name for name, node in public
            if refs[node.name] <= _referenced(node)[node.name]} == _READERS


def _call_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _sets(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` passes the parameter at ``position`` (None if keyword-only)
    named ``name``, counting any ``*args`` or ``**kwargs`` as passing it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _defaulted_parameters(tree):
    """(callee name, parameter name, position) of every defaulted parameter of
    every function under ``tree``. The ``self`` or ``cls`` of a method takes
    no position, a keyword-only parameter has none, and an ``__init__`` is
    called by its class name."""
    owners = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(func))
        callee = owner.name if owner is not None and func.name == "__init__" else func.name
        positional = func.args.posonlyargs + func.args.args
        bound = owner is not None and "staticmethod" not in map(ast.unparse, func.decorator_list)
        for i in range(len(positional) - len(func.args.defaults), len(positional)):
            yield callee, positional[i].arg, i - bound
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None


def test_every_defaulted_parameter_is_set_by_a_call_in_the_package():
    """A parameter default that no call in the package overrides is a knob
    that only tests turn: the parameter, and any branch behind it, can go.
    Calls match by name, so a call to a class counts as a call to its
    ``__init__``. The console entry point ``cli.main(argv)`` is exempt."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(machlab.__file__).parent.glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    unset = {f"{callee}({name})" for tree in trees
             for callee, name, position in _defaulted_parameters(tree)
             if not any(_sets(call, position, name) for call in calls.get(callee, []))}
    assert unset == {"main(argv)"}
