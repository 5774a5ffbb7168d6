"""The package exports what its modules declare public, each name once,
imports nothing it does not use, and importing its CLI stays off the
heavy standard-library modules."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import guardres


def test_every_export_imports():
    for name in guardres.__all__:
        namespace = {}
        exec(f"from guardres import {name}", namespace)
        assert namespace[name] is getattr(guardres, name)


def test_exports_are_the_module_declarations_each_name_once():
    # The package's modules that declare an `__all__`, in name order.
    names = sorted(info.name for info in pkgutil.iter_modules(guardres.__path__))
    modules = [importlib.import_module(f"guardres.{name}") for name in names]
    modules = [module for module in modules if hasattr(module, "__all__")]
    assert guardres.__all__ == sum((m.__all__ for m in modules), ())
    # Under star imports a second module exporting a name would shadow the first.
    assert len(set(guardres.__all__)) == len(guardres.__all__)
    for module in modules:
        assert isinstance(module.__all__, tuple)
        for name in module.__all__:
            assert not name.startswith("_"), name
            assert getattr(module, name).__module__ == module.__name__, name


def test_cli_import_leaves_dataclasses_inspect_and_typing_out():
    # Isolated and without `site`, so only the package's own imports count;
    # `-I` ignores PYTHONDONTWRITEBYTECODE, so `-B` keeps `src/` free of bytecode.
    src = str(Path(guardres.__file__).parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import guardres.cli; "
              "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Imported for `perfbench/spans.py`, which traces these names in `guardres.solver`.
TRACED_IMPORTS = {("solver.py", "enumerate_supports"), ("solver.py", "enumerate_models")}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return {(path.name, name) for name in imported - used}


def test_every_import_is_used_or_exported():
    paths = sorted(Path(guardres.__file__).parent.glob("*.py"))
    unused = set().union(*(_unused_imports(path) for path in paths
                           if path.name != "__init__.py"))
    assert unused == TRACED_IMPORTS


def test_package_runs_no_generated_code():
    # Records read their fields through one getter; nothing is built from source text.
    calls = set()
    for path in sorted(Path(guardres.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls.update((path.name, node.func.id) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id in ("exec", "eval", "compile"))
    assert calls == set()
