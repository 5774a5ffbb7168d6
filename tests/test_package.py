"""The package's export list matches what `guardres/__init__.py` imports,
and importing its CLI stays off the heavy standard-library modules."""

import ast
import subprocess
import sys
from pathlib import Path

import guardres


def _imported_public_names():
    tree = ast.parse(Path(guardres.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_imports():
    for name in guardres.__all__:
        namespace = {}
        exec(f"from guardres import {name}", namespace)
        assert namespace[name] is getattr(guardres, name)


def test_every_imported_public_name_is_exported():
    imported = _imported_public_names()
    assert imported
    assert imported <= set(guardres.__all__)


def test_cli_import_leaves_dataclasses_inspect_and_typing_out():
    # Isolated and without `site`, so only the package's own imports count.
    src = str(Path(guardres.__file__).parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import guardres.cli; "
              "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
