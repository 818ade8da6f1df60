"""Every unused import in ``src/modelprint`` is a lookup the benchmark's tracer patches.

A ``# noqa: F401`` import keeps a name in a module that never uses it, so
that ``perfbench/tracing.py`` can wrap it where the package looks it up.
This test ties each such name to its patch point: an unused import that
no patch point needs fails here, and once the tracer stops patching a
name, its import fails here too and can go.
"""

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def unused_noqa_imports():
    """(module name, imported name) for each ``noqa: F401`` import its module never uses."""
    for path in sorted((ROOT / "src" / "modelprint").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if "noqa: F401" in lines[alias.lineno - 1] and name not in used:
                        yield f"modelprint.{path.stem}", name


def test_every_unused_import_is_a_patch_point():
    patched = {
        (owner.__name__, attr)
        for owner, attr, _, _ in tracing.patch_points()
        if isinstance(owner, types.ModuleType)
    }
    found = list(unused_noqa_imports())
    assert found, "no noqa: F401 imports found; the scan is broken"
    for module, name in found:
        assert (module, name) in patched, f"{module} imports {name} but never uses it"
