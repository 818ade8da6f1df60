"""Every unused import or alias in ``src/modelprint`` is a lookup the benchmark's tracer patches.

A ``# noqa: F401`` import keeps a name in a module that never uses it, so
that ``perfbench/tracing.py`` can wrap it where the package looks it up;
a class attribute that only aliases a base-class function does the same
for a method.  These tests tie each such name to its patch point: one
that no patch point needs fails here, and once the tracer stops patching
a name, it fails here too and can go.
"""

import ast
import importlib
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


def base_function_aliases():
    """(class, name) for each class attribute that is the very function a modelprint base defines."""
    for path in sorted((ROOT / "src" / "modelprint").glob("*.py")):
        module = importlib.import_module(f"modelprint.{path.stem}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, value in vars(cls).items():
                if isinstance(value, types.FunctionType) and any(
                    vars(base).get(name) is value
                    for base in cls.__mro__[1:] if base.__module__.startswith("modelprint.")
                ):
                    yield cls, name


def test_every_base_function_alias_is_a_patch_point():
    patched = {(owner, attr) for owner, attr, _, _ in tracing.patch_points()}
    found = list(base_function_aliases())
    assert found, "no base-class function aliases found; the scan is broken"
    for cls, name in found:
        assert (cls, name) in patched, f"{cls.__qualname__}.{name} aliases a base-class function"
