"""Every name a module of the package exports must exist on it, every
name a module imports must be used, and importing the package must not
load ``scipy.stats``.

A stale ``__all__`` entry left behind by a deletion otherwise fails only
under ``from lwfv.<module> import *``; an import left behind by one fails
nowhere.  No linter is a dependency, so the import scan uses ``ast``.
"""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lwfv

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(f"lwfv.{m.name}" for m in pkgutil.iter_modules(lwfv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


SOURCES = sorted([*(ROOT / "src" / "lwfv").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never references.  Skipped: the names in
    its ``__all__``, ``from __future__`` imports and imports marked
    ``noqa: F401`` on their line."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "noqa: F401" not in lines[alias.lineno - 1]:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_no_unused_imports():
    # __init__.py only re-exports
    unused = {path.relative_to(ROOT).as_posix(): _unused_imports(path)
              for path in SOURCES if path.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def test_import_loads_no_scipy_stats():
    # scipy.stats costs about a second of import; the Halton points the
    # flux checkers sample are computed with numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lwfv; print(sorted(m for m in sys.modules"
         " if m == 'scipy.stats' or m.startswith('scipy.stats.')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
