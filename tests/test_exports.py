"""Every name a module of the package exports must exist on it, every
name a module imports must be used, every private helper of the package
must be used by another statement of it, and the package must import and
run without scipy.

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


def _defined_private_names(node) -> list[str]:
    """The private (``_x``, not ``__x__``) names a module-level statement
    defines as a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_dead_private_helpers():
    # a private helper that only its own definition mentions is left over
    # from a deletion; references from the tests do not keep it alive
    statements = [(path, node)
                  for path in sorted((ROOT / "src" / "lwfv").glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [_referenced_names(node) for _, node in statements]
    dead = [f"{path.name}:{name}"
            for i, (path, node) in enumerate(statements)
            for name in _defined_private_names(node)
            if not any(name in r for j, r in enumerate(refs) if j != i)]
    assert dead == []


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


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests only
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lwfv; print(sorted(m for m in sys.modules"
         " if m == 'scipy' or m.startswith('scipy.')))"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # lw_study forks with os alone; multiprocessing and concurrent.futures
    # would lengthen the import and grow the heap the benchmark's
    # calibration kernel runs on
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lwfv; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        check=True)
    assert out.stdout.strip() == "[]"


# Runs the CLI with argv[2:], after installing a finder that makes every
# import of scipy fail when argv[1] is "block".
_CLI_MAYBE_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from lwfv.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_lw_verify_runs_with_scipy_blocked(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("family = uniform-1d\nn0 = 10\nflux = rusanov(burgers)\n"
                   "u0 = bump\nt_final = 0.5\ncfl = 0.45\nlevels = 2\n")
    reports = {}
    for mode in ("block", "allow"):
        out = tmp_path / mode
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_MAYBE_WITHOUT_SCIPY, mode, "lw-verify",
             "--config", str(cfg), "--out", str(out)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports[mode] = (out / "lw_report.csv").read_bytes()
    assert reports["block"] == reports["allow"]
