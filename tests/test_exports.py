"""Every name a module of the package exports must exist on it, every
name a module imports must be used, every private helper of the package
must be used by another statement of it, and the package must import and
run without scipy.

A stale ``__all__`` entry left behind by a deletion otherwise fails only
under ``from lwfv.<module> import *``; an import left behind by one fails
nowhere.  No linter is a dependency, so the import scan uses ``ast``.
"""
import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lwfv
from launcher import _subprocess_env

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


_NP_SAVERS = {"save", "savez", "savez_compressed", "savetxt"}


def _writes(call: ast.Call) -> bool:
    """Whether the mode of an ``open``-like call, its second argument or
    ``mode=`` ("r" when absent), is anything but a constant read mode."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _unguarded_writes(text: str) -> list[str]:
    """Calls in module source ``text`` that write a file without going
    through ``reports.open_file``, as "line: call": ``open`` with a mode
    that is not a constant read mode, any ``tempfile`` call or import, and
    an ``np.save`` (or ``savez``, ``savez_compressed``, ``savetxt``) or a
    writing ``zipfile.ZipFile`` whose file is not a name that a ``with``
    statement bound."""
    tree = ast.parse(text)
    streams = {item.optional_vars.id for node in ast.walk(tree)
               if isinstance(node, ast.With) for item in node.items
               if isinstance(item.optional_vars, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            found.append((node.lineno, "from tempfile"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _writes(node):
                found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            on_stream = (node.args and isinstance(node.args[0], ast.Name)
                         and node.args[0].id in streams)
            if func.value.id == "tempfile":
                found.append((node.lineno, f"tempfile.{func.attr}"))
            elif (func.value.id in ("np", "numpy") and func.attr in _NP_SAVERS
                  and not on_stream):
                found.append((node.lineno, f"np.{func.attr}"))
            elif (func.value.id == "zipfile" and func.attr == "ZipFile" and _writes(node)
                  and not on_stream):
                found.append((node.lineno, "zipfile.ZipFile"))
    return [f"{line}: {call}" for line, call in sorted(found)]


def test_every_file_is_written_through_reports_open_file():
    # open_file makes a write atomic and gives it the umask's permissions;
    # a writer that bypasses it loses both
    assert _unguarded_writes(
        "from tempfile import mkstemp\nopen(p, 'w')\nopen(p, mode='ab')\n"
        "open(p, m)\ntempfile.mkstemp()\nnp.save('h.npy', a)\n"
        "zipfile.ZipFile(p, 'w')\nzipfile.ZipFile(p, mode='a')\n"
        "with open_file(p, 'wb') as fh:\n    np.save(fh, a)\n"
        "    zipfile.ZipFile(fh, 'w')\n"
        "open(p)\nopen(p, 'rb')\nzipfile.ZipFile(p)\nzipfile.ZipFile(p, 'r')\n") == [
        "1: from tempfile", "2: open", "3: open", "4: open",
        "5: tempfile.mkstemp", "6: np.save", "7: zipfile.ZipFile", "8: zipfile.ZipFile"]
    found = {path.name: _unguarded_writes(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "lwfv").glob("*.py"))
             if path.name != "reports.py"}
    assert {k: v for k, v in found.items() if v} == {}


_BLAS_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _blas_products(text: str) -> list[str]:
    """The BLAS products in module source ``text``, as "line: product": the
    ``@`` operator (``@=`` too) and any attribute named dot, matmul, inner,
    vdot or tensordot, on numpy or on an array."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_PRODUCTS:
            found.append((node.lineno, node.attr))
    return [f"{line}: {op}" for line, op in sorted(found)]


def test_quadrature_sums_call_no_blas_product():
    # the BLAS kernel, chosen per CPU, sets the last bits of a product, so
    # the quadrature sums, the projections and seminorms built on them and
    # the gradient study's L1 distance go through quadrature.rowdot's fixed
    # order instead; this holds where the cross-kernel test in
    # test_solver.py skips
    assert _blas_products("a @ b\nx @= y\nnp.dot(a, b)\nnumpy.matmul(a, b)\n"
                          "np.inner(a, b)\nnp.vdot(a, b)\nnp.tensordot(a, b)\n"
                          "a.dot(b)\nnp.einsum('q,q->', a, b)\na * b\n") == [
        "1: @", "2: @", "3: dot", "4: matmul", "5: inner", "6: vdot",
        "7: tensordot", "8: dot"]
    found = {name: _blas_products((ROOT / "src" / "lwfv" / name).read_text(encoding="utf-8"))
             for name in ("quadrature.py", "translations.py", "operators.py")}
    assert found == {"quadrature.py": [], "translations.py": [], "operators.py": []}


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


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests only
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lwfv; print(sorted(m for m in sys.modules"
         " if m == 'scipy' or m.startswith('scipy.')))"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numpy_random_or_hashlib():
    # the mesh jitter is drawn by lwfv's own port of numpy's default_rng,
    # and the config digest imports hashlib when it is called; together
    # they cost about 6 MB of resident memory per process
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lwfv; print(sorted(m for m in sys.modules"
         " if m.startswith('numpy.random') or m in ('hashlib', '_hashlib')))"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numpy_polynomial():
    # the two Gauss-Legendre rules are a table of leggauss's doubles, so
    # numpy.polynomial's 7 modules (about 1.3 MB resident) stay unloaded
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lwfv; print(sorted(m for m in sys.modules"
         " if m.startswith('numpy.polynomial')))"],
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


TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.is_file(), reason="no perfbench/ in this checkout")
def test_benchmark_tracer_targets_resolve():
    # a deleted or renamed target reads None in the benchmark and fails
    # only its own suite; the tracer is loaded, not installed
    spec = importlib.util.spec_from_file_location("lwfv_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for targets in [*tracer.SPAN_TARGETS.values(), *tracer.COUNT_TARGETS.values()]:
        for target in targets:
            module, attr = target.rsplit(".", 1)
            if not hasattr(importlib.import_module(module), attr):
                missing.append(target)
    # the flux is wrapped through dataclasses.replace on its instance
    module, cls, field = tracer.FLUX_TARGET.rsplit(".", 2)
    flux_class = getattr(importlib.import_module(module), cls)
    if field not in {f.name for f in dataclasses.fields(flux_class)}:
        missing.append(tracer.FLUX_TARGET)
    assert missing == []
