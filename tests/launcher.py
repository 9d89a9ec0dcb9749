"""Starting lwfv in a fresh interpreter, for the tests that run it as a
subprocess: the import, CLI and peak-memory tests."""
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Starts the Python command argv[1:] and exits with its status.  A process
# begins with the ru_maxrss of the one that started it (Linux keeps it
# across fork and exec), so a measured process is started by this small
# process, not by the test runner.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, *sys.argv[1:]]))"


def _subprocess_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env
