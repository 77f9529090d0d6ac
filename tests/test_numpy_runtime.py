"""The runtime needs numpy only: no module of the package imports scipy.

The source check parses every module, so an import inside a function
counts too.  The runtime check runs in a child interpreter, because the
test process itself has scipy loaded (the scipy differential tests, and
CI's ``-W error::scipy.signal.BadCoefficients`` flag, import it).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import importlib, io, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
from repro.cli import run_command

for argv in (["verify", "--snr"],
             ["scenario", "run", "lte-20", "--quiet"],
             ["robustness", "run", "lte-20", "--samples", "8",
              "--stimulus-samples", "2048", "--quiet"]):
    err = io.StringIO()
    code = run_command(argv, stdout=io.StringIO(), stderr=err)
    assert code == 0, (argv, code, err.getvalue())
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
assert not loaded, loaded
"""


def _scipy_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            yield f"{path.relative_to(SRC)}:{node.lineno}"


def test_no_module_imports_scipy():
    offenders = [hit for path in sorted((SRC / "repro").rglob("*.py"))
                 for hit in _scipy_imports(path)]
    assert not offenders, offenders


def test_cli_verbs_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    imports = [line for line in result.stderr.splitlines()
               if line.startswith("import time:")]
    assert imports
    assert not [line for line in imports if "scipy" in line]
