"""The runtime needs numpy only: no CLI path imports scipy.

The check runs in a child interpreter, because the test process itself has
scipy loaded (the scipy differential tests, and CI's
``-W error::scipy.signal.BadCoefficients`` flag, import it).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import io, sys
import repro.cli, repro.dsm
from repro.cli import run_command

for argv in (["verify", "--snr"],
             ["scenario", "run", "lte-20", "--quiet"],
             ["robustness", "run", "lte-20", "--samples", "8",
              "--stimulus-samples", "2048", "--quiet"]):
    err = io.StringIO()
    code = run_command(argv, stdout=io.StringIO(), stderr=err)
    assert code == 0, (argv, code, err.getvalue())
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_cli_verbs_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    imports = [line for line in result.stderr.splitlines()
               if line.startswith("import time:")]
    assert imports
    assert not [line for line in imports if "scipy" in line]
