"""Packaging: a built copy carries its data files and the package version."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def test_build_py_ships_goldens_and_kernel_source(tmp_path):
    subprocess.run([sys.executable, "setup.py", "-q", "build_py", "--build-lib",
                    str(tmp_path)], cwd=ROOT, check=True, capture_output=True)
    built = tmp_path / "repro"
    goldens = sorted(p.name for p in (SRC / "scenarios" / "goldens").glob("*.json"))
    assert goldens
    assert sorted(p.name for p in (built / "scenarios" / "goldens").glob("*.json")) == goldens
    assert (built / "_native" / "kernels.c").read_bytes() == \
        (SRC / "_native" / "kernels.c").read_bytes()


def test_setup_declares_the_package_version():
    result = subprocess.run([sys.executable, "setup.py", "--version"], cwd=ROOT,
                            check=True, capture_output=True, text=True)
    assert result.stdout.strip().splitlines()[-1] == repro.__version__
