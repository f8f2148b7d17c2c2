import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
STEREO = "04_stereo_reconstruction.py"


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(
    p.name for p in (ROOT / "demos").glob("*.py") if p.name != STEREO))
def test_demo_runs(name):
    run_demo(name)


def test_stereo_reconstruction_demo_runs():
    found = re.search(r"noiseless triangulation: max error (\S+) units",
                      run_demo(STEREO))
    assert found and float(found.group(1)) < 1e-6
