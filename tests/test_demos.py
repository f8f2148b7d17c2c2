import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
STEREO = "04_stereo_reconstruction.py"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


def run_python(*argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_demo(name):
    return run_python(str(ROOT / "demos" / name))


@pytest.mark.parametrize("name", sorted(
    p.name for p in (ROOT / "demos").glob("*.py") if p.name != STEREO))
def test_demo_runs(name):
    run_demo(name)


def test_stereo_reconstruction_demo_runs():
    found = re.search(r"noiseless triangulation: max error (\S+) units",
                      run_demo(STEREO))
    assert found and float(found.group(1)) < 1e-6


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS
    for code in README_BLOCKS:
        run_python("-c", code, cwd=tmp_path)
