import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stereo_reconstruction_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_stereo_reconstruction.py")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    found = re.search(r"noiseless triangulation: max error (\S+) units",
                      done.stdout)
    assert found and float(found.group(1)) < 1e-6
