"""Runs `reachkin` commands in child processes under several BLAS settings,
to check that their files do not depend on the BLAS kernel or thread count.
"""

import os
import subprocess
import sys

from reachkin import cli

# the default setting, one OpenBLAS thread and OpenBLAS's Haswell (AVX2)
# kernel; each is set on the child process only
BLAS_SETTINGS = ({}, {"OPENBLAS_NUM_THREADS": "1"},
                 {"OPENBLAS_CORETYPE": "Haswell"})


def same_bytes_under_each_blas(out, commands):
    """Under each of BLAS_SETTINGS, run the argument lists
    ``commands(directory)`` through ``cli.main`` in one child process, where
    ``directory`` is a new directory under ``out``. Asserts that every file
    written there has the same bytes below its first line (the config hash,
    which names the directory) under every setting, and returns the default
    setting's {path under the directory: those bytes}."""
    names = {name for setting in BLAS_SETTINGS for name in setting}
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for k, setting in enumerate(BLAS_SETTINGS):
        directory = out / f"blas{k}"
        child = ("import sys\nfrom reachkin import cli\n"
                 f"for argv in {commands(directory)!r}:\n"
                 "    if cli.main(argv):\n"
                 "        sys.exit(f'{argv[0]} failed')")
        done = subprocess.run([sys.executable, "-c", child],
                              env={**env, **setting}, timeout=300,
                              capture_output=True, text=True)
        assert done.returncode == 0, (setting, done.stderr)
        runs.append({path.relative_to(directory).as_posix():
                     path.read_bytes().split(b"\n", 1)[1]
                     for path in sorted(directory.rglob("*"))
                     if path.is_file()})
    differing = [[name for name in sorted(runs[0].keys() | run.keys())
                  if run.get(name) != runs[0].get(name)] for run in runs[1:]]
    assert differing == [[]] * len(runs[1:]), differing
    return runs[0]
