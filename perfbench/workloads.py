"""Workloads of the reachkin benchmark.

Each workload builds its inputs from a seed (``reachkin synth``, plus a
planar lift into two camera views for ``stereo_reconstruct``), runs a fixed
sequence of ``reachkin`` commands, and checks every output against the
program's own readers and the synthetic ground truth.

An operation is one command invocation, or one participant's output file
when a command writes one file per participant. It fails on a non-zero exit
or a failed check. A failed check is *wrong* when the output could be read
but contradicts the oracle; such a run is reported as not correct.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reachkin import model_io, pipeline
from reachkin.errors import ReachkinError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")      # relative to ROOT, so config hashes repeat

# Planar lift: synth pixels are placed on the plane z = PLANE_Z in front of
# the two-camera rig used by tests/test_reconstruct3d.py.
PX_PER_UNIT = 450.0
PLANE_Z = 4.0
FOCAL, CX, CY = 800.0, 320.0, 240.0
BASELINE, TOE_IN = 1.0, 0.3
POINT_TOL = 1e-6               # world units; triangulation is noiseless


class CheckFailed(Exception):
    """An output check failed; ``wrong`` marks an oracle mismatch."""
    wrong = False


class Unreadable(CheckFailed):
    pass


class Wrong(CheckFailed):
    wrong = True


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""
    wrong: bool = False


@dataclass
class Command:
    argv: list
    returncode: int
    wall_s: float
    peak_rss_mb: float = 0.0


@dataclass(frozen=True)
class Paths:
    base: Path

    @property
    def cohort(self):
        return self.base / "cohort"

    @property
    def out(self):
        return self.base / "out"

    @property
    def logs(self):
        return self.base / "logs"

    @property
    def synth2d(self):
        return self.base / "synth2d"

    @property
    def calibration(self):
        return self.base / "calibration.csv"


@dataclass
class Inputs:
    rows: int                  # joint-CSV data rows over all cameras
    rows_by_pid: dict          # participant -> rows of its first camera
    ages: dict                 # participant -> planted age
    planted: dict              # participant -> {(joint, frame): (x, y, z)}


# --- running reachkin --------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# Runs ``reachkin.cli`` as ``python -m reachkin.cli`` does (runpy, as
# ``__main__``) and, when the interpreter exits, writes the process's peak
# resident set size in KiB to the file named by the first argument. The peak
# is read from VmHWM because the rusage a parent collects with wait4 also
# counts the memory the parent itself had when it started the child.
LAUNCH = """\
import atexit, runpy, sys

def peak(path):
    with open("/proc/self/status") as fh:
        kib = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kib)

atexit.register(peak, sys.argv.pop(1))
runpy.run_module("reachkin.cli", run_name="__main__", alter_sys=True)
"""


def subprocess_runner(logs: Path, env):
    """Run each command as its own ``reachkin.cli`` process and record its
    wall time and peak RSS (0 when the process died before reporting it)."""
    logs.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()

    def run(argv):
        stem = logs / f"{next(counter):03d}_{argv[0]}"
        peak = stem.with_suffix(".peak_kib")
        with open(stem.with_suffix(".log"), "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", LAUNCH, peak, *map(str, argv)],
                stdout=log, stderr=subprocess.STDOUT, env=env)
            wall = time.perf_counter() - t0
        peak_mb = int(peak.read_text()) / 1024.0 if peak.is_file() else 0.0
        return Command(list(argv), proc.returncode, wall, peak_mb)
    return run


def inprocess_runner(cli):
    """Run each command through ``cli.main`` in this process, looked up at
    call time so that traced wrappers apply."""
    def run(argv):
        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:      # a crash is a failed operation
                traceback.print_exc()
                rc = 1
        return Command(argv, rc, time.perf_counter() - t0)
    return run


# --- set-up ------------------------------------------------------------------

def _rotation_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rig():
    """camera id -> (R, t), world to camera; camera 2 sits at x = BASELINE."""
    R2 = _rotation_y(-TOE_IN)
    return {"cam1": (np.eye(3), np.zeros(3)),
            "cam2": (R2, -R2 @ np.array([BASELINE, 0.0, 0.0]))}


def project(R, t, X):
    c = X @ R.T + t
    return np.column_stack([FOCAL * c[:, 0] / c[:, 2] + CX,
                            FOCAL * c[:, 1] / c[:, 2] + CY])


def write_calibration(path):
    ext = [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["t1", "t2", "t3"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["camera_id", "fx", "fy", "cx", "cy", *ext])
        for cam, (R, t) in rig().items():
            writer.writerow([cam, FOCAL, FOCAL, CX, CY,
                             *map(repr, R.ravel().tolist()),
                             *map(repr, t.tolist())])


def lift_session(src: Path, dst: Path):
    """Place one 2D session on the plane z = PLANE_Z, project it into both rig
    cameras and write a two-camera session. Returns the planted 3D points."""
    dst.mkdir(parents=True)
    with open(src / "manifest.json") as fh:
        manifest = json.load(fh)
    width, height = manifest["play_area_px"]
    with open(src / "joints.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = list(reader)
    xy = np.array([(float(r[5]), float(r[6])) for r in rows])
    world = np.column_stack([(xy[:, 0] - width / 2.0) / PX_PER_UNIT,
                             (xy[:, 1] - height / 2.0) / PX_PER_UNIT,
                             np.full(len(xy), PLANE_Z)])
    for cam, (R, t) in rig().items():
        px = project(R, t, world).tolist()
        with open(dst / f"joints_{cam}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(model_io.JOINTS_2D_HEADER)
            for r, (u, v) in zip(rows, px):
                writer.writerow([r[0], cam, r[2], r[3], r[4], repr(u), repr(v),
                                 r[7]])
    manifest["camera_ids"] = list(rig())
    with open(dst / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    shutil.copyfile(src / "targets.csv", dst / "targets.csv")
    gate = pipeline.PipelineConfig().confidence_threshold
    return {(r[4], int(r[2])): tuple(p) for r, p in zip(rows, world.tolist())
            if float(r[7]) >= gate}


def count_rows(cohort: Path):
    """Data rows of every joints*.csv, in total and per participant."""
    total, by_pid = 0, {}
    for pdir in sorted(p for p in cohort.iterdir() if p.is_dir()):
        for i, f in enumerate(sorted(pdir.glob("joints*.csv"))):
            with open(f) as fh:
                n = sum(1 for _ in fh) - 1
            total += n
            if i == 0:
                by_pid[pdir.name] = n
    return total, by_pid


def read_ages(cohort: Path):
    with open(cohort / "ground_truth.csv", newline="") as fh:
        return {r["participant_id"]: int(r["age"]) for r in csv.DictReader(fh)}


def digest_tree(root: Path):
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# --- output checks -------------------------------------------------------------

def make_op(name, returncode, check=None):
    if returncode != 0:
        return Op(name, False, f"exit code {returncode}")
    try:
        if check is not None:
            check()
    except CheckFailed as exc:
        return Op(name, False, str(exc), wrong=exc.wrong)
    return Op(name, True)


def read_table(path: Path):
    """Read a CSV artifact with the program's reader; every float is finite."""
    if not path.is_file():
        raise Unreadable(f"{path.name} missing")
    try:
        header, rows = pipeline.read_artifact(path)
    except (StopIteration, csv.Error, UnicodeDecodeError) as exc:
        raise Unreadable(f"{path.name}: {exc!r}")
    for row in rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise Wrong(f"{path.name}: non-finite value {cell!r}")
    return header, rows


def read_joints(path: Path):
    if not path.is_file():
        raise Unreadable(f"{path} missing")
    try:
        with open(path) as fh:
            return model_io.parse_joint_csv(fh)
    except (ReachkinError, ValueError) as exc:
        raise Unreadable(f"{path}: {exc}")


def check_files(out: Path, names):
    for name in names:
        if not (out / name).is_file():
            raise Unreadable(f"{name} missing")
        if name.endswith(".csv"):
            read_table(out / name)
        elif "<svg" not in (out / name).read_text():
            raise Wrong(f"{name}: no <svg> element")


def check_ages(metrics_path: Path, ages):
    read_table(metrics_path)
    got = {s.participant_id: s.age for s in pipeline.read_metrics(metrics_path)}
    if got != ages:
        raise Wrong("metrics.csv participants or ages differ from ground truth")


def group_labels():
    return [pipeline.group_label((lo + hi) // 2)
            for lo, hi in pipeline.ANALYSIS_GROUPS]


def check_trends(metrics_path: Path, spline_path: Path):
    """The planted age trends, as in test_cohort_monotonic_trends: directness
    and the spline rate ratio rise with age group, peak speed falls."""
    read_table(metrics_path)
    summaries = pipeline.read_metrics(metrics_path)
    labels = group_labels()
    direct, speed = [], []
    for label in labels:
        members = [s for s in summaries if s.group == label]
        if not members:
            raise Wrong(f"metrics.csv: group {label} empty")
        direct.append(float(np.mean([s.median_directness for s in members])))
        speed.append(float(np.mean([s.median_max_speed for s in members])))
    if not direct[0] < direct[1] < direct[2]:
        raise Wrong(f"directness not increasing with age: {direct}")
    if not speed[0] > speed[1] > speed[2]:
        raise Wrong(f"peak speed not decreasing with age: {speed}")
    header, rows = read_table(spline_path)
    ratio = {r[header.index("group")]: float(r[header.index("rate_ratio")])
             for r in rows}
    if set(ratio) != set(labels):
        raise Wrong(f"spline.csv groups {sorted(ratio)} != {labels}")
    ratios = [ratio[label] for label in labels]
    if not ratios[0] < ratios[1] < ratios[2]:
        raise Wrong(f"rate ratio not increasing with age: {ratios}")


def pooled_rmse(cv_path: Path):
    header, rows = read_table(cv_path)
    for r in rows:
        if r[header.index("fold")] == "pooled":
            return float(r[header.index("rmse")])
    raise Unreadable("cv_report.csv has no pooled row")


def check_cv(cv_path: Path, ages):
    rmse = pooled_rmse(cv_path)
    spread = float(np.std(list(ages.values())))
    if not rmse < spread:
        raise Wrong(f"pooled rMSE {rmse} not below the age spread {spread}")


def check_clean(path: Path, pid, input_rows):
    seq = read_joints(path)
    decimation = pipeline.PipelineConfig().decimation
    per_joint = input_rows // len(model_io.CORE_JOINTS)
    expected = len(model_io.CORE_JOINTS) * -(-per_joint // decimation)
    if seq.participant_id != pid or len(seq.samples) != expected:
        raise Wrong(f"{path}: {seq.participant_id} with {len(seq.samples)} "
                    f"rows, expected {pid} with {expected}")
    if not all(math.isfinite(v) for s in seq.samples for v in s.position):
        raise Wrong(f"{path}: non-finite position")


def check_points(path: Path, planted, tol=POINT_TOL):
    """Every reconstructed point matches its planted 3D point."""
    seq = read_joints(path)
    got = {(s.joint, s.frame_index): s.position for s in seq.samples}
    if seq.dims != 3 or set(got) != set(planted):
        raise Wrong(f"{path}: {len(got)} points, expected {len(planted)}")
    err = max(max(abs(a - b) for a, b in zip(got[k], planted[k]))
              for k in planted)
    if not err <= tol:
        raise Wrong(f"{path}: point error {err} above {tol}")


# --- workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    n_per_bin: int
    duration: float
    stereo: bool = False

    def setup(self, paths: Paths, seed, run):
        """Build the inputs from the seed; returns the set-up time in seconds
        and the planted 3D points of a stereo cohort."""
        for d in (paths.cohort, paths.synth2d):
            shutil.rmtree(d, ignore_errors=True)
        target = paths.synth2d if self.stereo else paths.cohort
        t0 = time.perf_counter()
        cmd = run(["synth", "--n-per-bin", self.n_per_bin, "--seed", seed,
                   "--duration", self.duration, "--out", target])
        if cmd.returncode != 0:
            raise RuntimeError(f"reachkin synth exited {cmd.returncode}")
        planted = {}
        if self.stereo:
            for pdir in sorted(p for p in target.iterdir() if p.is_dir()):
                planted[pdir.name] = lift_session(pdir, paths.cohort / pdir.name)
            shutil.copyfile(target / "ground_truth.csv",
                            paths.cohort / "ground_truth.csv")
            write_calibration(paths.calibration)
        return time.perf_counter() - t0, planted

    def inputs(self, paths: Paths, planted):
        rows, by_pid = count_rows(paths.cohort)
        return Inputs(rows, by_pid, read_ages(paths.cohort), planted)

    def commands(self, paths: Paths):
        c, o = paths.cohort, paths.out
        if self.name == "pipeline_full":
            return [["pipeline", "--in", c, "--out", o, "--seed", 0]]
        if self.name == "cli_stages":
            return [["ingest", "--in", c],
                    ["preprocess", "--in", c, "--out", o],
                    ["metrics", "--in", c, "--out", o],
                    ["progress", "--in", c, "--out", o],
                    ["stats", "--metrics", o / "metrics.csv", "--out", o],
                    ["report", "--in", c, "--out", o]]
        return [["reconstruct", "--in", c, "--out", o,
                 "--calibration", paths.calibration]]

    def check(self, paths: Paths, cmds, inputs: Inputs):
        """One Op per operation of one repetition of the commands."""
        o = paths.out
        ops = []
        for cmd in cmds:
            name, rc = cmd.argv[0], cmd.returncode
            if name == "pipeline":
                def full():
                    check_files(o, pipeline.ARTIFACTS + (
                        "bars.csv", "trajectories.csv", "bars.svg",
                        "progress.svg", "trajectories.svg"))
                    check_ages(o / "metrics.csv", inputs.ages)
                    check_trends(o / "metrics.csv", o / "spline.csv")
                    check_cv(o / "cv_report.csv", inputs.ages)
                ops.append(make_op(name, rc, full))
            elif name == "preprocess":
                for pid, n in inputs.rows_by_pid.items():
                    path = o / pid / "joints_clean.csv"
                    ops.append(make_op(f"preprocess:{pid}", rc,
                                       lambda p=path, q=pid, k=n:
                                       check_clean(p, q, k)))
            elif name == "reconstruct":
                for pid, planted in inputs.planted.items():
                    path = o / pid / "joints_3d.csv"
                    ops.append(make_op(f"reconstruct:{pid}", rc,
                                       lambda p=path, k=planted:
                                       check_points(p, k)))
            elif name == "metrics":
                ops.append(make_op(name, rc, lambda: check_ages(
                    o / "metrics.csv", inputs.ages)))
            else:
                files = {"ingest": (),
                         "progress": ("spline.csv", "progress_curves.csv"),
                         "stats": ("anova.csv", "tukey.csv"),
                         "report": ("bars.csv", "trajectories.csv", "bars.svg",
                                    "progress.svg", "trajectories.svg")}[name]
                ops.append(make_op(name, rc, lambda f=files: check_files(o, f)))
        return ops


# Sized so that one run (three set-ups plus 22 s of repetitions) takes about
# 35 to 45 s on 2 cores. Four participants per bin is the smallest cohort
# whose CV rMSE stays below the age spread for every seed tried; the session
# lengths follow the ROADMAP reference cohort (50 s) and the per-stage
# sizing (20 s), so per-session and per-file costs weigh more in cli_stages.
WORKLOADS = {w.name: w for w in (
    Workload("pipeline_full", n_per_bin=4, duration=50.0),
    Workload("cli_stages", n_per_bin=4, duration=20.0),
    Workload("stereo_reconstruct", n_per_bin=1, duration=50.0, stereo=True),
)}
