"""Self-tests of the benchmark's output checks and tracer.

    PYTHONPATH=src python -m pytest perfbench/test_checks.py

Each check must accept a valid output and reject a deliberately corrupted
copy, so that a run cannot pass its checks vacuously.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from reachkin import cli, model_io, pipeline, reconstruct3d, stats, synth  # noqa: E402


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small written cohort and the artifacts of a short pipeline run."""
    root = tmp_path_factory.mktemp("bench")
    cohort, truth = synth.generate_cohort(3, seed=0, duration=20.0)
    synth.write_cohort(cohort, truth, str(root / "cohort"))
    argv = ["pipeline", "--in", str(root / "cohort"), "--out",
            str(root / "out"), "--epochs", "2", "--folds", "2"]
    assert cli.main(argv) == 0
    return root


def copy_out(run_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    return out


def rewrite(path, transform):
    """Rewrite a CSV artifact's rows, keeping its comment line."""
    lines = path.read_text().splitlines(keepends=True)
    comment = [ln for ln in lines if ln.startswith("#")]
    header, rows = pipeline.read_artifact(path)
    with open(path, "w", newline="") as fh:
        fh.writelines(comment)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(transform(header, rows))


def test_valid_outputs_pass(run_dir):
    out = run_dir / "out"
    ages = wl.read_ages(run_dir / "cohort")
    op = wl.make_op("pipeline", 0, lambda: (
        wl.check_files(out, pipeline.ARTIFACTS),
        wl.check_ages(out / "metrics.csv", ages),
        wl.check_trends(out / "metrics.csv", out / "spline.csv")))
    assert op.ok, op.detail


def test_swapped_group_means_rejected(run_dir, tmp_path):
    out = copy_out(run_dir, tmp_path)
    young, old = wl.group_labels()[0], wl.group_labels()[-1]

    def swap(header, rows):
        g, d = header.index("group"), header.index("median_directness")
        mean = {lab: sum(float(r[d]) for r in rows if r[g] == lab)
                / sum(1 for r in rows if r[g] == lab) for lab in (young, old)}
        shift = {young: mean[old] - mean[young], old: mean[young] - mean[old]}
        return [r[:d] + [repr(float(r[d]) + shift.get(r[g], 0.0))] + r[d + 1:]
                for r in rows]

    rewrite(out / "metrics.csv", swap)
    with pytest.raises(wl.Wrong, match="directness"):
        wl.check_trends(out / "metrics.csv", out / "spline.csv")
    op = wl.make_op("metrics", 0, lambda: wl.check_trends(
        out / "metrics.csv", out / "spline.csv"))
    assert not op.ok and op.wrong


def test_missing_artifact_rejected(run_dir, tmp_path):
    out = copy_out(run_dir, tmp_path)
    (out / "cv_report.csv").unlink()
    op = wl.make_op("pipeline", 0,
                    lambda: wl.check_files(out, pipeline.ARTIFACTS))
    assert not op.ok and "cv_report.csv missing" in op.detail


def test_non_finite_value_rejected(run_dir, tmp_path):
    out = copy_out(run_dir, tmp_path)
    rewrite(out / "anova.csv",
            lambda header, rows: [r[:-1] + ["nan"] for r in rows])
    with pytest.raises(wl.Wrong, match="non-finite"):
        wl.check_files(out, ("anova.csv",))


def test_non_zero_exit_rejected(tmp_path):
    run = wl.subprocess_runner(tmp_path / "logs", wl.child_env())
    cmd = run(["metrics", "--in", tmp_path / "absent", "--out", tmp_path])
    assert cmd.returncode == 2
    op = wl.make_op("metrics", cmd.returncode)
    assert not op.ok and op.detail == "exit code 2"


def test_peak_rss_is_the_commands_own(tmp_path):
    """A large benchmark process does not raise a command's peak RSS."""
    ballast = bytearray(256 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    run = wl.subprocess_runner(tmp_path / "logs", wl.child_env())
    cmd = run(["metrics", "--in", tmp_path / "absent", "--out", tmp_path])
    assert 0 < cmd.peak_rss_mb < 256
    del ballast


def write_points(path, pid, points):
    """A 3D joints file in the format model_io documents, written exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(model_io.JOINTS_3D_HEADER)
        for (joint, frame), xyz in sorted(points.items()):
            writer.writerow([pid, frame, repr(frame / 30.0), joint,
                             *map(repr, xyz)])


@pytest.fixture(scope="module")
def lifted(run_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("lift")
    planted = wl.lift_session(run_dir / "cohort" / "p000", root / "p000")
    wl.write_calibration(root / "calibration.csv")
    return root, planted


def test_lift_matches_reconstruction(lifted):
    """The program's triangulation of a lifted session meets the oracle."""
    root, planted = lifted
    session = model_io.load_session(root / "p000")
    cams = reconstruct3d.load_calibration(root / "calibration.csv")
    seq1, seq2 = session.skeletons
    seq3d = reconstruct3d.triangulate_sequences(
        seq1, seq2, cams["cam1"], cams["cam2"])
    got = {(s.joint, s.frame_index): tuple(map(float, s.position))
           for s in seq3d.samples}
    write_points(root / "joints_3d.csv", "p000", got)
    wl.check_points(root / "joints_3d.csv", planted)


def test_moved_3d_point_rejected(lifted, tmp_path):
    _, planted = lifted
    write_points(tmp_path / "ok.csv", "p000", planted)
    wl.check_points(tmp_path / "ok.csv", planted)
    key = sorted(planted)[len(planted) // 2]
    x, y, z = planted[key]
    write_points(tmp_path / "moved.csv", "p000",
                 {**planted, key: (x + 1e-3, y, z)})
    with pytest.raises(wl.Wrong, match="point error"):
        wl.check_points(tmp_path / "moved.csv", planted)


def test_tracer_restores_functions_and_nests_spans(run_dir):
    original = cli.load_cohort
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_cohort is not original
        assert pipeline.load_cohort is cli.load_cohort
        with tracer.phase("timed"):
            assert cli.main(["ingest", "--in", str(run_dir / "cohort")]) == 0
    finally:
        tracer.uninstall()
    assert cli.load_cohort is original
    values, missing = tracing.layer_metrics(tracer)
    assert not missing
    assert values["model_io.rows_parsed"][0] == 12 * 20 * 30 * 4
    assert 0.5 < tracer.aggregate("timed").coverage() <= 1.0
    assert values["cli.ingest_s"][0] >= values["model_io.parse_s"][0] > 0


def test_missing_function_reported_missing(monkeypatch):
    monkeypatch.delattr(stats, "tukey_hsd")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer)
    assert {"stats.s", "stats.calls"} <= set(missing)
    assert "stats.s" not in values and "model_io.parse_s" in values


def test_benchmark_json_matches_the_harness():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.per_layer_names()


def test_repetitions_stop_nearest_the_run_length():
    import run
    assert not run.enough([], 25)
    assert not run.enough([13.0], 25)        # a second one lands at 26 s
    assert not run.enough([6.0, 6.0, 6.0], 25)
    assert run.enough([6.0] * 4, 25)         # a fifth would land at 30 s
    assert run.enough([13.0, 13.0], 25)
