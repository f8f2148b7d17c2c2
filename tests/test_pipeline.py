import gc
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from blas_settings import same_bytes_under_each_blas

from reachkin import (agenet, cli, kinematics, pipeline, preprocess,
                      progress_spline, reconstruct3d, stats, synth)
from reachkin.errors import ConfigError, InputError, NumericalError, ParseError
from reachkin.kinematics import MetricSummary
from reachkin.model_io import SkeletonSequence, iter_sessions, parse_joint_csv
from reachkin.pipeline import (
    PipelineConfig,
    group_label,
    read_artifact,
    read_metrics,
    write_artifact,
    write_metrics,
)


# --- configuration -----------------------------------------------------------

def test_config_round_trip():
    config = PipelineConfig(seed=9, epochs=3, filter_cutoff_hz=5.0)
    back = PipelineConfig.from_dict(asdict(config))
    assert back == config
    assert back.config_hash == config.config_hash


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"seed": 1, "cutoff": 6.0})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"jobs": 2})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"bins": [[6, 8], [9, 17]]})


def test_config_validates_ranges():
    with pytest.raises(ConfigError):
        PipelineConfig(decimation=0)
    with pytest.raises(ConfigError):
        PipelineConfig(folds=0)
    with pytest.raises(ConfigError):
        PipelineConfig(window=0)
    with pytest.raises(ConfigError):
        PipelineConfig(stride=0)


def test_config_fields_pinned():
    # a new knob must show up here, as a reviewed change to this tuple
    assert tuple(PipelineConfig.__dataclass_fields__) == (
        "input_dir", "out_dir", "seed", "confidence_threshold", "decimation",
        "filter_order", "filter_cutoff_hz", "window", "stride", "folds",
        "epochs")


def test_tuning_parameters_pinned():
    # these functions' tuning values are fixed in the code; a parameter
    # added back to one of them must show up here, as a reviewed change
    pinned = {
        agenet.AgeNet: ("seed", "input_shape"),
        agenet.evaluate_mse: ("model", "windows"),
        agenet.train: ("model", "train_windows", "val_windows", "epochs",
                       "seed"),
        agenet.cross_validate: ("windows", "folds", "epochs", "seed",
                                "predictor"),
        preprocess.interpolate_outliers: ("positions",),
        progress_spline.filter_backward_reaches: ("curves",),
        progress_spline._project_parameters: ("control", "points", "s"),
        reconstruct3d.triangulate: ("px1", "px2", "cam1", "cam2"),
        reconstruct3d.normalize_by_shoulder_width: ("seq", "scale"),
        reconstruct3d.CameraModel.project: ("self", "X"),
        kinematics.segment_reaches: ("seq", "targets", "target_to_path"),
        agenet.AgeNet.forward: ("self", "x", "cache"),
        synth.generate_reach: ("params", "start", "target", "dt", "rng"),
        synth.generate_session: ("params", "age", "seed", "participant_id",
                                 "duration"),
        pipeline.analyze_session: ("session", "seq"),
        pipeline.cohort_metrics: ("sessions", "stages", "config", "paths",
                                  "calibration"),
    }
    for fn, names in pinned.items():
        assert tuple(inspect.signature(fn).parameters) == names, fn.__name__


def test_config_hash_tracks_content():
    a = PipelineConfig(seed=1)
    b = PipelineConfig(seed=2)
    assert a.config_hash != b.config_hash
    assert a.config_hash == PipelineConfig(seed=1).config_hash


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 4, "epochs": 2}))
    config = PipelineConfig.from_file(path)
    assert config.seed == 4 and config.epochs == 2
    for text in (b"{bad", b"[]", b"5", b'{"seed": "\xff"}'):
        path.write_bytes(text)
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)


def test_group_label():
    assert group_label(6) == "6-10"
    assert group_label(10) == "6-10"
    assert group_label(11) == "11-13"
    assert group_label(17) == "14-17"
    with pytest.raises(InputError):
        group_label(42)


# --- artifacts ---------------------------------------------------------------

def test_artifact_round_trip(tmp_path):
    config = PipelineConfig(seed=13)
    path = str(tmp_path / "thing.csv")
    write_artifact(path, ["a", "b"], [["1", "x"], ["2", "y"]], config)
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("#")
    assert config.config_hash in first
    assert "seed=13" in first
    header, rows = read_artifact(path)
    assert header == ["a", "b"]
    assert rows == [["1", "x"], ["2", "y"]]


def test_write_artifact_floats_full_precision_and_finite(tmp_path):
    config = PipelineConfig()
    path = str(tmp_path / "thing.csv")
    rows = [["x", 0.1 + 0.2, 7], ["y", np.float64(1e-300), 8]]
    write_artifact(path, ["a", "b", "c"], rows, config)
    kept = [["x", "0.30000000000000004", "7"], ["y", "1e-300", "8"]]
    assert read_artifact(path) == (["a", "b", "c"], kept)
    for value in (float("nan"), np.inf, -np.inf):
        with pytest.raises(NumericalError,
                           match=rf"thing.csv: row 4: column 'b': non-finite "
                                 rf"value {value!r}"):
            write_artifact(path, ["a", "b", "c"], [rows[0], ["y", value, 8]],
                           config)
    # nothing of the refused artifact was written
    assert read_artifact(path) == (["a", "b", "c"], kept)


def _clean(session, config):
    return pipeline.preprocess_session(
        pipeline.session_frames(session, config), config)


def test_metrics_round_trip(tmp_path, sample_session):
    config = PipelineConfig()
    summary, segments = pipeline.analyze_session(
        sample_session, _clean(sample_session, config))
    path = str(tmp_path / "metrics.csv")
    write_metrics([summary], path, config)
    back = read_metrics(path)
    assert len(back) == 1
    assert back[0].participant_id == summary.participant_id
    assert back[0].median_directness == summary.median_directness
    assert back[0].median_max_speed == summary.median_max_speed
    assert back[0].group == summary.group


# --- per-session analysis ----------------------------------------------------

def test_analyze_session_units_and_counts(sample_session):
    summary, segments = pipeline.analyze_session(
        sample_session, _clean(sample_session, PipelineConfig()))
    assert summary.participant_id == "p011"
    assert summary.group == "11-13"
    assert 0.0 < summary.median_directness <= 1.0
    assert summary.median_max_speed > 0.0
    assert summary.reach_count == len(segments)
    assert summary.reach_count >= 2
    # paths are in shoulder-width units with targets mapped alongside
    for seg in segments:
        assert seg.target_position is not None
        end_dist = np.linalg.norm(seg.path[-1] - seg.target_position)
        assert end_dist < 1.0


def test_metrics_analyzes_the_streams_preprocess_writes(tmp_path,
                                                        small_cohort_dir):
    # the streams are filtered once, in the preprocess stage
    cohort, out = str(small_cohort_dir), tmp_path / "out"
    for command in ("preprocess", "metrics"):
        assert cli.main([command, "--in", cohort, "--out", str(out)]) == 0
    summaries = []
    for session in pipeline.load_cohort(cohort).sessions:
        with open(out / session.participant_id / "joints_clean.csv") as fh:
            seq = parse_joint_csv(fh)
        summaries.append(pipeline.analyze_session(session, seq)[0])
    assert read_metrics(str(out / "metrics.csv")) == summaries


def test_run_stats_structure(small_cohort_dir):
    records = pipeline.cohort_metrics(iter_sessions(small_cohort_dir),
                                      ("metrics",), PipelineConfig(), None)
    results = pipeline.run_stats([r.summary for r in records])
    assert set(results) == {"directness", "max_speed"}
    for anova, tukey in results.values():
        assert isinstance(anova, stats.AnovaResult)
        assert anova.df_between == 2
        assert len(tukey) == 3
        assert 0.0 <= anova.p <= 1.0


def test_a_metrics_row_reaches_every_consumer(monkeypatch, tmp_path):
    # a metric is one kinematics.METRICS row: no consumer keeps its own list
    name, field, measure = kinematics.METRICS[-1]
    monkeypatch.setattr(kinematics, "METRICS", kinematics.METRICS + (
        ("alt_max_speed", field, measure),))
    names = [row[0] for row in kinematics.METRICS]
    assert names[-2:] == [name, "alt_max_speed"]
    ages = (7, 8, 9, 11, 12, 13, 14, 15, 16)
    summaries = [MetricSummary(f"p{i}", age, group_label(age), 0.3 + 0.05 * i,
                               3.5 - 0.1 * i ** 1.5, 40 + i)
                 for i, age in enumerate(ages)]
    assert list(pipeline.run_stats(summaries)) == names
    rows = pipeline.bar_rows(summaries)
    assert [row[0] for row in rows] == [
        n for n in names for _ in pipeline.GROUP_LABELS]
    pipeline.svg_bars(rows, tmp_path / "bars.svg", PipelineConfig())
    panels = re.findall(r'font-size="11" text-anchor="middle">(\w+)</text>',
                        (tmp_path / "bars.svg").read_text())
    assert panels == names
    path = str(tmp_path / "metrics.csv")
    write_metrics(summaries, path, PipelineConfig())
    assert read_metrics(path) == summaries


# --- CLI ---------------------------------------------------------------------

def test_cli_ingest_clean_cohort(small_cohort_dir, capsys):
    assert cli.main(["ingest", "--in", str(small_cohort_dir)]) == 0
    out = capsys.readouterr().out
    assert "12 sessions, 0 finding(s)" in out


def test_cli_pipeline_empty_dir_names_failing_stage(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = cli.main(["pipeline", "--in", str(empty),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "ingest" in capsys.readouterr().err


def test_cli_bad_config_exits_4(tmp_path, small_cohort_dir, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"decimation": 0}))
    code = cli.main(["metrics", "--in", str(small_cohort_dir),
                     "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 4


def test_cli_metrics_and_stats(tmp_path, small_cohort_dir):
    out = tmp_path / "out"
    assert cli.main(["metrics", "--in", str(small_cohort_dir),
                     "--out", str(out)]) == 0
    metrics = out / "metrics.csv"
    assert metrics.is_file()
    assert len(read_metrics(str(metrics))) == 12

    assert cli.main(["stats", "--metrics", str(metrics),
                     "--out", str(out)]) == 0
    header, rows = read_artifact(str(out / "anova.csv"))
    assert header == ["metric", "F", "df_between", "df_within", "p"]
    assert {r[0] for r in rows} == {"directness", "max_speed"}
    header, rows = read_artifact(str(out / "tukey.csv"))
    assert len(rows) == 6   # 2 metrics x 3 pairs


def test_cli_metrics_rejects_nan_joint_cell(tmp_path, small_cohort_dir, capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p000" / "joints.csv"
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines)
             if ",left_wrist," in ln and float(ln.split(",")[7]) >= 0.75)
    fields = lines[i].split(",")
    fields[5] = "nan"
    lines[i] = ",".join(fields)
    path.write_text("".join(lines))
    out = tmp_path / "out"
    assert cli.main(["metrics", "--in", str(cohort), "--out", str(out)]) == 2
    assert f"row {i + 1}" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_cli_parse_error_names_the_file(tmp_path, small_cohort_dir, capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p001" / "joints.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[4].split(",")
    fields[5] = "abc"
    lines[4] = ",".join(fields)
    path.write_text("".join(lines))
    out = tmp_path / "out"
    assert cli.main(["metrics", "--in", str(cohort), "--out", str(out)]) == 2
    assert (f"stage 'ingest' failed: {path}: row 5: column 'x': not a number: "
            "'abc'" in capsys.readouterr().err)
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["metrics", "pipeline"])
def test_cli_coincident_shoulders_name_the_participant(tmp_path,
                                                       small_cohort_dir,
                                                       capsys, command):
    # the right shoulder copies the left one's position on every frame
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p001" / "joints.csv"
    header, *rows = [ln.split(",") for ln in path.read_text().splitlines()]
    left = {r[2]: r[5:7] for r in rows if r[4] == "left_shoulder"}
    for r in rows:
        if r[4] == "right_shoulder":
            r[5:7] = left[r[2]]
    path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
    out = tmp_path / "out"
    assert cli.main([command, "--in", str(cohort), "--out", str(out)]) == 2
    assert ("error: stage 'metrics' failed: participant p001: degenerate "
            "shoulder width" in capsys.readouterr().err)
    assert not out.exists() or not os.listdir(out)


def test_cli_stats_names_missing_metrics_column(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("participant_id,age,median_directness,median_max_speed,"
                       "reach_count\np000,8,0.9,1.5,10\n")
    assert cli.main(["stats", "--metrics", str(metrics),
                     "--out", str(tmp_path / "out")]) == 2
    assert "['group']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "anova.csv").exists()


def test_cli_stats_rejects_empty_metrics_file(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("")
    assert cli.main(["stats", "--metrics", str(metrics),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "empty file" in err and str(metrics) in err
    assert not (tmp_path / "out" / "anova.csv").exists()


_METRICS_ROWS = ("participant_id,age,group,median_directness,median_max_speed,"
                 "reach_count\n"
                 "p000,7,6-10,0.4,3.5,48\np001,8,6-10,0.5,3.4,46\n"
                 "p002,12,11-13,0.6,3.1,50\np003,13,11-13,0.7,3.0,52\n")


@pytest.mark.parametrize("row, cell, value, message", [
    (2, 3, "nan", "column 'median_directness': not finite: 'nan'"),
    (3, 4, "inf", "column 'median_max_speed': not finite: 'inf'"),
    (4, 4, "fast", "column 'median_max_speed': not a number: 'fast'"),
    (1, 1, "abc", "column 'age': not an integer: 'abc'"),
    (2, 1, "", "column 'age': not an integer: ''"),
    (3, 5, "", "column 'reach_count': not an integer: ''"),
    (4, 2, "18-20", "column 'group': '18-20' is not one of"),
    (1, 2, "14-17", "column 'age': 7 is outside group '14-17'"),
    (2, 1, "15", "column 'age': 15 is outside group '6-10'"),
])
def test_cli_stats_rejects_bad_metrics_cell(tmp_path, capsys, row, cell,
                                            value, message):
    lines = ["# reachkin config_hash=0 seed=0", *_METRICS_ROWS.splitlines()]
    fields = lines[row + 1].split(",")
    fields[cell] = value
    lines[row + 1] = ",".join(fields)
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("\n".join(lines) + "\n")
    assert cli.main(["stats", "--metrics", str(metrics),
                     "--out", str(tmp_path / "out")]) == 2
    # the row is the line number in the file, comment and header included
    assert f"{metrics}: row {row + 2}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_read_metrics_rejects_short_row(tmp_path, capsys):
    # and a long one
    metrics = tmp_path / "metrics.csv"
    for line, fields in (("p004,15,14-17,0.8", 4),
                         ("p004,15,14-17,0.8,2.9,40,junk", 7)):
        metrics.write_text(_METRICS_ROWS + line + "\n")
        message = f"row 6: expected 6 fields, got {fields}"
        with pytest.raises(ParseError, match=message) as info:
            read_metrics(str(metrics))
        assert info.value.row == 6 and str(metrics) in str(info.value)
        assert cli.main(["stats", "--metrics", str(metrics),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"{metrics}: {message}" in capsys.readouterr().err
    # a blank line is skipped
    metrics.write_text(_METRICS_ROWS + "\n")
    assert len(read_metrics(str(metrics))) == 4


def test_hash_prefixed_participant_ids_are_data(tmp_path):
    # only an artifact's first line is its comment
    summaries = [MetricSummary("#p1", 7, "6-10", 0.4, 3.5, 48),
                 MetricSummary("p2", 12, "11-13", 0.6, 3.1, 50)]
    path = str(tmp_path / "metrics.csv")
    write_metrics(summaries, path, PipelineConfig())
    assert read_metrics(path) == summaries
    header, rows = read_artifact(path)
    assert header == list(kinematics.METRIC_COLUMNS)
    assert [row[0] for row in rows] == ["#p1", "p2"]


def test_cli_stats_rejects_repeated_participant(tmp_path, capsys):
    # counted twice, p001 would add a degree of freedom to every test
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(_METRICS_ROWS + "p001,8,6-10,0.5,3.4,46\n")
    assert cli.main(["stats", "--metrics", str(metrics),
                     "--out", str(tmp_path / "out")]) == 2
    assert (f"{metrics}: row 6: participant 'p001' repeats row 3"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _lower_confidences(cohort, pid):
    path = cohort / pid / "joints.csv"
    header, *rows = path.read_text().splitlines()
    rows = [",".join(r.split(",")[:7] + ["0.5"]) for r in rows]
    path.write_text("\n".join([header, *rows]) + "\n")


def test_cli_preprocess_failure_writes_no_participant(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert cli.main(["synth", "--n-per-bin", "1", "--seed", "3",
                     "--duration", "10", "--out", str(cohort)]) == 0
    _lower_confidences(cohort, "p001")
    out = tmp_path / "out"
    assert cli.main(["preprocess", "--in", str(cohort), "--out", str(out)]) == 2
    assert "participant p001" in capsys.readouterr().err
    assert not (out / "p000" / "joints_clean.csv").exists()


@pytest.mark.parametrize("pid", ["../../escaped", ".reachkin-staging"])
def test_cli_refuses_a_participant_id_that_is_no_directory_name(
        tmp_path, capsys, pid):
    # the id names the participant's output directory
    cohort = tmp_path / "cohort"
    assert cli.main(["synth", "--n-per-bin", "1", "--seed", "1",
                     "--duration", "10", "--out", str(cohort)]) == 0
    for name in ("manifest.json", "joints.csv", "targets.csv"):
        path = cohort / "p000" / name
        path.write_text(path.read_text().replace('"p000"', json.dumps(pid))
                        .replace("\np000,", f"\n{pid},"))
    out = tmp_path / "run" / "out"
    assert cli.main(["preprocess", "--in", str(cohort), "--out", str(out)]) == 2
    assert f"'participant_id' must be a plain directory name, got {pid!r}" \
        in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cohort"]


@pytest.mark.parametrize("cam9_rows", [199, 0])
def test_cli_rejects_joint_rows_of_another_session(tmp_path, capsys,
                                                   small_cohort_dir, cam9_rows):
    # every row says participant p777; the first cam9_rows say camera cam9
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p001" / "joints.csv"
    header, *rows = path.read_text().splitlines()
    rows = [",".join(["p777", "cam9" if i < cam9_rows else cells[1]]
                     + cells[2:])
            for i, cells in enumerate(r.split(",") for r in rows)]
    path.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    assert cli.main(["metrics", "--in", str(cohort), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if cam9_rows:
        assert f"stage 'ingest' failed: {path}: row 201: column 'camera_id'" \
            in err
    else:
        assert (f"stage 'ingest' failed: {cohort / 'p001'}: joint files "
                "name participant(s) ['p777'], not 'p001'") in err
    assert not out.exists()


def test_cli_import_loads_only_the_start_up_modules():
    # every command, `reachkin synth` included, pays for each module loaded
    # here; a stage loads the modules it uses when it runs
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, reachkin.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'reachkin'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == str([
        "reachkin", "reachkin.cli", "reachkin.errors", "reachkin.model_io",
        "reachkin.pipeline"])


def test_cli_import_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # no scipy module at all: scipy.signal and scipy.stats each cost about
    # 1 s of start-up; and the studentized range quadrature nodes are built
    # on the first p-value, not on import (of the stats layer, which the
    # cli loads only when a command runs it)
    probe = ("import sys, reachkin.cli, reachkin.stats; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'],"
             " reachkin.stats._gauss_legendre.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[] 0"


def test_commands_but_synth_leave_synth_unloaded(tmp_path, small_cohort_dir):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    calibration = tmp_path / "calibration.csv"
    calibration.write_text("camera_id,fx,fy,cx,cy\nwebcam,800,800,495,360\n")
    cohort, out = str(small_cohort_dir), str(tmp_path / "out")
    runs = [["ingest", "--in", cohort],
            ["metrics", "--in", cohort, "--out", out],
            ["reconstruct", "--in", cohort, "--out", out,
             "--calibration", str(calibration)]]
    # none of these commands loads the generator, the age model or the stats
    probe = ("import sys\nfrom reachkin import cli\n"
             f"codes = [cli.main(argv) for argv in {runs!r}]\n"
             "print('probe', codes, [f'reachkin.{m}' in sys.modules "
             "for m in ('synth', 'agenet', 'stats')])")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == \
        "probe [0, 0, 2] [False, False, False]"


# sha256 of anova.csv and tukey.csv below their config-hash comment line, for
# `stats` on the `metrics.csv` of the small cohort: they pin the p-values of
# `reachkin.stats`' own F and studentized range functions to the last bit.
# Neither the cohort nor the p-values go through BLAS, so the pins hold on
# any BLAS kernel and thread count.
STATS_ARTIFACT_SHA256 = {
    "anova.csv":
        "1f5e9402e193cdd176438955cdcc524939c3a2c214c2dafcc8397a4835d4cc53",
    "tukey.csv":
        "c3aba39111d188129a300a2ebd75695a54aa16aae4ba164e5df4d98ffa049e52",
}


def test_stage_commands_load_no_scipy(tmp_path, small_cohort_dir):
    # scipy is a test oracle only: every stage command and the pipeline, run
    # one after another in one process, must leave no scipy module loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cohort, out = str(small_cohort_dir), str(tmp_path)
    short = ["--epochs", "1", "--folds", "1"]
    runs = [["train", "--in", cohort, "--out", out, *short],
            *([command, "--in", cohort, "--out", out]
              for command in ("preprocess", "metrics", "progress", "report")),
            ["stats", "--metrics", os.path.join(out, "metrics.csv"),
             "--out", out],
            ["pipeline", "--in", cohort, "--out", out, *short]]
    probe = ("import sys\nfrom reachkin import cli\n"
             f"for argv in {runs!r}:\n"
             "    code = cli.main(argv)\n"
             "    print('probe', argv[0], code,"
             " [m for m in sys.modules if m.split('.')[0] == 'scipy'] != [])")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert [ln for ln in done.stdout.splitlines() if ln.startswith("probe")] == [
        "probe train 0 False", "probe preprocess 0 False",
        "probe metrics 0 False", "probe progress 0 False",
        "probe report 0 False", "probe stats 0 False",
        "probe pipeline 0 False"]
    for name, want in STATS_ARTIFACT_SHA256.items():
        body = (tmp_path / name).read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == want, name


def test_artifacts_same_under_default_blas_one_thread_and_avx2(
        tmp_path, small_cohort_dir):
    """`synth`, and every stage command on the small cohort but `train`,
    write the same bytes below line 1 under the default BLAS, one OpenBLAS
    thread and OpenBLAS's Haswell (AVX2) kernel: no norm or product on their
    way goes through BLAS or LAPACK."""
    cohort = str(small_cohort_dir)

    def commands(out):
        return [["synth", "--n-per-bin", "1", "--duration", "10",
                 "--out", str(out / "synth")],
                *([command, "--in", cohort, "--out", str(out / command)]
                  for command in ("preprocess", "metrics", "progress")),
                ["stats", "--metrics", str(out / "metrics" / "metrics.csv"),
                 "--out", str(out / "stats")],
                ["report", "--in", cohort, "--out", str(out / "report")]]

    files = same_bytes_under_each_blas(tmp_path, commands)
    assert {name.split("/")[0] for name in files} == {
        "synth", "preprocess", "metrics", "progress", "stats", "report"}
    assert {"synth/p000/joints.csv", "preprocess/p000/joints_clean.csv",
            "metrics/metrics.csv", "progress/spline.csv",
            "progress/progress_curves.csv", "stats/anova.csv",
            "stats/tukey.csv", "report/bars.csv"} <= set(files)


def test_stage_commands_load_no_openssl(tmp_path, small_cohort_dir):
    # the commands that draw no random numbers must not map OpenSSL's
    # libcrypto; train, pipeline and synth are out of scope, because
    # numpy.random imports _hashlib through secrets and hmac
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cohort, out = str(small_cohort_dir), str(tmp_path)
    runs = [["ingest", "--in", cohort],
            *([command, "--in", cohort, "--out", out]
              for command in ("preprocess", "metrics", "progress")),
            ["stats", "--metrics", os.path.join(out, "metrics.csv"),
             "--out", out],
            ["report", "--in", cohort, "--out", out]]
    probe = ("import sys\nfrom reachkin import cli\n"
             f"for argv in {runs!r}:\n"
             "    print('probe', argv[0], cli.main(argv),"
             " '_hashlib' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert [ln for ln in done.stdout.splitlines() if ln.startswith("probe")] == [
        f"probe {argv[0]} 0 False" for argv in runs]


@pytest.mark.parametrize("command", ["metrics", "train", "pipeline"])
def test_cli_gating_error_names_the_participant(tmp_path, small_cohort_dir,
                                                capsys, command):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    _lower_confidences(cohort, "p001")
    out = tmp_path / "out"
    assert cli.main([command, "--in", str(cohort), "--out", str(out)]) == 2
    assert ("error: stage 'frames' failed: participant p001: joint "
            in capsys.readouterr().err)
    assert not out.exists()


def test_the_pass_keeps_the_error_type(tmp_path, small_cohort_dir):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    _lower_confidences(cohort, "p001")
    with pytest.raises(pipeline.StageFailure) as failure:
        pipeline.cohort_metrics(iter_sessions(str(cohort)), ("frames",),
                                PipelineConfig(), None)
    assert failure.value.stage == "frames"
    assert type(failure.value.cause) is InputError
    assert re.fullmatch("participant p001: joint '[a-z_]+': every frame below "
                        "0.75", str(failure.value.cause))


@pytest.mark.parametrize("command", ["ingest", "metrics", "pipeline"])
def test_cli_rejects_duplicate_participant_ids(tmp_path, small_cohort_dir,
                                               capsys, command):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    shutil.copytree(cohort / "p000", cohort / "p100")
    out = tmp_path / "out"
    assert cli.main([command, "--in", str(cohort), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "participant id 'p000'" in err
    assert str(cohort / "p000") in err and str(cohort / "p100") in err
    assert not out.exists()


def test_cli_synth_writes_cohort(tmp_path, capsys):
    out = tmp_path / "cohort"
    assert cli.main(["synth", "--n-per-bin", "1", "--seed", "3",
                     "--duration", "10", "--out", str(out)]) == 0
    dirs = [d for d in os.listdir(out) if (out / d).is_dir()]
    assert len(dirs) == 4
    assert (out / "ground_truth.csv").is_file()


def test_cli_synth_refuses_a_non_empty_out(tmp_path, capsys):
    # a second cohort written over a first kept the first's extra sessions,
    # which ground_truth.csv no longer listed
    out = tmp_path / "cohort"
    out.mkdir()   # an existing empty directory is fine
    argv = ["synth", "--duration", "10", "--out", str(out)]
    assert cli.main(argv + ["--n-per-bin", "2", "--seed", "1"]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(argv + ["--n-per-bin", "1", "--seed", "2"]) == 4
    assert capsys.readouterr().err == \
        f"config error: --out {out} is not empty\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("option, value", [
    ("--n-per-bin", "0"), ("--duration", "0"), ("--duration", "-3"),
    ("--duration", "0.01"), ("--duration", "inf"), ("--seed", "-1")])
def test_cli_synth_rejects_empty_sizes(tmp_path, capsys, option, value):
    out = tmp_path / "cohort"
    argv = {"--n-per-bin": "1", "--duration": "10", option: value}
    assert cli.main(["synth", "--out", str(out),
                     *(a for kv in argv.items() for a in kv)]) == 4
    assert capsys.readouterr().err.startswith(f"config error: {option} ")
    assert not out.exists()


def test_cli_synth_has_no_bins_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out", str(tmp_path), "--bins", "6-8,9-17"])
    assert exc.value.code == 2


def test_cli_progress_writes_spline(tmp_path, small_cohort_dir):
    out = tmp_path / "out"
    assert cli.main(["progress", "--in", str(small_cohort_dir),
                     "--out", str(out)]) == 0
    header, rows = read_artifact(str(out / "spline.csv"))
    assert "rate_ratio" in header
    groups = {r[0] for r in rows}
    assert groups == {"6-10", "11-13", "14-17"}
    for r in rows:
        ratio = float(r[header.index("rate_ratio")])
        init = float(r[header.index("initial_rate")])
        final = float(r[header.index("final_rate")])
        assert ratio == pytest.approx(init / final)


def test_run_training_uses_confidence_threshold(monkeypatch):
    cohort, _ = synth.generate_cohort(1, seed=2, duration=20.0)
    seen = []
    monkeypatch.setattr(agenet, "cross_validate",
                        lambda windows, **kw: seen.append(windows))
    for threshold in (0.75, 0.9):
        config = PipelineConfig(confidence_threshold=threshold, window=50,
                                stride=50)
        pipeline.run_training(pipeline.cohort_metrics(
            cohort.sessions, ("train",), config, None), config)
    default, strict = ([w.values for w in ws] for ws in seen)
    assert len(default) != len(strict) or not all(
        np.array_equal(a, b) for a, b in zip(default, strict))


@pytest.mark.parametrize("n_per_bin, stage", [(1, "stats"), (2, "train")])
def test_cli_pipeline_failure_names_stage_and_writes_nothing(
        tmp_path, capsys, n_per_bin, stage):
    cohort, out = tmp_path / "cohort", tmp_path / "out"
    assert cli.main(["synth", "--n-per-bin", str(n_per_bin), "--seed", "3",
                     "--duration", "20", "--out", str(cohort)]) == 0
    assert cli.main(["pipeline", "--in", str(cohort), "--out", str(out),
                     "--epochs", "1", "--folds", "1"]) == 2
    assert f"stage '{stage}' failed" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_stage_commands_match_pipeline(tmp_path, small_cohort_dir):
    cohort, out = str(small_cohort_dir), str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input_dir": cohort, "seed": 17,
                                  "epochs": 2, "folds": 2}))
    common = ["--out", out, "--config", str(config)]
    assert cli.main(["pipeline", "--in", cohort, *common]) == 0
    whole = tmp_path / "whole"
    os.rename(out, whole)
    for stage in ("metrics", "progress", "stats", "train", "report"):
        source = (["--metrics", os.path.join(out, "metrics.csv")]
                  if stage == "stats" else ["--in", cohort])
        assert cli.main([stage, *source, *common]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(whole))
    for name in os.listdir(whole):
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == (whole / name).read_bytes(), name


def test_run_pipeline_gates_each_session_once(tmp_path, small_cohort_dir,
                                              monkeypatch):
    from reachkin import preprocess
    original = preprocess.reject_low_confidence
    gated = []

    def counted(seq, threshold):
        gated.append(seq.participant_id)
        return original(seq, threshold)

    monkeypatch.setattr(preprocess, "reject_low_confidence", counted)
    pipeline.run_pipeline(PipelineConfig(
        input_dir=str(small_cohort_dir), out_dir=str(tmp_path / "out"),
        epochs=1, folds=1))
    assert sorted(gated) == [f"p{i:03d}" for i in range(12)]


@pytest.mark.parametrize("argv, config, message", [
    (["--stride", "0"], {}, "stride must be >= 1"),
    ([], {"window": 0}, "window and stride must be >= 1"),
    ([], {"window": 60}, "stage 'train' failed: window of 60 frames is too "
                         "short for the conv stack, which needs at least 79"),
    ([], {"bins": [[6, 8], [9, 17]]}, "unknown config key(s): ['bins']"),
    *(([], {key: value}, f"unknown config key(s): [{key!r}]")
      for key, value in (("outlier_k_sigma", 2.0), ("backward_threshold", 0.1),
                         ("spline_rounds", 3), ("split", 0.7),
                         ("learning_rate", 1e-3),
                         ("analysis_groups", [[6, 10], [11, 13], [14, 17]]))),
], ids=["stride-0", "window-0", "window-60", "bins", "outlier_k_sigma",
        "backward_threshold", "spline_rounds", "split", "learning_rate",
        "analysis_groups"])
def test_cli_train_rejects_bad_settings(tmp_path, small_cohort_dir, capsys,
                                        argv, config, message):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    assert cli.main(["train", "--in", str(small_cohort_dir), "--out", str(out),
                     "--config", str(cfg), *argv]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("command, argv, config, field", [
    ("pipeline", [], {"seed": 1.5}, "seed"),
    ("pipeline", [], {"folds": "5"}, "folds"),
    ("pipeline", [], {"epochs": 2.5}, "epochs"),
    ("pipeline", [], {"window": 200.0}, "window"),
    ("pipeline", [], {"confidence_threshold": "0.5"}, "confidence_threshold"),
    ("pipeline", [], {"filter_cutoff_hz": float("inf")}, "filter_cutoff_hz"),
    ("pipeline", [], {"decimation": True}, "decimation"),
    ("pipeline", [], {"out_dir": 5}, "out_dir"),
    ("pipeline", ["--seed", "-1"], {}, "seed"),
    ("train", ["--seed", "-1"], {}, "seed"),
    ("pipeline", ["--confidence-threshold", "nan"], {}, "confidence_threshold"),
    ("pipeline", ["--confidence-threshold", "1.5"], {},
     "confidence_threshold"),
    ("pipeline", ["--epochs", "0"], {}, "epochs"),
    ("ingest", ["--filter-order", "0"], {}, "filter_order"),
    ("pipeline", [], {"filter_cutoff_hz": -6.0}, "filter_cutoff_hz"),
    ("metrics", [], {"out_dir": "o\u0000x"}, "out_dir"),
], ids=["seed-float", "folds-str", "epochs-float", "window-float",
        "threshold-str", "cutoff-inf", "decimation-bool", "out-int",
        "seed-negative", "train-seed-negative", "threshold-nan",
        "threshold-above-1", "epochs-0", "filter-order-0", "cutoff-negative",
        "out-nul"])
def test_cli_config_values_checked_when_built(tmp_path, small_cohort_dir,
                                              capsys, command, argv, config,
                                              field):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--in", str(small_cohort_dir), "--out", str(out),
                     "--config", str(cfg), *argv]) == 4
    assert capsys.readouterr().err.startswith(f"config error: {field} ")
    assert not out.exists()


def test_cli_window_sets_the_model_input_length(tmp_path, small_cohort_dir):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps({"window": 150, "stride": 75, "epochs": 1,
                               "folds": 1}))
    assert cli.main(["train", "--in", str(small_cohort_dir), "--out", str(out),
                     "--config", str(cfg)]) == 0
    header, rows = read_artifact(str(out / "cv_report.csv"))
    assert header == ["fold", "rmse"] and rows[-1][0] == "pooled"


def test_cli_pipeline_has_no_bins_option(tmp_path, small_cohort_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", "--in", str(small_cohort_dir),
                  "--out", str(tmp_path / "out"), "--bins", "6-8,9-17"])
    assert exc.value.code == 2


# --- every command through the stage table -----------------------------------

@pytest.mark.parametrize("command, stage", [
    ("ingest", "validate"), ("preprocess", "frames"),
    ("reconstruct", "calibration"), ("stats", "metrics"),
    ("stats:undecodable", "metrics"),
    ("metrics", "ingest"), ("train", "ingest"), ("pipeline", "ingest")])
def test_cli_failure_names_the_stage_and_writes_nothing(
        tmp_path, small_cohort_dir, capsys, command, stage):
    cohort, out = tmp_path / "cohort", tmp_path / "out"
    shutil.copytree(small_cohort_dir, cohort)
    argv = [command, "--in", str(cohort), "--out", str(out)]
    if command == "ingest":          # a validation finding
        manifest = cohort / "p002" / "manifest.json"
        manifest.write_text(json.dumps(
            {**json.loads(manifest.read_text()), "age_years": 20}))
        message = "participant p002: age 20 outside [6, 17]"
    elif command == "preprocess":    # every wrist frame gated
        _lower_confidences(cohort, "p001")
        message = "participant p001: joint "
    elif command == "reconstruct":   # a calibration cell that is no number
        calibration = tmp_path / "calibration.csv"
        calibration.write_text("camera_id,fx,fy,cx,cy\n"
                               "webcam,abc,800,495,360\n")
        argv += ["--calibration", str(calibration)]
        message = f"{calibration}: row 2: column 'fx'"
    elif command == "stats:undecodable":    # a metrics file that is not text
        metrics = tmp_path / "metrics.csv"
        metrics.write_bytes(b"participant_id,age\n\xff\n")
        argv = ["stats", "--metrics", str(metrics), "--out", str(out)]
        message = f"{metrics}: not UTF-8 text"
    elif command == "stats":         # a metrics file that is not there
        metrics = tmp_path / "metrics.csv"
        argv = ["stats", "--metrics", str(metrics), "--out", str(out)]
        message = f"No such file or directory: '{metrics}'"
    elif command == "metrics":       # a session file that is not there
        targets = cohort / "p003" / "targets.csv"
        os.remove(targets)
        message = f"No such file or directory: '{targets}'"
    elif command == "train":         # a session file that is not text
        targets = cohort / "p004" / "targets.csv"
        with open(targets, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        message = f"{targets}: not UTF-8 text"
    else:                            # a directory that is not a session
        (cohort / "notes").mkdir()
        message = f"{cohort / 'notes'}: not a session directory"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage '{stage}' failed: ")
    assert message in err
    assert not out.exists()


def test_cli_ingest_writes_nothing_in_the_working_directory(
        tmp_path, small_cohort_dir, monkeypatch):
    # ingest is given no --out, so its out_dir is the default `out`
    monkeypatch.chdir(tmp_path)
    assert cli.main(["ingest", "--in", str(small_cohort_dir)]) == 0
    assert os.listdir(tmp_path) == []


def test_cli_refuses_an_output_directory_inside_the_input(
        tmp_path, small_cohort_dir, capsys, monkeypatch):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    listing = sorted(os.listdir(cohort))
    argv = ["pipeline", "--in", str(cohort), "--out", str(cohort / "out")]
    for _ in range(2):      # the rerun finds nothing the first run left
        assert cli.main(argv) == 4
        assert (f"error: stage 'ingest' failed: output directory "
                f"{cohort / 'out'} is inside input directory {cohort}"
                in capsys.readouterr().err)
        assert sorted(os.listdir(cohort)) == listing
    # stats reads no input directory, so the default `.` holds any out_dir
    monkeypatch.chdir(tmp_path)
    assert cli.main(["metrics", "--in", str(cohort), "--out", "o"]) == 0
    assert cli.main(["stats", "--metrics", "o/metrics.csv", "--out", "o"]) == 0
    assert os.path.isfile("o/anova.csv")


def test_cli_failed_rerun_keeps_every_file_of_the_last_run(
        tmp_path, small_cohort_dir, capsys, monkeypatch):
    out = tmp_path / "out"
    argv = ["pipeline", "--in", str(small_cohort_dir), "--out", str(out),
            "--epochs", "1", "--folds", "2"]
    assert cli.main(argv) == 0
    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    # metrics, spline and progress curves are written before anova.csv
    anova = stats.one_way_anova
    monkeypatch.setattr(stats, "one_way_anova",
                        lambda grouped: replace(anova(grouped), F=np.nan))
    assert cli.main(argv) == 3
    assert (f"error: stage 'stats' failed: {out / 'anova.csv'}: row 3: "
            "column 'F': non-finite value nan" in capsys.readouterr().err)
    assert {name: (out / name).read_bytes()
            for name in os.listdir(out)} == first


def test_benchmark_tracer_finds_every_function(monkeypatch):
    # perfbench times each layer by wrapping these functions by name; one
    # renamed away would drop its metrics from every benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import tracing
    original = dict(cli.COMMANDS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        # main dispatches through COMMANDS: each entry must be the wrapper
        # the tracer put in place of its cmd_<name>, or its span is lost
        wrapped = {"synth", *tracing.CLI_COMMANDS}
        for name, command in cli.COMMANDS.items():
            assert command is getattr(cli, "cmd_" + name)
            assert (command.__wrapped__ if name in wrapped else command) \
                is original[name], name
    finally:
        tracer.uninstall()
    assert cli.COMMANDS == original


# --- every config field is an option of every stage command ------------------

KNOBS = [f for f in fields(PipelineConfig)
         if f.name not in ("input_dir", "out_dir")]


def _required(command, tmp_path):
    if command == "stats":
        return ["--metrics", "m.csv", "--out", str(tmp_path)]
    extra = ["--calibration", "c.csv"] if command == "reconstruct" else []
    return ["--in", str(tmp_path), *extra]


@pytest.mark.parametrize("command", list(cli.STAGE_COMMANDS))
def test_stage_command_options_are_the_config_fields(command, tmp_path):
    parser = cli.build_parser()
    argv = [command, *_required(command, tmp_path)]
    source = {"stats": {"metrics"}, "reconstruct": {"input_dir", "calibration"}}
    expected = {"command", "config", "out_dir",
                *source.get(command, {"input_dir"}),
                *(f.name for f in KNOBS)}
    args = parser.parse_args(argv)
    assert set(vars(args)) == expected
    assert all(getattr(args, f.name) is None for f in KNOBS)
    given = parser.parse_args(argv + [
        arg for f in KNOBS
        for arg in ("--" + f.name.replace("_", "-"), str(f.default))])
    for f in KNOBS:
        value = getattr(given, f.name)
        assert type(value) is type(f.default) and value == f.default, f.name


# field -> (command that reads it, the value given, an artifact it changes);
# train runs with the config file's epochs and folds below. A new field needs
# its own entry.
OPTION_CASES = {
    "seed": ("train", 7, "cv_report.csv"),
    "confidence_threshold": ("preprocess", 0.9, "p000/joints_clean.csv"),
    "decimation": ("preprocess", 1, "p000/joints_clean.csv"),
    "filter_order": ("preprocess", 3, "p000/joints_clean.csv"),
    "filter_cutoff_hz": ("metrics", 3.0, "metrics.csv"),
    "window": ("train", 150, "cv_report.csv"),
    "stride": ("train", 50, "cv_report.csv"),
    "folds": ("train", 3, "cv_report.csv"),
    "epochs": ("train", 2, "cv_report.csv"),
}


@pytest.mark.parametrize("field", [f.name for f in KNOBS])
def test_option_and_config_file_write_the_same_artifacts(
        tmp_path, small_cohort_dir, field):
    command, value, changed = OPTION_CASES[field]
    base = {"epochs": 1, "folds": 2} if command == "train" else {}

    def run(name, config, options=()):
        # one output directory for all three runs, as the config hash
        # covers out_dir
        cfg, out = tmp_path / "config.json", tmp_path / "out"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, "--in", str(small_cohort_dir), "--out",
                         str(out), "--config", str(cfg), *options]) == 0
        out.rename(tmp_path / name)
        return {str(p.relative_to(tmp_path / name)): p.read_bytes()
                for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}

    option = "--" + field.replace("_", "-")
    by_option = run("option", base, [option, str(value)])
    by_file = run("file", {**base, field: value})
    default = run("default", base)
    assert by_option == by_file
    assert set(by_option) == set(default)

    def data(text):      # past the comment line of config hash and seed
        return text.split(b"\n", 1)[1]
    assert data(by_option[changed]) != data(default[changed])


def _overflow_cohort(tmp_path, small_cohort_dir):
    # one finite left_wrist x cell so large that the filter overflows
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p000" / "joints.csv"
    header, *rows = path.read_text().splitlines()
    at = next(i for i, r in enumerate(rows) if ",left_wrist," in r)
    cells = rows[at + 10].split(",")
    cells[header.split(",").index("x")] = "1.7e308"
    rows[at + 10] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    return cohort


@pytest.mark.parametrize("command", ["preprocess", "metrics", "pipeline"])
def test_cli_filter_overflow_names_the_participant_and_joint(
        tmp_path, small_cohort_dir, capsys, command):
    cohort, out = _overflow_cohort(tmp_path, small_cohort_dir), tmp_path / "out"
    assert cli.main([command, "--in", str(cohort), "--out", str(out),
                     "--epochs", "1", "--folds", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'preprocess' failed: participant "
                          "p000: joint 'left_wrist': filter output is not "
                          "finite")
    assert not out.exists()


def test_cli_a_stream_too_short_to_filter_names_the_joint(
        tmp_path, small_cohort_dir, capsys):
    # 8 native left_shoulder rows are 4 after decimation; order 2 needs 6
    cohort, out = tmp_path / "cohort", tmp_path / "out"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p000" / "joints.csv"
    header, *rows = path.read_text().splitlines()
    shoulder = [k for k, r in enumerate(rows) if ",left_shoulder," in r]
    del rows[shoulder[8]:shoulder[-1] + 1]      # a joint's rows are a run
    path.write_text("\n".join([header, *rows]) + "\n")
    assert cli.main(["metrics", "--in", str(cohort), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: stage 'preprocess' failed: participant p000: joint "
        "'left_shoulder': 4 frames, the filter needs 6 (3 * order)\n")
    assert not out.exists()


def test_cli_train_overflow_names_the_participant(tmp_path, small_cohort_dir,
                                                   capsys):
    # train reads the gated, decimated frames, which no filter has checked
    cohort, out = _overflow_cohort(tmp_path, small_cohort_dir), tmp_path / "out"
    assert cli.main(["train", "--in", str(cohort), "--out", str(out),
                     "--epochs", "1", "--folds", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'train' failed: participant p000: "
                          "the window from frame 0 of ")
    assert err.rstrip().endswith("does not normalize to finite values")
    assert not out.exists()


def test_cli_ingest_reports_a_frame_rate_mismatch(tmp_path, small_cohort_dir,
                                                  capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    manifest = cohort / "p004" / "manifest.json"
    manifest.write_text(json.dumps(
        {**json.loads(manifest.read_text()), "native_fps": 60.0}))
    assert cli.main(["ingest", "--in", str(cohort)]) == 2
    assert ("error: stage 'validate' failed: participant p004: camera "
            "'webcam': joints at 30 Hz, manifest native_fps 60"
            in capsys.readouterr().err)


# --- the per-participant pass ------------------------------------------------

def test_directness_computed_once_per_kept_reach(monkeypatch,
                                                 small_cohort_dir):
    calls = []
    original = kinematics.directness
    monkeypatch.setattr(kinematics, "directness",
                        lambda path: calls.append(1) or original(path))
    records = pipeline.cohort_metrics(iter_sessions(small_cohort_dir),
                                      ("metrics",), PipelineConfig(), None)
    assert len(calls) == sum(r.summary.reach_count for r in records) > 0


def test_no_session_stream_is_held_while_the_age_model_trains(
        tmp_path, small_cohort_dir, monkeypatch):
    # each record keeps a summary, reach paths and wrist channels; the
    # sequences (raw, gated and filtered) are dropped participant by
    # participant. JointStream is a tuple, which gc may stop tracking.
    def sequences():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, SkeletonSequence)]

    held_before = {id(o) for o in sequences()}    # by other tests' fixtures
    seen = []
    original = agenet.cross_validate

    def watched(*args, **kwargs):
        seen.append([o.participant_id for o in sequences()
                     if id(o) not in held_before])
        return original(*args, **kwargs)

    monkeypatch.setattr(agenet, "cross_validate", watched)
    pipeline.run_pipeline(PipelineConfig(
        input_dir=str(small_cohort_dir), out_dir=str(tmp_path / "out"),
        epochs=1, folds=1))
    assert seen == [[]]


def _set_manifest(cohort, pid, **values):
    manifest = cohort / pid / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                    **values}))


# Errors come in stage order, as if each stage ran over the whole cohort
# before the next: every validation finding before any later failure, a
# gating failure before a filter failure of an earlier participant, and an
# unreadable session as it is met.
@pytest.mark.parametrize("faults, code, message", [
    ((("p000", "gate"), ("p011", "age")), 2,
     "error: stage 'validate' failed: participant p011: age 20 outside "
     "[6, 17]"),
    ((("p001", "overflow"), ("p005", "gate")), 2,
     "error: stage 'frames' failed: participant p005: joint 'left_shoulder': "
     "every frame below 0.75"),
    ((("p000", "overflow"), ("p002", "age"), ("p004", "age")), 2,
     "error: stage 'validate' failed: participant p002: age 20 outside "
     "[6, 17]; participant p004: age 20 outside [6, 17]"),
    ((("p001", "overflow"), ("p003", "overflow")), 3,
     "error: stage 'preprocess' failed: participant p001: joint "
     "'left_wrist': filter output is not finite"),
    ((("p000", "gate"), ("p007", "unparsable")), 2,
     "error: stage 'ingest' failed: {cohort}/p007/joints.csv: row 5: column "
     "'x': not a number: 'abc'"),
], ids=["finding-after-gate", "gate-after-filter", "findings-together",
        "first-filter", "parse-as-met"])
def test_the_error_of_a_cohort_with_several_faults(
        tmp_path, small_cohort_dir, capsys, faults, code, message):
    cohort, out = tmp_path / "cohort", tmp_path / "out"
    shutil.copytree(small_cohort_dir, cohort)
    for pid, fault in faults:
        path = cohort / pid / "joints.csv"
        header, *rows = path.read_text().splitlines()
        if fault == "gate":
            _lower_confidences(cohort, pid)
        elif fault == "age":
            _set_manifest(cohort, pid, age_years=20)
        elif fault == "overflow":     # as _overflow_cohort does
            at = next(i for i, r in enumerate(rows) if ",left_wrist," in r)
            cells = rows[at + 10].split(",")
            cells[header.split(",").index("x")] = "1.7e308"
            rows[at + 10] = ",".join(cells)
            path.write_text("\n".join([header, *rows]) + "\n")
        else:
            cells = rows[3].split(",")
            cells[header.split(",").index("x")] = "abc"
            rows[3] = ",".join(cells)
            path.write_text("\n".join([header, *rows]) + "\n")
    assert cli.main(["pipeline", "--in", str(cohort), "--out", str(out),
                     "--epochs", "1", "--folds", "2"]) == code
    assert capsys.readouterr().err.splitlines()[0] == message.format(
        cohort=cohort)
    assert not out.exists()


def test_cli_config_file_refuses_a_repeated_key(tmp_path, small_cohort_dir,
                                                capsys):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text('{"seed": 1, "seed": 7}')
    assert cli.main(["pipeline", "--in", str(small_cohort_dir), "--out",
                     str(out), "--config", str(cfg)]) == 4
    assert capsys.readouterr().err == \
        f"config error: cannot read config {cfg}: key 'seed' repeats\n"
    assert not out.exists()


def test_synth_loads_only_its_own_modules(tmp_path):
    # `reachkin synth` builds every benchmark workload's input, and its
    # start-up is the set-up time each workload reports
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["synth", "--n-per-bin", "1", "--duration", "10", "--out",
            str(tmp_path / "cohort")]
    probe = ("import sys\nfrom reachkin import cli\n"
             f"code = cli.main({argv!r})\n"
             "print('probe', code, sorted("
             "m for m in sys.modules if m.split('.')[0] == 'reachkin'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "probe 0 " + str([
        "reachkin", "reachkin.cli", "reachkin.errors", "reachkin.model_io",
        "reachkin.pipeline", "reachkin.synth"])
