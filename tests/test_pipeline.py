import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from reachkin import cli, pipeline, stats
from reachkin.errors import ConfigError, InputError
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
    back = PipelineConfig.from_dict(config.to_dict())
    assert back == config
    assert back.config_hash == config.config_hash


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"seed": 1, "cutoff": 6.0})


def test_config_validates_ranges():
    with pytest.raises(ConfigError):
        PipelineConfig(decimation=0)
    with pytest.raises(ConfigError):
        PipelineConfig(split=1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(folds=0)


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
    path.write_text("{bad")
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


def test_metrics_round_trip(tmp_path, sample_session):
    config = PipelineConfig()
    summary, segments = pipeline.analyze_session(sample_session, config)
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
    summary, segments = pipeline.analyze_session(sample_session,
                                                 PipelineConfig())
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


def test_run_stats_structure(small_cohort_dir):
    cohort = pipeline.load_cohort(small_cohort_dir, PipelineConfig().bins)
    summaries, _ = pipeline.cohort_metrics(cohort, PipelineConfig())
    results = pipeline.run_stats(summaries, PipelineConfig())
    assert set(results) == {"directness", "max_speed"}
    for anova, tukey in results.values():
        assert isinstance(anova, stats.AnovaResult)
        assert anova.df_between == 2
        assert len(tukey.comparisons) == 3
        assert 0.0 <= anova.p <= 1.0


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
    cfg.write_text(json.dumps({"split": 2.0}))
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


def test_cli_import_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, reachkin.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_synth_writes_cohort(tmp_path, capsys):
    out = tmp_path / "cohort"
    assert cli.main(["synth", "--n-per-bin", "1", "--seed", "3",
                     "--duration", "10", "--out", str(out)]) == 0
    dirs = [d for d in os.listdir(out) if (out / d).is_dir()]
    assert len(dirs) == 4
    assert (out / "ground_truth.csv").is_file()


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
