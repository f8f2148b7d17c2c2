import io

import numpy as np
import pytest

from reachkin import model_io
from reachkin.errors import (
    ConfidenceOutOfRange,
    EmptyFile,
    HitBeforeAppear,
    InputError,
    MissingColumn,
    NonMonotonicTime,
    ParseError,
    UnpairedTarget,
)

JOINTS_3ROW = """participant_id,camera_id,frame,time_s,joint,x,y,confidence
p1,cam0,0,0.0,left_wrist,10.0,20.0,0.9
p1,cam0,1,0.03333333333333333,left_wrist,11.0,21.0,0.9
p1,cam0,2,0.06666666666666667,left_wrist,12.0,22.0,0.9
"""

TARGETS_PAIR = """participant_id,target_id,side,x_norm,y_norm,t_appear_s,t_hit_s
p1,0,left,0.2,0.4,0.0,1.5
p1,0,right,0.8,0.5,0.0,1.2
"""


def test_parse_joint_csv_three_rows():
    seq = model_io.parse_joint_csv(JOINTS_3ROW)
    assert len(seq.samples) == 3
    assert seq.participant_id == "p1"
    assert seq.camera_id == "cam0"
    assert seq.joints == ("left_wrist",)
    assert seq.sample_rate == pytest.approx(30.0)
    assert seq.samples[0].position == (10.0, 20.0)


def test_parse_joint_csv_confidence_out_of_range():
    bad = JOINTS_3ROW.replace("12.0,22.0,0.9", "12.0,22.0,1.2")
    with pytest.raises(ConfidenceOutOfRange):
        model_io.parse_joint_csv(bad)


def test_parse_joint_csv_missing_column():
    text = JOINTS_3ROW.replace("confidence", "conf")
    with pytest.raises(MissingColumn):
        model_io.parse_joint_csv(text)


def test_parse_joint_csv_empty():
    with pytest.raises(EmptyFile):
        model_io.parse_joint_csv("")
    header_only = JOINTS_3ROW.splitlines()[0] + "\n"
    with pytest.raises(EmptyFile):
        model_io.parse_joint_csv(header_only)


def test_parse_joint_csv_non_monotonic_time():
    rows = JOINTS_3ROW.replace("2,0.06666666666666667", "2,0.01")
    with pytest.raises(NonMonotonicTime):
        model_io.parse_joint_csv(rows)


def test_parse_joint_csv_bad_number_reports_row():
    bad = JOINTS_3ROW.replace("11.0,21.0", "oops,21.0")
    with pytest.raises(ParseError) as exc:
        model_io.parse_joint_csv(bad)
    assert exc.value.row == 3


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_parse_joint_csv_rejects_non_finite(cell):
    bad = JOINTS_3ROW.replace("11.0,21.0", f"{cell},21.0")
    with pytest.raises(ParseError) as exc:
        model_io.parse_joint_csv(bad)
    assert exc.value.row == 3


def test_parse_target_csv_rejects_non_finite():
    text = TARGETS_PAIR.replace("0.8,0.5", "nan,0.5")
    with pytest.raises(ParseError) as exc:
        model_io.parse_target_csv(text)
    assert exc.value.row == 3


def test_parse_joint_csv_3d_schema():
    text = ("participant_id,frame,time_s,joint,x,y,z\n"
            "p1,0,0.0,left_wrist,1.0,2.0,3.0\n"
            "p1,1,0.1,left_wrist,1.5,2.5,3.5\n")
    seq = model_io.parse_joint_csv(text)
    assert seq.dims == 3
    assert seq.samples[0].confidence == 1.0


def test_parse_target_csv_pair():
    log = model_io.parse_target_csv(TARGETS_PAIR)
    pairs = log.pairs()
    assert len(pairs) == 1
    left, right = pairs[0]
    assert left.side == "left" and right.side == "right"
    assert log.score == 1


def test_parse_target_csv_uncollected():
    text = TARGETS_PAIR.replace("0.0,1.2", "0.0,")
    log = model_io.parse_target_csv(text)
    assert log.score == 0
    assert not log.pairs()[0][1].collected


def test_parse_target_csv_hit_before_appear():
    text = TARGETS_PAIR.replace("0.0,1.2", "2.0,1.2")
    with pytest.raises((HitBeforeAppear, UnpairedTarget)):
        model_io.parse_target_csv(text)


def test_parse_target_csv_unpaired():
    text = "\n".join(TARGETS_PAIR.splitlines()[:2]) + "\n"
    with pytest.raises(UnpairedTarget):
        model_io.parse_target_csv(text)


def test_parse_target_csv_bad_side():
    text = TARGETS_PAIR.replace("p1,0,right", "p1,0,up")
    with pytest.raises(ParseError):
        model_io.parse_target_csv(text)


def test_joint_roundtrip_identity(sample_session):
    seq = sample_session.skeleton()
    buf = io.StringIO()
    model_io.write_joint_csv(seq, buf)
    back = model_io.parse_joint_csv(buf.getvalue())
    assert back.participant_id == seq.participant_id
    assert back.camera_id == seq.camera_id
    assert len(back.samples) == len(seq.samples)
    for a, b in zip(back.samples, seq.samples):
        assert a == b


def test_preprocessed_stream_parses_back(sample_session):
    from reachkin.pipeline import PipelineConfig, preprocess_session
    seq = preprocess_session(sample_session, PipelineConfig())
    buf = io.StringIO()
    model_io.write_joint_csv(seq, buf)
    back = model_io.parse_joint_csv(buf.getvalue())
    assert back.samples == seq.samples


def test_target_roundtrip_identity(sample_session):
    buf = io.StringIO()
    model_io.write_target_csv(sample_session.participant_id,
                              sample_session.targets, buf)
    back = model_io.parse_target_csv(buf.getvalue())
    assert back.events == sample_session.targets.events


def test_synthetic_session_pairs_all_have_hits(sample_session):
    # every pair except possibly the ones cut off at the session end is hit
    pairs = sample_session.targets.pairs()
    assert len(pairs) >= 2
    complete = [p for p in pairs if p[0].collected and p[1].collected]
    assert len(complete) == sample_session.score


def test_manifest_roundtrip(sample_session):
    buf = io.StringIO()
    model_io.write_manifest(sample_session.manifest, buf)
    back = model_io.parse_manifest(buf.getvalue())
    assert back == sample_session.manifest


def test_manifest_missing_key():
    with pytest.raises(MissingColumn):
        model_io.parse_manifest('{"participant_id": "p1"}')
    with pytest.raises(ParseError):
        model_io.parse_manifest("{not json")


def test_session_directory_roundtrip(tmp_path, sample_session):
    model_io.write_session(sample_session, tmp_path / "p011")
    back = model_io.load_session(tmp_path / "p011")
    assert back.participant_id == sample_session.participant_id
    assert back.age == sample_session.age
    assert back.score == sample_session.score
    assert back.targets.events == sample_session.targets.events
    assert back.skeletons[0].samples == sample_session.skeletons[0].samples


def test_load_cohort(small_cohort_dir):
    cohort = model_io.load_cohort(small_cohort_dir, synth_bins())
    assert len(cohort.sessions) == 12
    for s in cohort.sessions:
        cohort.bin_of(s.age)   # every age falls in a bin
    with pytest.raises(InputError):
        cohort.bin_of(42)


def synth_bins():
    from reachkin.synth import DEFAULT_BINS
    return DEFAULT_BINS


def test_load_cohort_empty_dir(tmp_path):
    with pytest.raises(InputError):
        model_io.load_cohort(tmp_path, synth_bins())


def test_validate_clean_session(sample_session):
    report = model_io.validate_session(sample_session)
    assert report.ok
    assert report.findings == ()


def test_validate_score_mismatch(sample_session):
    from dataclasses import replace
    bad = replace(sample_session, score=sample_session.score + 1)
    report = model_io.validate_session(bad)
    assert any(f.code == "ScoreMismatch" for f in report.findings)


def test_validate_missing_joint(sample_session):
    from dataclasses import replace
    seq = sample_session.skeleton()
    stripped = replace(seq, streams={j: s for j, s in seq.streams.items()
                                     if j != "right_wrist"})
    bad = replace(sample_session, skeletons=(stripped,))
    report = model_io.validate_session(bad)
    assert any(f.code == "MissingJoint" and "right_wrist" in f.message
               for f in report.findings)


def test_validate_age_out_of_range(sample_session):
    from dataclasses import replace
    bad = replace(sample_session, age=42)
    report = model_io.validate_session(bad)
    assert any(f.code == "AgeOutOfRange" for f in report.findings)


def test_joint_arrays_missing_joint(sample_session):
    with pytest.raises(InputError):
        sample_session.skeleton().joint_arrays("left_elbow")


def test_full_precision_float_rendering():
    # parse(serialize(v)) == v for awkward doubles
    v = 0.1 + 0.2
    seq = model_io.SkeletonSequence("p", "c", 30.0, {
        "left_wrist": model_io.JointStream(
            np.array([0, 1]), np.array([0.0, v]),
            np.array([(v, 1.0 / 3.0), (2.0, 3.0)]), np.array([0.9, 1.0]))})
    buf = io.StringIO()
    model_io.write_joint_csv(seq, buf)
    back = model_io.parse_joint_csv(buf.getvalue())
    assert back.samples[0].position[0] == v
    assert back.samples[1].time == v
