import csv
import io
import re
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkin import cli, model_io, pipeline, reconstruct3d
from reachkin.errors import InputError, ParseError

JOINTS_3ROW = """participant_id,camera_id,frame,time_s,joint,x,y,confidence
p1,cam0,0,0.0,left_wrist,10.0,20.0,0.9
p1,cam0,1,0.03333333333333333,left_wrist,11.0,21.0,0.9
p1,cam0,2,0.06666666666666667,left_wrist,12.0,22.0,0.9
"""

TARGETS_PAIR = """participant_id,target_id,side,x_norm,y_norm,t_appear_s,t_hit_s
p1,0,left,0.2,0.4,0.0,1.5
p1,0,right,0.8,0.5,0.0,1.2
"""


def parse_target_csv(text):
    """``model_io.parse_target_csv`` of a table whose rows name p1."""
    return model_io.parse_target_csv(text, "p1")


def test_parse_joint_csv_three_rows():
    seq = model_io.parse_joint_csv(JOINTS_3ROW)
    assert len(seq.samples) == 3
    assert seq.participant_id == "p1"
    assert seq.camera_id == "cam0"
    assert list(seq.streams) == ["left_wrist"]
    assert seq.sample_rate == pytest.approx(30.0)
    assert list(seq.samples)[0].position == (10.0, 20.0)


def test_parse_joint_csv_confidence_out_of_range():
    bad = JOINTS_3ROW.replace("12.0,22.0,0.9", "12.0,22.0,1.2")
    with pytest.raises(ParseError,
                       match=r"^row 4: confidence 1\.2 outside \[0,1\]$"):
        model_io.parse_joint_csv(bad)


def test_parse_joint_csv_missing_column():
    text = JOINTS_3ROW.replace("confidence", "conf")
    with pytest.raises(ParseError, match=r"^row 1: joints: missing column\(s\) "
                                         r"\['confidence'\]$"):
        model_io.parse_joint_csv(text)


def test_parse_joint_csv_empty():
    with pytest.raises(ParseError, match="^joints: empty file$"):
        model_io.parse_joint_csv("")
    header_only = JOINTS_3ROW.splitlines()[0] + "\n"
    with pytest.raises(ParseError,
                       match="^joints file has a header but no data rows$"):
        model_io.parse_joint_csv(header_only)


def test_parse_joint_csv_non_monotonic_time():
    rows = JOINTS_3ROW.replace("2,0.06666666666666667", "2,0.01")
    with pytest.raises(ParseError, match=r"^row 4: joint 'left_wrist': time "
                                         r"0\.01 after 0\.03333333333333333 "):
        model_io.parse_joint_csv(rows)


def test_parse_joint_csv_bad_number_reports_row():
    bad = JOINTS_3ROW.replace("11.0,21.0", "oops,21.0")
    with pytest.raises(ParseError) as exc:
        model_io.parse_joint_csv(bad)
    assert exc.value.row == 3


def test_load_session_parse_error_names_the_file(sample_session, tmp_path):
    model_io.write_session(sample_session, tmp_path)
    path = tmp_path / "targets.csv"
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[2] = "up"                      # side must be left/right
    path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    with pytest.raises(ParseError) as exc:
        model_io.load_session(tmp_path)
    assert type(exc.value) is ParseError and exc.value.row == 2
    assert str(exc.value).startswith(f"{path}: row 2: side must be left/right")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_parse_joint_csv_rejects_non_finite(cell):
    bad = JOINTS_3ROW.replace("11.0,21.0", f"{cell},21.0")
    with pytest.raises(ParseError) as exc:
        model_io.parse_joint_csv(bad)
    assert exc.value.row == 3


def test_parse_target_csv_rejects_non_finite():
    text = TARGETS_PAIR.replace("0.8,0.5", "nan,0.5")
    with pytest.raises(ParseError) as exc:
        parse_target_csv(text)
    assert exc.value.row == 3


def test_parse_joint_csv_3d_schema():
    text = ("participant_id,frame,time_s,joint,x,y,z\n"
            "p1,0,0.0,left_wrist,1.0,2.0,3.0\n"
            "p1,1,0.1,left_wrist,1.5,2.5,3.5\n")
    seq = model_io.parse_joint_csv(text)
    assert seq.dims == 3
    assert list(seq.samples)[0].confidence == 1.0


def test_parse_target_csv_pair():
    log = parse_target_csv(TARGETS_PAIR)
    pairs = log.pairs()
    assert len(pairs) == 1
    left, right = pairs[0]
    assert left.side == "left" and right.side == "right"
    assert log.score == 1


def test_parse_target_csv_uncollected():
    text = TARGETS_PAIR.replace("0.0,1.2", "0.0,")
    log = parse_target_csv(text)
    assert log.score == 0
    assert not log.pairs()[0][1].collected


def test_parse_target_csv_hit_before_appear():
    text = TARGETS_PAIR.replace("0.0,1.2", "2.0,1.2")
    with pytest.raises(ParseError,
                       match=r"^row 3: t_hit 1\.2 precedes t_appear 2\.0$"):
        parse_target_csv(text)


def test_parse_target_csv_unpaired():
    text = "\n".join(TARGETS_PAIR.splitlines()[:2]) + "\n"
    with pytest.raises(ParseError, match="^target 0 missing a side$"):
        parse_target_csv(text)


def test_parse_target_csv_bad_side():
    text = TARGETS_PAIR.replace("p1,0,right", "p1,0,up")
    with pytest.raises(ParseError):
        parse_target_csv(text)


def test_parse_target_csv_rejects_a_repeated_target_side():
    # kept, the later row would silently replace the earlier one, and the
    # reach and the score would follow it
    text = TARGETS_PAIR + "p1,0,left,0.9,0.9,0.0,\n"
    message = r"^row 4: target 0 \(left\) repeats row 2$"
    with pytest.raises(ParseError, match=message) as info:
        parse_target_csv(text)
    assert info.value.row == 4


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
    from reachkin.pipeline import (
        PipelineConfig,
        preprocess_session,
        session_frames,
    )
    config = PipelineConfig()
    seq = preprocess_session(session_frames(sample_session, config), config)
    buf = io.StringIO()
    model_io.write_joint_csv(seq, buf)
    back = model_io.parse_joint_csv(buf.getvalue())
    assert list(back.samples) == list(seq.samples)


def test_target_roundtrip_identity(sample_session):
    buf = io.StringIO()
    model_io.write_target_csv(sample_session.participant_id,
                              sample_session.targets, buf)
    back = model_io.parse_target_csv(buf.getvalue(),
                                     sample_session.participant_id)
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
    with pytest.raises(ParseError, match="^manifest: missing key 'age_years'$"):
        model_io.parse_manifest('{"participant_id": "p1"}')
    with pytest.raises(ParseError):
        model_io.parse_manifest("{not json")


def test_manifest_rejects_a_repeated_key(sample_session):
    # json.load alone keeps the last value, which moved the participant to
    # the group of the later age
    buf = io.StringIO()
    model_io.write_manifest(sample_session.manifest, buf)
    text = buf.getvalue().replace('"age_years": ',
                                  '"age_years": 8, "age_years": ')
    message = "^manifest: key 'age_years' repeats$"
    with pytest.raises(ParseError, match=message):
        model_io.parse_manifest(text)


@pytest.mark.parametrize("key, value", [
    ("play_area_px", "[NaN, 720]"), ("play_area_px", "[990, -720]"),
    ("play_area_px", "[990]"), ("native_fps", "Infinity"),
    ("native_fps", '"30"'), ("age_years", '"abc"'), ("age_years", "[8]"),
    ("age_years", "8.5"), ("score", "true"), ("camera_ids", '"webcam"'),
    ("camera_ids", "[1]"), ("participant_id", "null"),
    ("participant_id", "[1, 2]"), ("participant_id", '""'),
    ("participant_id", '"../../escaped"'),
    ("participant_id", '".reachkin-staging"'), ("participant_id", '"a\\\\b"'),
    ("participant_id", '"a\\u0000b"'), ("participant_id", '"a\\tb"')])
def test_manifest_rejects_ill_typed_values(key, value):
    fields = {"participant_id": '"p1"', "age_years": "8",
              "play_area_px": "[990, 720]", "native_fps": "30.0",
              "camera_ids": '["webcam"]', key: value}
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    with pytest.raises(ParseError, match=key):
        model_io.parse_manifest(text)


def test_session_directory_roundtrip(tmp_path, sample_session):
    model_io.write_session(sample_session, tmp_path / "p011")
    back = model_io.load_session(tmp_path / "p011")
    assert back.participant_id == sample_session.participant_id
    assert back.age == sample_session.age
    assert back.score == sample_session.score
    assert back.targets.events == sample_session.targets.events
    assert list(back.skeletons[0].samples) == \
        list(sample_session.skeletons[0].samples)


def test_load_cohort(small_cohort_dir):
    cohort = model_io.load_cohort(small_cohort_dir)
    assert len(cohort.sessions) == 12
    for s in cohort.sessions:   # every age falls in a bin
        assert any(lo <= s.age <= hi for lo, hi in model_io.AGE_BINS)


def test_load_cohort_empty_dir(tmp_path):
    with pytest.raises(InputError):
        model_io.load_cohort(tmp_path)


def test_load_session_checks_manifest_camera_ids(tmp_path, sample_session):
    from dataclasses import replace
    for cams in (("cam1",), ("webcam", "cam2"), ()):
        manifest = replace(sample_session.manifest, camera_ids=cams)
        directory = tmp_path / ("-".join(cams) or "none")
        model_io.write_session(replace(sample_session, manifest=manifest),
                               str(directory))
        message = (f"{directory}: manifest camera ids {list(cams)} are not "
                   "those of its joint files, ['webcam']")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            model_io.load_session(str(directory))


@pytest.mark.parametrize("column, value", [(0, "p2"), (1, "cam1")])
def test_parse_joint_csv_rejects_a_row_of_another_session(column, value):
    lines = JOINTS_3ROW.splitlines()
    cells = lines[3].split(",")
    cells[column] = value
    text = "\n".join(lines[:3] + [",".join(cells)]) + "\n"
    with pytest.raises(ParseError, match=r"^row 4: column '\w+': "
                       f"'{value}' differs from the first row's"):
        model_io.parse_joint_csv(text)


def test_parse_target_csv_rejects_a_row_of_another_participant():
    text = TARGETS_PAIR.replace("p1,0,right", "p2,0,right")
    with pytest.raises(ParseError, match=r"^row 3: participant_id 'p2' is not "
                                         r"the session's 'p1'$"):
        parse_target_csv(text)


def test_targets_of_another_participant_stop_the_metrics(tmp_path, capsys,
                                                         small_cohort_dir):
    # every p000 targets row names someone else: metrics.csv was written
    # unchanged, from targets the manifest does not vouch for
    cohort = tmp_path / "cohort"
    shutil.copytree(small_cohort_dir, cohort)
    path = cohort / "p000" / "targets.csv"
    path.write_text(path.read_text().replace("p000,", "someone_else,"))
    assert cli.main(["metrics", "--in", str(cohort),
                     "--out", str(tmp_path / "out")]) == 2
    message = (f"{path}: row 2: participant_id 'someone_else' is not the "
               "session's 'p000'")
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_session_checks_manifest_participant_id(tmp_path,
                                                     sample_session):
    from dataclasses import replace
    manifest = replace(sample_session.manifest, participant_id="p012")
    model_io.write_session(replace(sample_session, manifest=manifest),
                           str(tmp_path))
    message = (f"{tmp_path}: joint files name participant(s) ['p011'], "
               "not 'p012'")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        model_io.load_session(str(tmp_path))


def test_validate_clean_session(sample_session):
    assert model_io.validate_session(sample_session) == ()


def test_validate_score_mismatch(sample_session):
    from dataclasses import replace
    bad = replace(sample_session, manifest=replace(
        sample_session.manifest, score=sample_session.score + 1))
    assert model_io.validate_session(bad) == (
        f"manifest score {bad.score} != {bad.targets.score} collected pairs",)


def test_validate_missing_joint(sample_session):
    from dataclasses import replace
    seq = sample_session.skeleton()
    stripped = replace(seq, streams={j: s for j, s in seq.streams.items()
                                     if j != "right_wrist"})
    bad = replace(sample_session, skeletons=(stripped,))
    assert model_io.validate_session(bad) == (
        f"camera {seq.camera_id!r}: joint 'right_wrist' absent",)


def test_validate_age_out_of_range(sample_session):
    from dataclasses import replace
    bad = replace(sample_session,
                  manifest=replace(sample_session.manifest, age_years=42))
    assert model_io.validate_session(bad) == ("age 42 outside [6, 17]",)


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
    assert list(back.samples)[0].position[0] == v
    assert list(back.samples)[1].time == v


@pytest.mark.parametrize("parse, line, expected", [
    # x written with a decimal comma
    (model_io.parse_joint_csv, "p1,cam0,1,0.1,left_wrist,1,5,0.5,0.9",
     "row 3: expected 8 fields, got 9"),
    (model_io.parse_joint_csv, "p1,cam0,1,0.1,left_wrist,11.0,21.0",
     "row 3: expected 8 fields, got 7"),
    (parse_target_csv, "p1,0,right,0.8,0.5,0.0,1.2,junk",
     "row 3: expected 7 fields, got 8")])
def test_a_row_with_another_field_count_is_rejected(parse, line, expected):
    text = JOINTS_3ROW if parse is model_io.parse_joint_csv else TARGETS_PAIR
    lines = text.splitlines()
    lines[2] = line
    with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
        parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("old, new, expected", [
    ("p1,cam0,1,", "p1,cam0,0.7,",
     "row 3: column 'frame': not an integer in int64 range: 0.7"),
    ("p1,cam0,2,", "p1,cam0,1e19,",
     "row 4: column 'frame': not an integer in int64 range: 1e+19"),
    ("p1,cam0,2,", "p1,cam0,1,",
     "row 4: joint 'left_wrist': frame 1 repeats row 3")])
def test_parse_joint_csv_rejects_fractional_and_repeated_frames(old, new,
                                                                expected):
    with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
        model_io.parse_joint_csv(JOINTS_3ROW.replace(old, new))


def test_parse_target_csv_rejects_a_fractional_target_id():
    text = TARGETS_PAIR.replace("p1,0,right", "p1,1.9,right")
    expected = "row 3: column 'target_id': not an integer in int64 range: 1.9"
    with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
        parse_target_csv(text)


def reconstructed_joints(tmp_path):
    """The joints_3d.csv `reachkin reconstruct` writes for a stereo session."""
    from test_reconstruct3d import (reconstruct, scene_points, stereo_rig,
                                    write_stereo_session)
    cams = stereo_rig()
    write_stereo_session(tmp_path / "in", "p000", cams, scene_points(40))
    assert reconstruct(tmp_path, cams) == 0
    return tmp_path / "out" / "p000" / "joints_3d.csv"


def test_written_joint_files_take_the_column_path(monkeypatch, tmp_path,
                                                  small_cohort_dir):
    # every table reachkin writes is split by _split, never csv-read
    def refuse(text, top):
        raise AssertionError("the csv reader was called")
    monkeypatch.setattr(model_io, "_csv_table", refuse)
    cohort = model_io.load_cohort(small_cohort_dir)
    out = tmp_path / "clean"
    for command in ("preprocess", "metrics"):
        assert cli.main([command, "--in", str(small_cohort_dir),
                         "--out", str(out)]) == 0
    for path in [*sorted(out.glob("*/joints_clean.csv")),
                 reconstructed_joints(tmp_path)]:
        model_io.parse_joint_csv(path.read_text())
    assert len(pipeline.read_metrics(out / "metrics.csv")) == \
        len(cohort.sessions)


def test_written_joint_files_round_trip_byte_for_byte(tmp_path,
                                                      small_cohort_dir):
    for path in (small_cohort_dir / "p000" / "joints.csv",
                 reconstructed_joints(tmp_path)):
        text = path.read_text()
        buf = io.StringIO()
        model_io.write_joint_csv(model_io.parse_joint_csv(text), buf)
        assert buf.getvalue() == text


JOINTS_3D = """participant_id,frame,time_s,joint,x,y,z
p1,0,0.0,left_wrist,0.5,1.5,4.0
p1,1,0.1,left_wrist,0.25,1.0,4.5
p1,0,0.0,right_wrist,-0.5,1.25,4.0
p1,1,0.1,right_wrist,-0.75,1.0,3.5
"""

JOINTS_2D = JOINTS_3ROW + """\
p1,cam0,0,0.0,right_wrist,30.0,20.0,0.5
p1,cam0,1,0.03333333333333333,right_wrist,31.0,21.0,1.0
"""

TARGETS_2PAIRS = TARGETS_PAIR + """\
p1,1,left,0.3,0.6,2.0,3.5
p1,1,right,0.7,0.6,2.0,
"""

MUTATIONS = ("abc", "nan", "inf", "-Infinity", "1_000", "pad", "", "extra",
             "missing", "quoted", "quote", "blank", "0.5", "repeat", "other",
             "1.5", "-0.1", "\r")


def mutate(text, row, column, kind):
    """text with one cell (of data row ``row``) or line changed by ``kind``."""
    lines = text.splitlines()
    row = 1 + row % (len(lines) - 1)
    cells = lines[row].split(",")
    column %= len(cells)
    cell = cells[column]
    if kind == "blank":
        lines.insert(row, " " * column)
    elif kind == "missing":
        del cells[column]
    elif kind == "extra":
        cells.insert(column, "1")
    else:
        cells[column] = {
            "pad": f" {cell} ", "quoted": f'"{cell}"', "quote": f'"{cell}',
            "repeat": lines[row - 1].split(",")[column],
            "other": cell + "x"}.get(kind, kind)
    if kind != "blank":
        lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """What ``parse`` makes of text: its value, or its error with the row."""
    try:
        seq = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.row
    if not isinstance(seq, model_io.SkeletonSequence):
        return seq
    return (seq.participant_id, seq.camera_id, seq.sample_rate,
            {joint: [(a.dtype.str, a.shape, a.tolist()) for a in s]
             for joint, s in seq.streams.items()})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([JOINTS_2D, JOINTS_3D]), st.integers(0, 99),
       st.integers(0, 99), st.sampled_from(MUTATIONS))
def test_column_path_matches_the_row_reader(text, row, column, kind):
    text = mutate(text, row, column, kind)
    with mock.patch.object(model_io, "_BLOCK", 1):   # every line a block
        got = outcome(model_io.parse_joint_csv, text)
    with mock.patch.object(model_io, "_split", lambda text, top: None), \
            mock.patch.object(model_io, "_csv_table",
                              wraps=model_io._csv_table) as row_reader:
        assert got == outcome(model_io.parse_joint_csv, text)
    assert row_reader.called


@pytest.mark.parametrize("line, expected", [
    ("p1,cam0,0,0.0,right_wrist,30.0,20.0,0.5,1",
     "row 5: expected 8 fields, got 9"),
    ('p1,cam0,0,0.0,"right_wrist,30.0",20.0,0.5',
     "row 5: expected 8 fields, got 7")], ids=["ragged", "quoted"])
def test_a_later_blocks_line_sends_the_table_to_the_row_reader(line,
                                                               expected):
    # a bad number in the first block does not hide a ragged or quoted
    # line in a later one: the csv reader reads the table and its error wins
    lines = JOINTS_2D.replace(",10.0,", ",abc,").splitlines()
    lines[4] = line
    text = "\n".join(lines) + "\n"
    with mock.patch.object(model_io, "_BLOCK", 1):
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            model_io.parse_joint_csv(text)
    with mock.patch.object(model_io, "_split", lambda text, top: None):
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            model_io.parse_joint_csv(text)


def joints_text(frames, joints):
    """A 2D joints file of ``joints`` streams of ``frames`` rows, in the
    row order and float text ``write_joint_csv`` writes."""
    rng = np.random.default_rng(0)
    lines = [",".join(model_io.JOINTS_2D_HEADER)]
    for j in range(joints):
        for f, (x, y, c) in enumerate(rng.random((frames, 3)).tolist()):
            lines.append(f"p000,cam0,{f},{f / 60!r},joint_{j:02d},"
                         f"{640 * x!r},{480 * y!r},{c!r}")
    return "\n".join(lines) + "\n"


class CharCount:
    """A text sink that keeps only the number of characters written."""
    chars = 0

    def write(self, text):
        self.chars += len(text)


def traced_peak(call, *args):
    """The result of ``call(*args)`` and the most memory traced above the
    start of the call while it ran."""
    import tracemalloc
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_a_joints_file_is_parsed_a_block_at_a_time():
    # the text plus its arrays, never a string per cell (8.8x the text at a
    # whole-file split)
    text = joints_text(3000, 12)
    seq, peak = traced_peak(model_io.parse_joint_csv, text)
    assert len(seq.samples) == 36000
    assert peak < 2 * len(text)


def test_a_joints_file_is_written_a_block_at_a_time():
    # a write per block of rows, never the whole text joined (9 MiB here)
    text = joints_text(3000, 12)
    seq, sink = model_io.parse_joint_csv(text), CharCount()
    _, peak = traced_peak(model_io.write_joint_csv, seq, sink)
    assert sink.chars == len(text)
    assert peak < 2**20


CALIBRATION = ("camera_id,fx,fy,cx,cy,r11,r12,r13,r21,r22,r23,r31,r32,r33,"
               "t1,t2,t3\n"
               "cam1,800.0,800.0,320.0,240.0,1,0,0,0,1,0,0,0,1,0,0,0\n"
               "cam2,800.0,810.0,320.0,240.0,0,0,1,0,1,0,-1,0,0,-4,0,4\n"
               "cam3,700.0,700.0,300.0,200.0,,,,,,,,,,,,\n")

METRICS = ("participant_id,age,group,median_directness,median_max_speed,"
           "reach_count\n"
           "p000,7,6-10,0.4,3.5,48\np001,12,11-13,0.6,3.1,50\n"
           "p002,15,14-17,0.8,2.9,40\n")


def parse_metrics_artifact(text):
    """A metrics table as ``metrics.csv`` holds it, under a comment line."""
    return pipeline._parse_metrics("# reachkin config_hash=0 seed=0\n" + text)


def with_column_again(text, column):
    """text with a last column that repeats ``column``, its header too."""
    lines = text.splitlines()
    k = lines[0].split(",").index(column)
    return "".join(f"{line},{line.split(',')[k]}\n" for line in lines)


@pytest.mark.parametrize("parse, text, column, expected", [
    (model_io.parse_joint_csv, JOINTS_2D, "x", "row 1: joints: column 'x'"),
    # a quoted cell: the csv reader's path
    (model_io.parse_joint_csv, JOINTS_2D.replace(",cam0,", ',"cam0",'), "x",
     "row 1: joints: column 'x'"),
    (parse_target_csv, TARGETS_2PAIRS, "x_norm",
     "row 1: targets: column 'x_norm'"),
    (reconstruct3d._parse_calibration, CALIBRATION, "fx",
     "row 1: calibration: column 'fx'"),
    (parse_metrics_artifact, METRICS, "age", "row 2: metrics: column 'age'")],
    ids=["joints", "joints-quoted", "targets", "calibration", "metrics"])
def test_a_header_naming_a_column_twice_is_refused(parse, text, column,
                                                   expected):
    with pytest.raises(ParseError, match=f"^{re.escape(expected)} repeats$"):
        parse(with_column_again(text, column))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([(parse_target_csv, TARGETS_2PAIRS),
                        (reconstruct3d._parse_calibration, CALIBRATION),
                        (parse_metrics_artifact, METRICS)]),
       st.integers(0, 99), st.integers(0, 99), st.sampled_from(MUTATIONS))
def test_target_mutations_parse_or_raise_a_parse_error(table, row, column,
                                                       kind):
    # targets, calibration and metrics tables: a value or a ParseError
    parse, text = table
    outcome(parse, mutate(text, row, column, kind))


def test_a_carriage_return_in_a_cell_is_a_parse_error():
    text = TARGETS_PAIR.replace("p1,0,right", "p1,0\r1,right")
    with pytest.raises(ParseError, match="^row 3: not csv: ") as info:
        parse_target_csv(text)
    assert info.value.row == 3


@pytest.mark.parametrize("is_3d", [False, True])
def test_write_joint_csv_quotes_names_as_csv_writer_does(is_3d):
    stream = model_io.JointStream(
        np.array([0, 1]), np.array([0.0, 0.1]),
        np.array([(0.1 + 0.2, 1.0 / 3.0, 4.0)[:3 if is_3d else 2],
                  (2.0, -1e-7, 5.5)[:3 if is_3d else 2]]),
        np.array([1.0, 1.0]) if is_3d else np.array([0.5, 0.25]))
    seq = model_io.SkeletonSequence(
        "p,1", "" if is_3d else 'cam "0"', 30.0,
        {name: stream for name in ("a,b", 'say "hi"', "", "plain")})
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(model_io.JOINTS_3D_HEADER if is_3d
                    else model_io.JOINTS_2D_HEADER)
    for s in seq.samples:
        writer.writerow([seq.participant_id,
                         *([] if is_3d else [seq.camera_id]),
                         s.frame_index, repr(s.time), s.joint,
                         *map(repr, s.position),
                         *([] if is_3d else [repr(s.confidence)])])
    buf = io.StringIO()
    model_io.write_joint_csv(seq, buf)
    assert buf.getvalue() == expected.getvalue()
    back = model_io.parse_joint_csv(buf.getvalue())
    assert list(back.samples) == list(seq.samples)
