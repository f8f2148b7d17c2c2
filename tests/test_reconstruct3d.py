import gc
import io
import time

import numpy as np
import pytest
from blas_settings import same_bytes_under_each_blas

from reachkin import cli
from reachkin import reconstruct3d as r3d
from reachkin.errors import InputError, NumericalError, ParseError
from reachkin.model_io import (
    JointStream,
    ParticipantSession,
    SessionManifest,
    SkeletonSequence,
    TargetEvent,
    TargetLog,
    parse_joint_csv,
    write_joint_csv,
    write_session,
)

INTR = r3d.Intrinsics(800.0, 800.0, 320.0, 240.0)


def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def look_at(position, up=(0.0, 1.0, 0.0)):
    """Camera at ``position`` whose optical axis points at the origin."""
    pos = np.asarray(position, dtype=float)
    z = -pos / np.linalg.norm(pos)
    x = np.cross(np.asarray(up, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.vstack([x, y, z])
    return R, -R @ pos


def stereo_rig(baseline=1.0, toe_in=0.3):
    cam1 = r3d.make_camera("cam1", INTR)
    R = rodrigues([0, 1, 0], -toe_in)
    t = -R @ np.array([baseline, 0.0, 0.0])
    cam2 = r3d.make_camera("cam2", INTR, R, t)
    return cam1, cam2


def scene_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                            rng.uniform(3, 6, n)])


# --- camera model ------------------------------------------------------------

def test_project_single_and_batch():
    cam1, _ = stereo_rig()
    pts = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
    many = cam1.project(pts)
    assert many.shape == (2, 2)
    assert np.allclose(many[0], (320.0, 240.0))   # on-axis -> principal point
    assert np.allclose(many[1], (320.0 + 800.0 / 2.0, 240.0))
    one = cam1.project(pts[1:])   # a single point is a batch of one
    assert one.shape == (1, 2) and np.array_equal(one[0], many[1])


def test_camera_rejects_non_rotation():
    with pytest.raises(ValueError):
        r3d.make_camera("bad", INTR, R=2.0 * np.eye(3))
    with pytest.raises(ValueError):
        r3d.Intrinsics(-1.0, 800.0, 0.0, 0.0)


def test_look_at_cameras_center_the_origin():
    for pos in ([0.0, 0.0, -4.0], [2.0, 1.0, -3.5], [-2.5, 0.5, -3.0]):
        R, t = look_at(pos)
        cam = r3d.make_camera("c", INTR, R, t)
        assert np.allclose(cam.project(np.zeros((1, 3))), (320.0, 240.0))


# --- triangulation -----------------------------------------------------------

def test_triangulate_verged_pair_hits_origin():
    Ra, ta = look_at([1.5, 0.2, -4.0])
    Rb, tb = look_at([-1.5, -0.1, -4.0])
    cama = r3d.make_camera("a", INTR, Ra, ta)
    camb = r3d.make_camera("b", INTR, Rb, tb)
    centre = np.array([[320.0, 240.0]])
    X, rms = r3d.triangulate(centre, centre, cama, camb)
    assert np.allclose(X, 0.0, atol=1e-9)
    assert rms[0] < 1e-9


def test_triangulation_error_scales_linearly_with_noise():
    cam1, cam2 = stereo_rig()
    pts = scene_points(60, seed=5)
    rng = np.random.default_rng(6)
    medians = []
    for sigma in (0.5, 1.0, 2.0):
        noise = rng.normal(0, sigma, (len(pts), 2, 2))   # per point: cam1, cam2
        Xh, _ = r3d.triangulate(cam1.project(pts) + noise[:, 0],
                                cam2.project(pts) + noise[:, 1], cam1, cam2)
        medians.append(np.median(np.linalg.norm(Xh - pts, axis=1)))
    assert 1.5 < medians[1] / medians[0] < 2.7
    assert 1.5 < medians[2] / medians[1] < 2.7


def test_triangulation_translation_equivariance():
    cam1, cam2 = stereo_rig()
    shift = np.array([0.3, -0.2, 0.5])
    X = scene_points(10, seed=8)
    Xa, _ = r3d.triangulate(cam1.project(X), cam2.project(X), cam1, cam2)
    Xb, _ = r3d.triangulate(cam1.project(X + shift),
                            cam2.project(X + shift), cam1, cam2)
    assert np.allclose(Xb - Xa, shift, atol=1e-9)


# Per-point Gauss-Newton results (X, rms) for noisy_pairs() points, recorded
# one point at a time. From the cross-product ray-midpoint start they span 2
# to 7 iterations, steps with and without halvings, and refinements that stop
# when no halving lowers the cost (points 2, 4, 44, 440). Such a stop leaves a
# point within a few 1e-9 of the exact minimizer, so a new start moves these
# records by that much; each is within 1.2e-9 of the minimizer.
PER_POINT_REFERENCE = {
    0: (-0.7449131079005762, -0.26169483018133555, 3.8914651605966712,
        0.3001567291060313),
    1: (0.004384244424040068, 0.31154302030793296, 3.634380391151984,
        0.5629466136727841),
    2: (0.20022383496257504, 0.9641310692216529, 5.385940489451361,
        0.7368126747710729),
    4: (-0.7190690589543234, -0.5716812967385554, 3.066925559589166,
        1.1835517799331836),
    5: (0.8579330923724986, -0.8661013588151295, 4.635784545858693,
        1.337567493899632),
    10: (-0.2673108393551943, -0.4968764954145921, 4.667841957380978,
         2.14600442786885),
    12: (0.32579040011698707, 0.20974670145682023, 4.7655808247014235,
         1.1882457471754593),
    35: (-0.7021473972168498, -0.6070279563285012, 5.274390572668056,
         1.3016540956113416),
    37: (-0.545006255863115, -0.00804733240208094, 5.392231756409057,
         1.2159482598202935),
    40: (-0.925396215136705, 0.28736857081139455, 5.953357128830707,
         0.0016091666750315992),
    44: (0.8037779553985727, -0.6206634369950105, 3.6698777310288717,
         1.6458407967139441),
    137: (-0.8987162896865203, 1.01549999076741, 5.088908091653014,
          1.4012844308596801),
    180: (-0.3337856071928844, 0.784282701211911, 3.2387549175000405,
          2.631038389340532),
    195: (0.6075404262665045, 0.6101757647928867, 3.891782317556801,
          0.00466714156944323),
    205: (0.7082126810062987, 0.5817463700724539, 5.715796313991582,
          2.084688900631364),
    224: (-0.5760522094486485, 0.2313916634185681, 5.9691134263758565,
          0.0028928092131359725),
    308: (0.29526863025786604, -0.7487773814715115, 5.853250342014449,
          1.5229759565890295),
    310: (-0.9441498447353877, -0.10411225606528904, 4.486838150660593,
          1.572626027968968),
    440: (0.9107540035163953, 0.676177626743901, 4.686662301776967,
          1.6097141464618565),
    1515: (-0.5826749653115925, -0.7694218417184264, 4.948511165438115,
           2.4756974516836046),
}


def noisy_pairs(sigma, n=2000, seed=0):
    cam1, cam2 = stereo_rig()
    pts = scene_points(n, seed=11)
    rng = np.random.default_rng(seed)
    return (cam1.project(pts) + rng.normal(0, sigma, (n, 2)),
            cam2.project(pts) + rng.normal(0, sigma, (n, 2)))


def test_batch_matches_per_point_reference():
    cam1, cam2 = stereo_rig()
    px1, px2 = noisy_pairs(2.0)
    idx = sorted(PER_POINT_REFERENCE)
    ref = np.array([PER_POINT_REFERENCE[i] for i in idx])
    X, rms = r3d.triangulate(px1[idx], px2[idx], cam1, cam2)
    assert np.abs(X - ref[:, :3]).max() < 1e-9
    assert np.abs(rms - ref[:, 3]).max() < 1e-12
    for i, expected in zip(idx, ref):
        Xi, rmsi = r3d.triangulate(px1[i:i + 1], px2[i:i + 1], cam1, cam2)
        assert np.abs(Xi[0] - expected[:3]).max() < 1e-9
        assert abs(rmsi[0] - expected[3]) < 1e-12


def test_batch_result_independent_of_other_points():
    cam1, cam2 = stereo_rig()
    groups = [noisy_pairs(sigma, n=8, seed=k)
              for k, sigma in enumerate((0.0, 0.5, 5.0))]
    px1 = np.concatenate([g[0] for g in groups])
    px2 = np.concatenate([g[1] for g in groups])
    order = np.random.default_rng(1).permutation(len(px1))
    px1, px2 = px1[order], px2[order]
    X, rms = r3d.triangulate(px1, px2, cam1, cam2)
    # Each point runs the same arithmetic alone or in the batch; a mask or
    # indexing mix-up between points moves results by about 1e-10 here.
    for i in range(len(px1)):
        Xi, rmsi = r3d.triangulate(px1[i:i + 1], px2[i:i + 1], cam1, cam2)
        assert np.abs(X[i] - Xi[0]).max() < 1e-12
        assert abs(rms[i] - rmsi[0]) < 1e-12


def test_noiseless_points_recovered():
    cam1, cam2 = stereo_rig()
    pts = scene_points(5000, seed=18)
    X, rms = r3d.triangulate(cam1.project(pts), cam2.project(pts), cam1, cam2)
    assert np.abs(X - pts).max() < 2e-14
    assert rms.max() < 1e-11


def test_triangulate_sequences_throughput():
    cam1, cam2 = stereo_rig()
    pts = scene_points(20000, seed=12)
    confs = np.ones(len(pts))
    seq1, seq2 = camera_seq(cam1, pts, confs), camera_seq(cam2, pts, confs)
    t0 = time.perf_counter()
    out = r3d.triangulate_sequences(seq1, seq2, cam1, cam2)
    assert time.perf_counter() - t0 < 2.0
    assert np.abs(out.streams["left_wrist"].pos - pts).max() < 1e-6


def test_parallel_rays_flagged_per_point():
    cam1, cam2 = stereo_rig()
    pts = scene_points(20, seed=13)
    px1, px2 = cam1.project(pts), cam2.project(pts)
    # point 1 at infinity: both viewing rays run along one direction
    px1[1:2], px2[1:2] = (cam1.project(1e30 * pts[1:2]),
                          cam2.project(1e30 * pts[1:2]))
    X, status = r3d._linear_batch(px1, px2, cam1, cam2)
    assert np.flatnonzero(status).tolist() == [1]
    assert np.abs(np.delete(X, 1, axis=0) - np.delete(pts, 1, axis=0)).max() < 1e-9
    with pytest.raises(NumericalError, match=r"^(viewing rays are \(near-\)"
                                             r"parallel|point at infinity)$"):
        r3d.triangulate(px1[1:2], px2[1:2], cam1, cam2)


def test_point_behind_both_cameras_degenerate():
    cam1, cam2 = stereo_rig()
    X = np.array([[0.2, 0.1, -4.0]])
    with pytest.raises(NumericalError,
                       match="^point is not in front of both cameras$"):
        r3d.triangulate(cam1.project(X), cam2.project(X), cam1, cam2)


def camera_seq(cam, pts, confs, pid="p1"):
    """One camera's view of scene points, one frame per point."""
    frames = np.arange(len(pts))
    stream = JointStream(frames, frames / 30.0, cam.project(pts),
                         np.asarray(confs, dtype=float))
    return SkeletonSequence(pid, cam.camera_id, 30.0, {"left_wrist": stream})


def test_triangulate_sequences_skips_low_confidence():
    cam1, cam2 = stereo_rig()
    pts = scene_points(4, seed=9)
    conf1 = [0.9, 0.9, 0.3, 0.9]

    out = r3d.triangulate_sequences(camera_seq(cam1, pts, conf1),
                                    camera_seq(cam2, pts, [0.9] * 4),
                                    cam1, cam2)
    frames = [s.frame_index for s in out.samples]
    assert frames == [0, 1, 3]
    for s in out.samples:
        assert np.allclose(s.position, pts[s.frame_index], atol=1e-8)
        assert s.confidence == 1.0


def test_triangulated_stream_parses_back():
    cam1, cam2 = stereo_rig()
    pts = scene_points(6, seed=10)
    confs = [0.9] * len(pts)
    out = r3d.triangulate_sequences(camera_seq(cam1, pts, confs),
                                    camera_seq(cam2, pts, confs), cam1, cam2)
    buf = io.StringIO()
    write_joint_csv(out, buf)
    back = parse_joint_csv(buf.getvalue())
    assert back.dims == 3
    assert list(back.samples) == list(out.samples)


# --- calibration files -------------------------------------------------------

def test_load_calibration_round_trip(tmp_path):
    path = tmp_path / "calib.csv"
    ext = ",".join(f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))
    R = rodrigues([0, 1, 0], 0.2)
    flat = ",".join(repr(float(v)) for v in R.ravel())
    path.write_text(
        f"camera_id,fx,fy,cx,cy,{ext},t1,t2,t3\n"
        "cam1,800.0,800.0,320.0,240.0,,,,,,,,,,,,\n"
        f"cam2,810.0,805.0,318.0,242.0,{flat},0.5,0.0,-0.1\n")
    cams = r3d.load_calibration(path)
    assert set(cams) == {"cam1", "cam2"}
    assert np.allclose(cams["cam1"].rotation, np.eye(3))
    assert np.allclose(cams["cam2"].rotation, R)
    assert np.allclose(cams["cam2"].translation, (0.5, 0.0, -0.1))
    assert cams["cam2"].intrinsics.fx == 810.0


def test_load_calibration_rejects_a_repeated_camera(tmp_path):
    # the later row used to replace the earlier one: cam1 loaded with fx 500
    path = tmp_path / "calib.csv"
    path.write_text("camera_id,fx,fy,cx,cy\n"
                    "cam1,800.0,800.0,320.0,240.0\n"
                    "cam2,800.0,800.0,320.0,240.0\n"
                    "cam1,500.0,500.0,320.0,240.0\n")
    with pytest.raises(ParseError) as err:
        r3d.load_calibration(path)
    assert str(err.value) == f"{path}: row 4: camera 'cam1' repeats row 2"


def test_load_calibration_missing_columns(tmp_path):
    path = tmp_path / "calib.csv"
    path.write_text("camera_id,fx,fy\ncam1,800,800\n")
    with pytest.raises(ParseError, match=r"row 1: calibration: missing "
                                         r"column\(s\) \['cx', 'cy'\]$"):
        r3d.load_calibration(path)


def test_load_calibration_extrinsics_header_without_t3(tmp_path):
    # a partial extrinsics block is refused, not read as no extrinsics
    path = tmp_path / "calib.csv"
    path.write_text("camera_id,fx,fy,cx,cy," + ",".join(r3d._EXTRINSICS[:-1])
                    + "\ncam2,800,800,320,240,0,0,1,0,1,0,-1,0,0,0.5,0\n")
    with pytest.raises(ParseError, match=r"row 1: calibration: missing "
                                         r"column\(s\) \['t3'\]$"):
        r3d.load_calibration(path)


def write_calibration(path, cams):
    lines = ["camera_id,fx,fy,cx,cy,r11,r12,r13,r21,r22,r23,r31,r32,r33,"
             "t1,t2,t3"]
    for cam in cams:
        i = cam.intrinsics
        values = (i.fx, i.fy, i.cx, i.cy, *cam.rotation.ravel(),
                  *cam.translation)
        lines.append(",".join([cam.camera_id, *map(repr, map(float, values))]))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, cell", [
    ("fx", "nan"), ("cy", "inf"), ("t2", "-inf"), ("cx", "abc"), ("r12", ""),
    ("fy", "-800.0"), ("r11", "2.0")])
def test_load_calibration_bad_cell_names_row(tmp_path, column, cell):
    path = tmp_path / "calib.csv"
    write_calibration(path, stereo_rig())
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[lines[0].split(",").index(column)] = cell
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="row 3"):
        r3d.load_calibration(path)


@pytest.mark.parametrize("blank", [r3d._EXTRINSICS[:1], r3d._EXTRINSICS[:-1]],
                         ids=["r11-blank", "only-t3-set"])
def test_load_calibration_partly_blank_pose_names_row(tmp_path, blank):
    # only an all-blank extrinsics block stands for the identity pose
    path = tmp_path / "calib.csv"
    write_calibration(path, stereo_rig())
    lines = path.read_text().splitlines()
    header, fields = lines[0].split(","), lines[2].split(",")
    for column in blank:
        fields[header.index(column)] = ""
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError,
                       match="row 3: column 'r11': not a number: ''"):
        r3d.load_calibration(path)


def write_stereo_session(root, pid, cams, pts):
    views = tuple(camera_seq(cam, pts, np.full(len(pts), 0.9), pid)
                  for cam in cams)
    manifest = SessionManifest(pid, 8, (640, 480), 30.0,
                               tuple(cam.camera_id for cam in cams))
    targets = TargetLog((TargetEvent(1, "left", (0.4, 0.5), 0.0),
                         TargetEvent(1, "right", (0.6, 0.5), 0.0)))
    write_session(ParticipantSession(views, targets, manifest),
                  str(root / pid))


def reconstruct(tmp_path, calibration_cams):
    write_calibration(tmp_path / "calib.csv", calibration_cams)
    return cli.main(["reconstruct", "--in", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out"),
                     "--calibration", str(tmp_path / "calib.csv")])


def test_cli_reconstruct_names_missing_camera(tmp_path, capsys):
    cam1, cam2 = stereo_rig()
    cam3 = r3d.make_camera("cam3", INTR, cam2.rotation, cam2.translation)
    pts = scene_points(12, seed=14)
    write_stereo_session(tmp_path / "in", "p000", (cam1, cam2), pts)
    write_stereo_session(tmp_path / "in", "p001", (cam1, cam3), pts)
    assert reconstruct(tmp_path, (cam1, cam2)) == 2
    err = capsys.readouterr().err
    assert "participant p001" in err and "'cam3'" in err
    assert not list((tmp_path / "out").glob("*/joints_3d.csv"))


@pytest.mark.parametrize("views_differ", [True, False])
def test_cli_reconstruct_names_participant_and_joint_of_failure(
        tmp_path, capsys, views_differ):
    # Calibration puts cam2 at cam1's pose. With distinct views every ray
    # pair meets at the shared camera centre; with equal views the rays are
    # parallel.
    cam1, cam2 = stereo_rig()
    pts = scene_points(12, seed=15)
    second = cam2 if views_differ else r3d.make_camera("cam2", INTR)
    write_stereo_session(tmp_path / "in", "p000", (cam1, second), pts)
    assert reconstruct(tmp_path, (cam1, r3d.make_camera("cam2", INTR))) == 3
    err = capsys.readouterr().err
    assert "participant p000" in err and "joint left_wrist frame 0" in err


def test_cli_reconstruct_failure_writes_no_participant(tmp_path, capsys):
    # p000 reconstructs; p001's cam3 sits at cam1's pose in the calibration,
    # so its rays meet at the shared camera centre and it fails.
    cam1, cam2 = stereo_rig()
    pts = scene_points(12, seed=16)
    write_stereo_session(tmp_path / "in", "p000", (cam1, cam2), pts)
    write_stereo_session(tmp_path / "in", "p001", (cam1, r3d.make_camera(
        "cam3", INTR, cam2.rotation, cam2.translation)), pts)
    assert reconstruct(tmp_path, (cam1, cam2,
                                  r3d.make_camera("cam3", INTR))) == 3
    assert "participant p001" in capsys.readouterr().err
    assert not (tmp_path / "out" / "p000" / "joints_3d.csv").exists()


def test_cli_reconstruct_refuses_cameras_whose_times_disagree(tmp_path,
                                                              capsys):
    # frames used to be paired by number alone, keeping cam1's times
    cam1, cam2 = stereo_rig()
    write_stereo_session(tmp_path / "in", "p000", (cam1, cam2),
                         scene_points(12, seed=19))
    path = tmp_path / "in" / "p000" / "joints_cam2.csv"
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("time_s")
    for k, row in enumerate(rows):
        fields = row.split(",")
        fields[col] = repr(2.0 * float(fields[col]) + 5.0)
        rows[k] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")
    assert reconstruct(tmp_path, (cam1, cam2)) == 2
    assert ("participant p000: joint left_wrist frame 0: camera times 0.0 and "
            "5.0 s are over half a frame apart"
            in capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("*/joints_3d.csv"))


def test_reconstruct_bytes_same_under_default_blas_one_thread_and_avx2(
        tmp_path):
    """`reachkin reconstruct` writes the same joints_3d.csv below its header
    under the default BLAS, one OpenBLAS thread and OpenBLAS's Haswell (AVX2)
    kernel: triangulation calls no BLAS or LAPACK routine."""
    cam1, cam2 = stereo_rig()
    write_stereo_session(tmp_path / "in", "p000", (cam1, cam2),
                         scene_points(300, seed=20))
    write_calibration(tmp_path / "calib.csv", (cam1, cam2))
    files = same_bytes_under_each_blas(tmp_path, lambda out: [[
        "reconstruct", "--in", str(tmp_path / "in"), "--out", str(out),
        "--calibration", str(tmp_path / "calib.csv")]])
    assert list(files) == ["p000/joints_3d.csv"]


def test_reconstruct_holds_one_participants_streams_at_a_time(
        tmp_path, monkeypatch):
    # the pass loads, triangulates, writes and drops each session in turn
    def sequences():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, SkeletonSequence)]

    cams = stereo_rig()
    for k in range(3):
        write_stereo_session(tmp_path / "in", f"p00{k}", cams,
                             scene_points(12, seed=22 + k))
    held_before = {id(o) for o in sequences()}    # by other tests' fixtures
    seen = []
    original = r3d.triangulate_sequences

    def watched(seq1, *args):
        live = {o.participant_id for o in sequences()
                if id(o) not in held_before}
        seen.append((seq1.participant_id, live))
        return original(seq1, *args)

    monkeypatch.setattr(r3d, "triangulate_sequences", watched)
    assert reconstruct(tmp_path, cams) == 0
    assert seen == [(pid, {pid}) for pid in ("p000", "p001", "p002")]


@pytest.mark.parametrize("n_cameras", [1, 3])
def test_cli_reconstruct_refuses_a_session_without_two_camera_views(
        tmp_path, capsys, n_cameras):
    # refused, not skipped, though p001 has two cameras; a third camera
    # is not ignored
    cam1, cam2 = stereo_rig()
    cams = (cam1, cam2, r3d.make_camera("cam3", INTR))
    pts = scene_points(12, seed=17)
    write_stereo_session(tmp_path / "in", "p000", cams[:n_cameras], pts)
    write_stereo_session(tmp_path / "in", "p001", cams[:2], pts)
    assert reconstruct(tmp_path, cams) == 2
    assert ("error: stage 'reconstruct' failed: participant p000: "
            f"reconstruct needs 2 camera views, got {n_cameras}\n"
            == capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_reconstruct_reports_the_first_participant_to_fail(tmp_path,
                                                               capsys):
    # p000 fails to triangulate (cam2 at cam1's pose in the calibration);
    # p001's cam3 is not in the calibration. Each participant is checked
    # and triangulated in turn, so p000's failure is the one reported.
    cam1, cam2 = stereo_rig()
    pts = scene_points(12, seed=21)
    write_stereo_session(tmp_path / "in", "p000", (cam1, cam2), pts)
    write_stereo_session(tmp_path / "in", "p001", (cam1, r3d.make_camera(
        "cam3", INTR, cam2.rotation, cam2.translation)), pts)
    assert reconstruct(tmp_path, (cam1, r3d.make_camera("cam2", INTR))) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'reconstruct' failed: participant "
                          "p000: joint left_wrist frame 0: ")
    assert "p001" not in err and "cam3" not in err
    assert not list(tmp_path.glob("**/joints_3d.csv"))


# --- shoulder normalization --------------------------------------------------

def shoulder_seq(width, n=11, wrist_scale=1.0, x0=0.0):
    frames = np.arange(n)

    def stream(x, y):
        pos = np.column_stack([np.broadcast_to(x, n), np.broadcast_to(y, n)])
        return JointStream(frames, frames / 30.0, pos.astype(float),
                           np.full(n, 0.9))

    return SkeletonSequence("p1", "cam0", 30.0, {
        "left_shoulder": stream(x0 - width / 2.0, 0.0),
        "right_shoulder": stream(x0 + width / 2.0, 0.0),
        "left_wrist": stream(wrist_scale * frames, wrist_scale * 2.0)})


def test_shoulder_scale_median_width():
    assert r3d.shoulder_scale(shoulder_seq(0.4)) == pytest.approx(0.4)


@pytest.mark.parametrize("x0", [400.0, 4.0], ids=["pixels", "3d-units"])
def test_shoulder_scale_rejects_residue_width(x0):
    # coincident shoulders that gating and filtering left a sliver apart
    with pytest.raises(InputError, match="^degenerate shoulder width "):
        r3d.shoulder_scale(shoulder_seq(1e-4 * x0, x0=x0))
    assert r3d.shoulder_scale(shoulder_seq(0.05 * x0, x0=x0)) == \
        pytest.approx(0.05 * x0)


def normalized(seq):
    return r3d.normalize_by_shoulder_width(seq, r3d.shoulder_scale(seq))


def test_normalize_scales_everything():
    out = normalized(shoulder_seq(0.4))
    assert r3d.shoulder_scale(out) == pytest.approx(1.0)
    _, _, wrist, _ = out.joint_arrays("left_wrist")
    assert np.allclose(wrist[:, 1], 2.0 / 0.4)   # positions scaled by 2.5


def test_normalize_idempotent_and_scale_invariant():
    once = normalized(shoulder_seq(0.4))
    twice = normalized(once)
    assert all(np.allclose(a.position, b.position)
               for a, b in zip(once.samples, twice.samples))
    other = normalized(shoulder_seq(0.8, wrist_scale=2.0))
    assert all(np.allclose(a.position, b.position)
               for a, b in zip(once.samples, other.samples))


def test_shoulders_untracked():
    frames = np.arange(5)
    wrist = JointStream(frames, frames / 30.0,
                        np.column_stack([np.zeros(5), frames.astype(float)]),
                        np.full(5, 0.9))
    seq = SkeletonSequence("p1", "cam0", 30.0, {"left_wrist": wrist})
    with pytest.raises(InputError,
                       match="^both shoulders must be tracked$"):
        r3d.shoulder_scale(seq)
