import io

import numpy as np
import pytest

from reachkin import reconstruct3d as r3d
from reachkin.errors import (
    DegenerateConfiguration,
    InsufficientCorrespondences,
    ShouldersUntracked,
)
from reachkin.model_io import (
    JointStream,
    SkeletonSequence,
    parse_joint_csv,
    write_joint_csv,
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
    one = cam1.project([0.0, 0.0, 2.0])
    assert one.shape == (2,)
    assert np.allclose(one, (320.0, 240.0))   # on-axis -> principal point
    many = cam1.project(np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0]]))
    assert many.shape == (2, 2)
    assert np.allclose(many[1], (320.0 + 800.0 / 2.0, 240.0))


def test_camera_rejects_non_rotation():
    with pytest.raises(ValueError):
        r3d.make_camera("bad", INTR, R=2.0 * np.eye(3))
    with pytest.raises(ValueError):
        r3d.Intrinsics(-1.0, 800.0, 0.0, 0.0)


def test_look_at_cameras_center_the_origin():
    for pos in ([0.0, 0.0, -4.0], [2.0, 1.0, -3.5], [-2.5, 0.5, -3.0]):
        R, t = look_at(pos)
        cam = r3d.make_camera("c", INTR, R, t)
        assert np.allclose(cam.project([0.0, 0.0, 0.0]), (320.0, 240.0))


# --- relative pose -----------------------------------------------------------

def test_pose_recovery_from_exact_correspondences():
    cam1, cam2 = stereo_rig()
    pts = scene_points(40, seed=1)
    px1 = cam1.project(pts)
    px2 = cam2.project(pts)
    got1, got2 = r3d.solve_relative_pose(px1, px2, INTR, INTR)

    assert np.allclose(got1.rotation, np.eye(3))
    assert np.linalg.norm(got2.rotation - cam2.rotation) < 1e-6
    # translation is recovered up to scale only
    t_true = cam2.translation / np.linalg.norm(cam2.translation)
    assert np.linalg.norm(got2.translation - t_true) < 1e-6


def test_pose_needs_eight_correspondences():
    pts = scene_points(7)
    cam1, cam2 = stereo_rig()
    px1, px2 = cam1.project(pts), cam2.project(pts)
    with pytest.raises(InsufficientCorrespondences):
        r3d.solve_relative_pose(px1, px2, INTR, INTR)
    with pytest.raises(InsufficientCorrespondences):
        r3d.solve_relative_pose(cam1.project(scene_points(9)), px2, INTR, INTR)


def test_pose_collinear_points_degenerate():
    cam1, cam2 = stereo_rig()
    u = np.linspace(0, 1, 12)
    pts = np.column_stack([u, 0.5 * u, 4.0 + u])   # all on one line
    with pytest.raises(DegenerateConfiguration):
        r3d.solve_relative_pose(cam1.project(pts), cam2.project(pts),
                                INTR, INTR)


def test_recovered_pose_triangulates_consistently():
    cam1, cam2 = stereo_rig()
    pts = scene_points(20, seed=3)
    px1, px2 = cam1.project(pts), cam2.project(pts)
    got1, got2 = r3d.solve_relative_pose(px1, px2, INTR, INTR)
    # reconstruction differs from the truth by the unknown scale only
    X0, _ = r3d.triangulate(px1[0], px2[0], got1, got2)
    scale = np.linalg.norm(pts[0]) / np.linalg.norm(X0)
    for a, b, X in zip(px1[1:6], px2[1:6], pts[1:6]):
        Xh, _ = r3d.triangulate(a, b, got1, got2)
        assert np.allclose(Xh * scale, X, atol=1e-5)


# --- triangulation -----------------------------------------------------------

def test_triangulate_verged_pair_hits_origin():
    Ra, ta = look_at([1.5, 0.2, -4.0])
    Rb, tb = look_at([-1.5, -0.1, -4.0])
    cama = r3d.make_camera("a", INTR, Ra, ta)
    camb = r3d.make_camera("b", INTR, Rb, tb)
    X, rms = r3d.triangulate((320.0, 240.0), (320.0, 240.0), cama, camb)
    assert np.allclose(X, (0.0, 0.0, 0.0), atol=1e-9)
    assert rms < 1e-9


def test_triangulation_error_scales_linearly_with_noise():
    cam1, cam2 = stereo_rig()
    pts = scene_points(60, seed=5)
    rng = np.random.default_rng(6)
    medians = []
    for sigma in (0.5, 1.0, 2.0):
        errs = []
        for X in pts:
            px1 = cam1.project(X) + rng.normal(0, sigma, 2)
            px2 = cam2.project(X) + rng.normal(0, sigma, 2)
            Xh, _ = r3d.triangulate(px1, px2, cam1, cam2)
            errs.append(np.linalg.norm(Xh - X))
        medians.append(np.median(errs))
    assert 1.5 < medians[1] / medians[0] < 2.7
    assert 1.5 < medians[2] / medians[1] < 2.7


def test_triangulation_translation_equivariance():
    cam1, cam2 = stereo_rig()
    shift = np.array([0.3, -0.2, 0.5])
    for X in scene_points(10, seed=8):
        Xa, _ = r3d.triangulate(cam1.project(X), cam2.project(X), cam1, cam2)
        Xb, _ = r3d.triangulate(cam1.project(X + shift),
                                cam2.project(X + shift), cam1, cam2)
        assert np.allclose(Xb - Xa, shift, atol=1e-9)


def camera_seq(cam, pts, confs):
    """One camera's view of scene points, one frame per point."""
    frames = np.arange(len(pts))
    stream = JointStream(frames, frames / 30.0, cam.project(pts),
                         np.asarray(confs, dtype=float))
    return SkeletonSequence("p1", cam.camera_id, 30.0, {"left_wrist": stream})


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
    assert back.samples == out.samples


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


def test_load_calibration_missing_columns(tmp_path):
    from reachkin.errors import MissingColumn
    path = tmp_path / "calib.csv"
    path.write_text("camera_id,fx,fy\ncam1,800,800\n")
    with pytest.raises(MissingColumn):
        r3d.load_calibration(path)


# --- shoulder normalization --------------------------------------------------

def shoulder_seq(width, n=11, wrist_scale=1.0):
    frames = np.arange(n)

    def stream(x, y):
        pos = np.column_stack([np.broadcast_to(x, n), np.broadcast_to(y, n)])
        return JointStream(frames, frames / 30.0, pos.astype(float),
                           np.full(n, 0.9))

    return SkeletonSequence("p1", "cam0", 30.0, {
        "left_shoulder": stream(-width / 2.0, 0.0),
        "right_shoulder": stream(width / 2.0, 0.0),
        "left_wrist": stream(wrist_scale * frames, wrist_scale * 2.0)})


def test_shoulder_scale_median_width():
    assert r3d.shoulder_scale(shoulder_seq(0.4)) == pytest.approx(0.4)


def test_normalize_scales_everything():
    out = r3d.normalize_by_shoulder_width(shoulder_seq(0.4))
    assert r3d.shoulder_scale(out) == pytest.approx(1.0)
    _, _, wrist, _ = out.joint_arrays("left_wrist")
    assert np.allclose(wrist[:, 1], 2.0 / 0.4)   # positions scaled by 2.5


def test_normalize_idempotent_and_scale_invariant():
    once = r3d.normalize_by_shoulder_width(shoulder_seq(0.4))
    twice = r3d.normalize_by_shoulder_width(once)
    assert all(np.allclose(a.position, b.position)
               for a, b in zip(once.samples, twice.samples))
    other = r3d.normalize_by_shoulder_width(shoulder_seq(0.8, wrist_scale=2.0))
    assert all(np.allclose(a.position, b.position)
               for a, b in zip(once.samples, other.samples))


def test_shoulders_untracked():
    frames = np.arange(5)
    wrist = JointStream(frames, frames / 30.0,
                        np.column_stack([np.zeros(5), frames.astype(float)]),
                        np.full(5, 0.9))
    seq = SkeletonSequence("p1", "cam0", 30.0, {"left_wrist": wrist})
    with pytest.raises(ShouldersUntracked):
        r3d.shoulder_scale(seq)
