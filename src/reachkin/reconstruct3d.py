"""Two-view 3D recovery: relative pose from correspondences, per-frame
triangulation by reprojection-error minimization, and shoulder-width
normalization.

Camera 1 is fixed at the identity pose; camera 2 is recovered up to scale.
The global scale is fixed downstream by shoulder normalization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InputError,
    InsufficientCorrespondences,
    MissingColumn,
    NoConvergence,
    RayParallel,
    ShouldersUntracked,
)
from .model_io import JointStream, SkeletonSequence


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def K(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class CameraModel:
    camera_id: str
    intrinsics: Intrinsics
    R: tuple   # 3x3 row-major, world -> camera
    t: tuple   # length-3

    def __post_init__(self):
        R = self.rotation
        if np.linalg.norm(R @ R.T - np.eye(3)) > 1e-9 or \
                abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with det +1")

    @property
    def rotation(self):
        return np.asarray(self.R, dtype=float).reshape(3, 3)

    @property
    def translation(self):
        return np.asarray(self.t, dtype=float)

    @property
    def P(self):
        """3x4 projection matrix K [R | t]."""
        return self.intrinsics.K @ np.hstack(
            [self.rotation, self.translation.reshape(3, 1)])

    def project(self, X):
        """Project world points (..., 3) to pixel coordinates (..., 2)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        cam = X @ self.rotation.T + self.translation
        uv = cam[:, :2] / cam[:, 2:3]
        px = np.column_stack([
            self.intrinsics.fx * uv[:, 0] + self.intrinsics.cx,
            self.intrinsics.fy * uv[:, 1] + self.intrinsics.cy])
        return px[0] if single else px


def make_camera(camera_id, intr, R=None, t=None):
    R = np.eye(3) if R is None else np.asarray(R, dtype=float)
    t = np.zeros(3) if t is None else np.asarray(t, dtype=float)
    return CameraModel(camera_id, intr, tuple(map(tuple, R)), tuple(t))


# --- relative pose ---------------------------------------------------------

def _normalized(K, px):
    """Pixel -> normalized image coordinates."""
    Kinv = np.linalg.inv(K)
    h = np.column_stack([px, np.ones(len(px))])
    n = h @ Kinv.T
    return n[:, :2]


def solve_relative_pose(pts1, pts2, intr1: Intrinsics, intr2: Intrinsics):
    """Recover the second camera's pose from pixel correspondences.

    Normalized 8-point essential-matrix estimation followed by cheirality
    disambiguation. Translation is unit-norm (scale-free).
    """
    pts1 = np.asarray(pts1, dtype=float)
    pts2 = np.asarray(pts2, dtype=float)
    if len(pts1) < 8 or len(pts2) < 8:
        raise InsufficientCorrespondences(
            f"need >= 8 correspondences, got {min(len(pts1), len(pts2))}")
    if len(pts1) != len(pts2):
        raise InsufficientCorrespondences("correspondence lists differ in length")

    x1 = _normalized(intr1.K, pts1)
    x2 = _normalized(intr2.K, pts2)

    # Hartley conditioning in normalized coordinates.
    def condition(x):
        c = x.mean(axis=0)
        s = np.sqrt(2.0) / max(np.mean(np.linalg.norm(x - c, axis=1)), 1e-12)
        T = np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1.0]])
        xh = np.column_stack([x, np.ones(len(x))]) @ T.T
        return xh, T

    h1, T1 = condition(x1)
    h2, T2 = condition(x2)

    A = np.column_stack([
        h2[:, 0] * h1[:, 0], h2[:, 0] * h1[:, 1], h2[:, 0] * h1[:, 2],
        h2[:, 1] * h1[:, 0], h2[:, 1] * h1[:, 1], h2[:, 1] * h1[:, 2],
        h2[:, 2] * h1[:, 0], h2[:, 2] * h1[:, 1], h2[:, 2] * h1[:, 2]])
    _, sv, Vt = np.linalg.svd(A)
    # For 8 exact correspondences a 1-D null space is required; points on a
    # line or plane through both centers inflate it.
    if sv[-2] < 1e-8 * max(sv[0], 1e-12):
        raise DegenerateConfiguration("correspondences are degenerate "
                                      "(collinear or otherwise rank deficient)")
    E = Vt[-1].reshape(3, 3)
    E = T2.T @ E @ T1

    U, s, Vt = np.linalg.svd(E)
    E = U @ np.diag([1.0, 1.0, 0.0]) @ Vt
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    cam1 = make_camera("cam1", intr1)
    best = None
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        for tsign in (U[:, 2], -U[:, 2]):
            cam2 = make_camera("cam2", intr2, R, tsign)
            front = 0
            for a, b in zip(pts1, pts2):
                try:
                    X, _ = _triangulate_linear(a, b, cam1, cam2)
                except RayParallel:
                    continue
                z1 = (cam1.rotation @ X + cam1.translation)[2]
                z2 = (cam2.rotation @ X + cam2.translation)[2]
                if z1 > 0 and z2 > 0:
                    front += 1
            if best is None or front > best[0]:
                best = (front, cam2)
    if best is None or best[0] == 0:
        raise DegenerateConfiguration("no pose places points in front of both cameras")
    return cam1, best[1]


# --- triangulation ---------------------------------------------------------

def _triangulate_linear(px1, px2, cam1, cam2):
    P1, P2 = cam1.P, cam2.P
    A = np.vstack([
        px1[0] * P1[2] - P1[0],
        px1[1] * P1[2] - P1[1],
        px2[0] * P2[2] - P2[0],
        px2[1] * P2[2] - P2[1]])
    _, s, Vt = np.linalg.svd(A)
    if s[-2] < 1e-12 * max(s[0], 1e-12):
        raise RayParallel("viewing rays are (near-)parallel")
    Xh = Vt[-1]
    if abs(Xh[3]) < 1e-14:
        raise RayParallel("point at infinity")
    X = Xh[:3] / Xh[3]
    return X, _reproj_residuals(X, px1, px2, cam1, cam2)


def _reproj_residuals(X, px1, px2, cam1, cam2):
    r = np.concatenate([cam1.project(X) - px1, cam2.project(X) - px2])
    return r


def _jacobian(X, cam):
    """d(pixel)/d(X) for one camera, 2x3."""
    R = cam.rotation
    c = R @ X + cam.translation
    fx, fy = cam.intrinsics.fx, cam.intrinsics.fy
    x, y, z = c
    d_uv_dc = np.array([[fx / z, 0.0, -fx * x / z ** 2],
                        [0.0, fy / z, -fy * y / z ** 2]])
    return d_uv_dc @ R


def triangulate(px1, px2, cam1: CameraModel, cam2: CameraModel,
                max_iter: int = 50, step_tol: float = 1e-10):
    """Triangulate one point by Gauss-Newton on squared pixel reprojection error.

    Linear (homogeneous least-squares) initialization, then Gauss-Newton with
    step halving (up to 8 halvings). Returns (X, rms_residual_px, converged).
    """
    px1 = np.asarray(px1, dtype=float)
    px2 = np.asarray(px2, dtype=float)
    X, r = _triangulate_linear(px1, px2, cam1, cam2)
    cost = float(r @ r)

    converged = False
    for _ in range(max_iter):
        J = np.vstack([_jacobian(X, cam1), _jacobian(X, cam2)])
        g = J.T @ r
        H = J.T @ J
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            raise RayParallel("normal equations singular during refinement")
        if np.linalg.norm(step) < step_tol:
            converged = True
            break
        scale = 1.0
        improved = False
        for _ in range(9):   # full step + up to 8 halvings
            Xn = X + scale * step
            rn = _reproj_residuals(Xn, px1, px2, cam1, cam2)
            cn = float(rn @ rn)
            if cn <= cost:
                X, r, cost = Xn, rn, cn
                improved = True
                break
            scale *= 0.5
        if not improved:
            converged = True   # at a local minimum within line-search resolution
            break

    rms = float(np.sqrt(cost / 4.0))
    if not converged:
        raise NoConvergence(f"no convergence after {max_iter} iterations "
                            f"(best rms {rms:.3g} px)")
    return X, rms


def triangulate_sequences(seq1: SkeletonSequence, seq2: SkeletonSequence,
                          cam1: CameraModel, cam2: CameraModel,
                          confidence_threshold: float = 0.75):
    """Per-frame independent triangulation of every joint seen by both cameras.

    Frames where either camera's observation fails the confidence gate are
    skipped; the resulting gaps are repaired downstream by preprocessing.
    """
    streams = {}
    for joint in sorted(set(seq1.joints) & set(seq2.joints)):
        f1, t1, p1, c1 = seq1.streams[joint]
        f2, _, p2, c2 = seq2.streams[joint]
        _, i1, i2 = np.intersect1d(f1, f2, return_indices=True)
        seen = (c1[i1] >= confidence_threshold) & (c2[i2] >= confidence_threshold)
        i1, i2 = i1[seen], i2[seen]
        if i1.size:
            points = [triangulate(a, b, cam1, cam2)[0]
                      for a, b in zip(p1[i1], p2[i2])]
            streams[joint] = JointStream(f1[i1], t1[i1], np.array(points),
                                         np.ones(i1.size))
    return SkeletonSequence(seq1.participant_id, "", seq1.sample_rate, streams)


# --- calibration files -----------------------------------------------------

def load_calibration(path):
    """Read a per-camera calibration csv.

    Columns: ``camera_id,fx,fy,cx,cy`` with an optional extrinsics block
    ``r11..r33,t1,t2,t3`` (row-major rotation). Cameras without extrinsics
    get the identity pose (use solve_relative_pose to recover the second
    camera).
    """
    cams = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"camera_id", "fx", "fy", "cx", "cy"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise MissingColumn(f"calibration file needs columns {sorted(required)}")
        ext_cols = [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] \
            + ["t1", "t2", "t3"]
        has_ext = all(c in reader.fieldnames for c in ext_cols)
        for row in reader:
            intr = Intrinsics(float(row["fx"]), float(row["fy"]),
                              float(row["cx"]), float(row["cy"]))
            R, t = None, None
            if has_ext and row.get("r11", "") != "":
                R = np.array([[float(row[f"r{i}{j}"]) for j in (1, 2, 3)]
                              for i in (1, 2, 3)])
                t = np.array([float(row["t1"]), float(row["t2"]),
                              float(row["t3"])])
            cams[row["camera_id"]] = make_camera(row["camera_id"], intr, R, t)
    return cams


# --- normalization ---------------------------------------------------------

def shoulder_scale(seq: SkeletonSequence) -> float:
    """Median over frames of the left-right shoulder separation."""
    try:
        fl, _, pl, _ = seq.joint_arrays("left_shoulder")
        fr, _, pr, _ = seq.joint_arrays("right_shoulder")
    except InputError:
        raise ShouldersUntracked("both shoulders must be tracked")
    common, il, ir = np.intersect1d(fl, fr, return_indices=True)
    if not common.size:
        raise ShouldersUntracked("shoulders never tracked on a common frame")
    width = float(np.median(np.linalg.norm(pl[il] - pr[ir], axis=1)))
    if width <= 0:
        raise ShouldersUntracked("degenerate zero shoulder width")
    return width


def normalize_by_shoulder_width(seq: SkeletonSequence) -> SkeletonSequence:
    """Scale all positions so the median shoulder separation is exactly 1."""
    scale = shoulder_scale(seq)
    return replace(seq, streams={joint: s._replace(pos=s.pos / scale)
                                 for joint, s in seq.streams.items()})
