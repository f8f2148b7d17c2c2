"""Two-view 3D recovery: relative pose from correspondences, per-frame
triangulation by reprojection-error minimization, and shoulder-width
normalization.

Triangulation is batched: one vectorized Gauss-Newton refines every frame of
a joint at once; per-point masks keep each result what it would be alone.

Camera 1 is fixed at the identity pose; camera 2 is recovered up to scale.
The global scale is fixed downstream by shoulder normalization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InputError,
    InsufficientCorrespondences,
    NoConvergence,
    ParseError,
    RayParallel,
    ShouldersUntracked,
)
from .model_io import (JointStream, SkeletonSequence, _float, _parse_file,
                       _read_table)


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
            X, status = _linear_batch(pts1, pts2, cam1, cam2)
            front = np.count_nonzero((status == 0) & (_depth(X, cam1) > 0)
                                     & (_depth(X, cam2) > 0))
            if best is None or front > best[0]:
                best = (front, cam2)
    if best is None or best[0] == 0:
        raise DegenerateConfiguration("no pose places points in front of both cameras")
    return cam1, best[1]


# --- triangulation ---------------------------------------------------------

# Per-point outcome of a batched triangulation: 0 is success, any other code
# names the error a failing point raises.
_PARALLEL, _AT_INFINITY, _SINGULAR, _NO_CONVERGENCE, _BEHIND = range(1, 6)
_FAILURES = {
    _PARALLEL: (RayParallel, "viewing rays are (near-)parallel"),
    _AT_INFINITY: (RayParallel, "point at infinity"),
    _SINGULAR: (RayParallel, "normal equations singular during refinement"),
    _NO_CONVERGENCE: (NoConvergence, "no convergence after {max_iter} "
                      "iterations (best rms {rms:.3g} px)"),
    _BEHIND: (DegenerateConfiguration,
              "point is not in front of both cameras"),
}


def _linear_batch(px1, px2, cam1, cam2):
    """Homogeneous least-squares triangulation of (N, 2) pixel pairs: X (N, 3)
    and a status (N,), 0 where valid; X is nan elsewhere."""
    P1, P2 = cam1.P, cam2.P
    A = np.stack([px1[:, :1] * P1[2] - P1[0],
                  px1[:, 1:] * P1[2] - P1[1],
                  px2[:, :1] * P2[2] - P2[0],
                  px2[:, 1:] * P2[2] - P2[1]], axis=1)
    _, s, Vt = np.linalg.svd(A)
    Xh = Vt[:, -1]
    status = np.where(s[:, -2] < 1e-12 * np.maximum(s[:, 0], 1e-12), _PARALLEL,
                      np.where(np.abs(Xh[:, 3]) < 1e-14, _AT_INFINITY, 0))
    w = np.where(status == 0, Xh[:, 3], np.nan)
    return Xh[:, :3] / w[:, None], status


def _triangulate_linear(px1, px2, cam1, cam2):
    """Linear triangulation of one point: (X, reprojection residuals (4,))."""
    px1 = np.asarray(px1, dtype=float).reshape(1, 2)
    px2 = np.asarray(px2, dtype=float).reshape(1, 2)
    X, status = _linear_batch(px1, px2, cam1, cam2)
    if status[0]:
        error, message = _FAILURES[status[0]]
        raise error(message)
    return X[0], _residuals(X, px1, px2, cam1, cam2)[0]


def _residuals(X, px1, px2, cam1, cam2):
    """Pixel reprojection residuals (N, 4): camera 1 (u, v), then camera 2."""
    return np.hstack([cam1.project(X) - px1, cam2.project(X) - px2])


def _depth(X, cam):
    """Depth (N,) of world points along the camera's optical axis."""
    return X @ cam.rotation[2] + cam.translation[2]


def _jacobian(X, cam):
    """d(pixel)/d(X) for one camera, (N, 2, 3)."""
    R = cam.rotation
    x, y, z = (X @ R.T + cam.translation).T
    fx, fy = cam.intrinsics.fx, cam.intrinsics.fy
    du = (fx / z)[:, None] * R[0] - (fx * x / z ** 2)[:, None] * R[2]
    dv = (fy / z)[:, None] * R[1] - (fy * y / z ** 2)[:, None] * R[2]
    return np.stack([du, dv], axis=1)


@np.errstate(divide="ignore", invalid="ignore")   # bad points get a status
def _triangulate_batch(px1, px2, cam1, cam2, max_iter=50, step_tol=1e-10,
                       where=None):
    """Triangulate N points by Gauss-Newton on squared pixel reprojection error.

    Linear (homogeneous least-squares) initialization, then Gauss-Newton with
    step halving (up to 8 halvings) on all points at once. A point leaves the
    iteration once its step is below ``step_tol`` or no halving lowers its
    cost. Returns (X (N, 3), rms residual in px (N,)); the first failing
    point raises, its message prefixed by ``where(index)`` when given.
    """
    X, status = _linear_batch(px1, px2, cam1, cam2)
    active = np.flatnonzero(status == 0)
    r = np.full((len(X), 4), np.nan)
    r[active] = _residuals(X[active], px1[active], px2[active], cam1, cam2)
    cost = np.einsum("ij,ij->i", r, r)
    for _ in range(max_iter):
        if not active.size:
            break
        J = np.concatenate([_jacobian(X[active], cam1),
                            _jacobian(X[active], cam2)], axis=1)
        H = np.einsum("nki,nkj->nij", J, J)
        g = np.einsum("nki,nk->ni", J, r[active])
        singular = np.linalg.det(H) == 0   # exactly where solve would fail
        H[singular] = np.eye(3)
        step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        status[active[singular]] = _SINGULAR

        pending = ~singular & (np.linalg.norm(step, axis=1) >= step_tol)
        improved = np.zeros(active.size, dtype=bool)
        for halvings in range(9):   # full step + up to 8 halvings
            k = np.flatnonzero(pending & ~improved)
            if not k.size:
                break
            pts = active[k]
            Xn = X[pts] + 0.5 ** halvings * step[k]
            rn = _residuals(Xn, px1[pts], px2[pts], cam1, cam2)
            cn = np.einsum("ij,ij->i", rn, rn)
            ok = cn <= cost[pts]
            X[pts[ok]], r[pts[ok]], cost[pts[ok]] = Xn[ok], rn[ok], cn[ok]
            improved[k[ok]] = True
        # Points without an improving step have converged (to within the
        # line-search resolution) or failed; the rest iterate again.
        active = active[improved]
    status[active] = _NO_CONVERGENCE
    in_front = (_depth(X, cam1) > 0) & (_depth(X, cam2) > 0)
    status[(status == 0) & ~in_front] = _BEHIND

    rms = np.sqrt(cost / 4.0)
    bad = np.flatnonzero(status)
    if bad.size:
        i = bad[0]
        error, message = _FAILURES[status[i]]
        raise error((f"{where(i)}: " if where else "")
                    + message.format(max_iter=max_iter, rms=rms[i]))
    return X, rms


def triangulate(px1, px2, cam1: CameraModel, cam2: CameraModel,
                max_iter: int = 50, step_tol: float = 1e-10):
    """Triangulate one point by Gauss-Newton on squared pixel reprojection
    error (see _triangulate_batch). Returns (X, rms_residual_px)."""
    X, rms = _triangulate_batch(np.asarray(px1, dtype=float).reshape(1, 2),
                                np.asarray(px2, dtype=float).reshape(1, 2),
                                cam1, cam2, max_iter, step_tol)
    return X[0], float(rms[0])


def triangulate_sequences(seq1: SkeletonSequence, seq2: SkeletonSequence,
                          cam1: CameraModel, cam2: CameraModel,
                          confidence_threshold: float = 0.75):
    """Per-frame independent triangulation of every joint seen by both
    cameras, batched over each joint's frames.

    Frames where either camera's observation fails the confidence gate are
    skipped; the resulting gaps are repaired downstream by preprocessing. A
    failure names the joint and the first failing frame.
    """
    streams = {}
    for joint in sorted(set(seq1.joints) & set(seq2.joints)):
        f1, t1, p1, c1 = seq1.streams[joint]
        f2, _, p2, c2 = seq2.streams[joint]
        _, i1, i2 = np.intersect1d(f1, f2, return_indices=True)
        seen = (c1[i1] >= confidence_threshold) & (c2[i2] >= confidence_threshold)
        i1, i2 = i1[seen], i2[seen]
        if i1.size:
            X, _ = _triangulate_batch(
                p1[i1], p2[i2], cam1, cam2,
                where=lambda i: f"joint {joint} frame {f1[i1[i]]}")
            streams[joint] = JointStream(f1[i1], t1[i1], X, np.ones(i1.size))
    return SkeletonSequence(seq1.participant_id, "", seq1.sample_rate, streams)


# --- calibration files -----------------------------------------------------

_EXTRINSICS = [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] \
    + ["t1", "t2", "t3"]


def load_calibration(path):
    """Read a per-camera calibration csv.

    Columns: ``camera_id,fx,fy,cx,cy`` with an optional extrinsics block
    ``r11..r33,t1,t2,t3`` (row-major rotation). Cameras without extrinsics
    get the identity pose (use solve_relative_pose to recover the second
    camera). A missing, non-numeric or non-finite number, a non-positive
    focal length or a non-rotation raises a ParseError naming the file and
    the row.
    """
    return _parse_file(*os.path.split(path), _parse_calibration)


def _parse_calibration(fh):
    col, rows, rownums = _read_table(
        fh, "calibration",
        lambda header: ["camera_id", "fx", "fy", "cx", "cy"]
        + (_EXTRINSICS if set(_EXTRINSICS) <= set(header) else []))
    cams = {}
    for row, rownum in zip(rows, rownums):
        has_pose = "r11" in col and row[col["r11"]] != ""
        names = ["fx", "fy", "cx", "cy"] + (_EXTRINSICS if has_pose else [])
        v = [_float(row[col[name]], name, rownum) for name in names]
        pose = (np.reshape(v[4:13], (3, 3)), v[13:]) if has_pose else ()
        camera_id = row[col["camera_id"]]
        try:
            cams[camera_id] = make_camera(camera_id, Intrinsics(*v[:4]), *pose)
        except ValueError as exc:
            raise ParseError(f"camera {camera_id!r}: {exc}", row=rownum) from exc
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
    # coincident shoulders keep a residue width from gating interpolation and
    # filtering; the floor scales with the coordinates, pixels or 3D units
    size = max(np.abs(pl[il]).max(), np.abs(pr[ir]).max())
    if width <= 1e-3 * size:
        raise ShouldersUntracked(f"degenerate shoulder width {width:.3g}")
    return width


def normalize_by_shoulder_width(seq: SkeletonSequence,
                                scale: float | None = None) -> SkeletonSequence:
    """Scale all positions so the median shoulder separation is exactly 1.

    ``scale`` is ``shoulder_scale(seq)``, for a caller that already has it.
    """
    if scale is None:
        scale = shoulder_scale(seq)
    return replace(seq, streams={joint: s._replace(pos=s.pos / scale)
                                 for joint, s in seq.streams.items()})
