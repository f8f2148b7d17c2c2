"""Two-view 3D recovery: per-frame triangulation by reprojection-error
minimization, and shoulder-width normalization.

Triangulation is batched: one vectorized Gauss-Newton refines every frame of
a joint at once; per-point masks keep each result what it would be alone.

Both camera poses come from the calibration file. The global scale is fixed
downstream by shoulder normalization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError, ParseError
from .model_io import (JointStream, SkeletonSequence, _numbers, _parse_file,
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


@dataclass(frozen=True, eq=False)
class CameraModel:
    camera_id: str
    intrinsics: Intrinsics
    rotation: np.ndarray      # (3, 3) world -> camera, read-only
    translation: np.ndarray   # (3,), read-only

    def __post_init__(self):
        R = self.rotation
        if np.linalg.norm(R @ R.T - np.eye(3)) > 1e-9 or \
                abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with det +1")

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
    R = np.eye(3) if R is None else np.array(R, dtype=float).reshape(3, 3)
    t = np.zeros(3) if t is None else np.array(t, dtype=float).reshape(3)
    R.flags.writeable = t.flags.writeable = False
    return CameraModel(camera_id, intr, R, t)


# --- triangulation ---------------------------------------------------------

# Per-point outcome of a batched triangulation: 0 is success, any other code
# names the message of the NumericalError a failing point raises.
_PARALLEL, _AT_INFINITY, _SINGULAR, _NO_CONVERGENCE, _BEHIND = range(1, 6)
_FAILURES = {
    _PARALLEL: "viewing rays are (near-)parallel",
    _AT_INFINITY: "point at infinity",
    _SINGULAR: "normal equations singular during refinement",
    _NO_CONVERGENCE: "no convergence after 50 iterations "
                     "(best rms {rms:.3g} px)",
    _BEHIND: "point is not in front of both cameras",
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
def _triangulate_batch(px1, px2, cam1, cam2, where=None):
    """Triangulate N points by Gauss-Newton on squared pixel reprojection error.

    Linear (homogeneous least-squares) start, then up to 50 Gauss-Newton
    steps with step halving (up to 8 halvings) on all points at once. A point
    leaves once its step is below 1e-10 or no halving lowers its cost.
    Returns (X (N, 3), rms residual in px (N,)); the first failing point
    raises, its message prefixed by ``where(index)`` when given.
    """
    X, status = _linear_batch(px1, px2, cam1, cam2)
    active = np.flatnonzero(status == 0)
    r = np.full((len(X), 4), np.nan)
    r[active] = _residuals(X[active], px1[active], px2[active], cam1, cam2)
    cost = np.einsum("ij,ij->i", r, r)
    for _ in range(50):
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

        pending = ~singular & (np.linalg.norm(step, axis=1) >= 1e-10)
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
        raise NumericalError((f"{where(i)}: " if where else "")
                             + _FAILURES[status[i]].format(rms=rms[i]))
    return X, rms


def triangulate(px1, px2, cam1: CameraModel, cam2: CameraModel):
    """Triangulate one point by Gauss-Newton on squared pixel reprojection
    error (see _triangulate_batch). Returns (X, rms_residual_px)."""
    X, rms = _triangulate_batch(np.asarray(px1, dtype=float).reshape(1, 2),
                                np.asarray(px2, dtype=float).reshape(1, 2),
                                cam1, cam2)
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
    ``r11..r33,t1,t2,t3`` (row-major rotation), all of whose columns the
    header holds or none. A camera whose extrinsics are absent or all blank
    gets the identity pose. A missing (a partly blank extrinsics block
    included), non-numeric or non-finite number, a non-positive focal length
    or a non-rotation raises a ParseError naming the file and the row.
    """
    return _parse_file(*os.path.split(path), _parse_calibration)


def _parse_calibration(fh):
    col, columns, rownums = _read_table(
        fh, "calibration",
        lambda header: ["camera_id", "fx", "fy", "cx", "cy"]
        + (_EXTRINSICS if set(_EXTRINSICS) & set(header) else []))
    cams = {}
    for rownum, *row in zip(rownums, *columns):
        has_pose = any(row[col[n]] != "" for n in _EXTRINSICS if n in col)
        names = ["fx", "fy", "cx", "cy"] + (_EXTRINSICS if has_pose else [])
        # the row as a one-row table: its cells are read in file order
        v = _numbers([[cell] for cell in row], [rownum], col, names)[0].tolist()
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
        raise InputError("both shoulders must be tracked")
    common, il, ir = np.intersect1d(fl, fr, return_indices=True)
    if not common.size:
        raise InputError("shoulders never tracked on a common frame")
    width = float(np.median(np.linalg.norm(pl[il] - pr[ir], axis=1)))
    # coincident shoulders keep a residue width from gating interpolation and
    # filtering; the floor scales with the coordinates, pixels or 3D units
    size = max(np.abs(pl[il]).max(), np.abs(pr[ir]).max())
    if width <= 1e-3 * size:
        raise InputError(f"degenerate shoulder width {width:.3g}")
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
