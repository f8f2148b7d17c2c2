"""Two-view 3D recovery: per-frame triangulation by reprojection-error
minimization, and shoulder-width normalization.

Triangulation is batched: from the midpoint of the two viewing rays, one
vectorized Gauss-Newton refines every frame of a joint at once; per-point
masks keep each result what it would be alone. It is element-wise numpy with
no BLAS or LAPACK call, so its bytes do not depend on the BLAS kernel.

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

    def project(self, X):
        """Project world points (N, 3) to pixel coordinates (N, 2)."""
        k, (x, y, z) = self.intrinsics, _to_camera(X, self)
        return np.column_stack([k.fx * (x / z) + k.cx, k.fy * (y / z) + k.cy])


def make_camera(camera_id, intr, R=None, t=None):
    R = np.eye(3) if R is None else np.array(R, dtype=float).reshape(3, 3)
    t = np.zeros(3) if t is None else np.array(t, dtype=float).reshape(3)
    R.flags.writeable = t.flags.writeable = False
    return CameraModel(camera_id, intr, R, t)


def _to_camera(X, cam):
    """World points (N, 3) as camera-frame columns (3, N); row 2 is depth."""
    R, t = cam.rotation, cam.translation[:, None]
    return R[:, :1] * X[:, 0] + R[:, 1:2] * X[:, 1] + R[:, 2:] * X[:, 2] + t


# --- triangulation ---------------------------------------------------------

# Per-point outcome of a batched triangulation: 0 is success, any other code
# names the message of the NumericalError a failing point raises.
_PARALLEL, _SINGULAR, _NO_CONVERGENCE, _BEHIND = range(1, 5)
_FAILURES = {
    _PARALLEL: "viewing rays are (near-)parallel",
    _SINGULAR: "normal equations singular during refinement",
    _NO_CONVERGENCE: "no convergence after 50 iterations "
                     "(best rms {rms:.3g} px)",
    _BEHIND: "point is not in front of both cameras",
}


def _linear_batch(px1, px2, cam1, cam2):
    """Midpoint of the closest points of the two viewing rays of (N, 2) pixel
    pairs: X (N, 3) and a status (N,), 0 where valid; X is nan elsewhere."""
    rays = []   # centre -R^T t and directions R^T [normalized pixel, 1]
    for px, cam in ((px1, cam1), (px2, cam2)):
        R, t, k = cam.rotation, cam.translation, cam.intrinsics
        mx, my = (px[:, 0] - k.cx) / k.fx, (px[:, 1] - k.cy) / k.fy
        rays.append((-(R[0] * t[0] + R[1] * t[1] + R[2] * t[2])[:, None],
                     R[0][:, None] * mx + R[1][:, None] * my + R[2][:, None]))
    (c1, d1), (c2, d2) = rays
    # s1, s2 from n = d1 x d2: |n|^2 taken as the equal a c - b^2 cancels
    n, w = np.cross(d1, d2, axis=0), c2 - c1
    nn, a, c = (n * n).sum(0), (d1 * d1).sum(0), (d2 * d2).sum(0)
    status = np.where(nn <= 1e-12 * a * c, _PARALLEL, 0)
    nn[status != 0] = np.nan
    s1, s2 = ((np.cross(w, d, axis=0) * n).sum(0) / nn for d in (d2, d1))
    X = (c1 + s1 * d1 + c2 + s2 * d2) / 2.0
    return np.ascontiguousarray(X.T), status


def _residuals(X, px1, px2, cam1, cam2):
    """Pixel reprojection residuals (N, 4): camera 1 (u, v), then camera 2."""
    return np.hstack([cam1.project(X) - px1, cam2.project(X) - px2])


def _jacobian(X, cam):
    """d(pixel)/d(X) for one camera, one point per column (2, 3, N)."""
    R, k, (x, y, z) = cam.rotation, cam.intrinsics, _to_camera(X, cam)
    du = R[0][:, None] * (k.fx / z) - R[2][:, None] * (k.fx * x / z ** 2)
    dv = R[1][:, None] * (k.fy / z) - R[2][:, None] * (k.fy * y / z ** 2)
    return np.stack([du, dv])


@np.errstate(divide="ignore", invalid="ignore")   # bad points get a status
def triangulate(px1, px2, cam1, cam2):
    """Triangulate N points by Gauss-Newton on squared pixel reprojection error.

    Ray-midpoint start, then up to 50 Gauss-Newton steps with step halving
    (up to 8 halvings) on all points at once. A point leaves once its step is
    below 1e-10 or no halving lowers its cost. Returns (X (N, 3), rms residual
    in px (N,)); the first failing point raises a NumericalError whose
    ``point`` is its index.
    """
    X, status = _linear_batch(px1, px2, cam1, cam2)
    active = np.flatnonzero(status == 0)
    r = _residuals(X, px1, px2, cam1, cam2)   # nan where X is
    cost = np.einsum("ij,ij->i", r, r)
    for _ in range(50):
        if not active.size:
            break
        # one point per column, so each sum runs element-wise over the points
        J = np.concatenate([_jacobian(X[active], cam1),
                            _jacobian(X[active], cam2)])
        H = (J[:, :, None] * J[:, None]).sum(0)
        g = (J * r[active].T[:, None]).sum(0)
        # H^-1 = C^T / det, C the cofactors of H
        p, q = [1, 2, 0], [2, 0, 1]
        C = H[p][:, p] * H[q][:, q] - H[p][:, q] * H[q][:, p]
        det = (H[0] * C[0]).sum(0)
        step = (-(C * g[:, None]).sum(0) / det).T
        status[active[det == 0]] = _SINGULAR

        pending = (det != 0) & (np.sqrt((step * step).sum(1)) >= 1e-10)
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
    in_front = (_to_camera(X, cam1)[2] > 0) & (_to_camera(X, cam2)[2] > 0)
    status[(status == 0) & ~in_front] = _BEHIND

    rms = np.sqrt(cost / 4.0)
    bad = np.flatnonzero(status)
    if bad.size:
        i = bad[0]
        exc = NumericalError(_FAILURES[status[i]].format(rms=rms[i]))
        exc.point = i
        raise exc
    return X, rms


def triangulate_sequences(seq1: SkeletonSequence, seq2: SkeletonSequence,
                          cam1: CameraModel, cam2: CameraModel,
                          confidence_threshold: float = 0.75):
    """Per-frame independent triangulation of every joint seen by both
    cameras, batched over each joint's frames.

    Frames where either camera's observation fails the confidence gate are
    skipped; the resulting gaps are repaired downstream by preprocessing. A
    failure names the joint and the first failing frame, as does the
    InputError for a frame the two cameras time over half a frame apart.
    """
    streams = {}
    for joint in sorted(seq1.streams.keys() & seq2.streams.keys()):
        f1, t1, p1, c1 = seq1.streams[joint]
        f2, t2, p2, c2 = seq2.streams[joint]
        _, i1, i2 = np.intersect1d(f1, f2, return_indices=True)
        apart = np.abs(t1[i1] - t2[i2]) > 0.5 / seq1.sample_rate
        if apart.any():
            a, b = i1[apart][0], i2[apart][0]
            raise InputError(f"joint {joint} frame {f1[a]}: camera times {t1[a]} "
                             f"and {t2[b]} s are over half a frame apart")
        seen = (c1[i1] >= confidence_threshold) & (c2[i2] >= confidence_threshold)
        i1, i2 = i1[seen], i2[seen]
        if i1.size:
            try:
                X, _ = triangulate(p1[i1], p2[i2], cam1, cam2)
            except NumericalError as exc:
                raise NumericalError(
                    f"joint {joint} frame {f1[i1[exc.point]]}: {exc}") from exc
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
    cams, first_row = {}, {}
    for rownum, *row in zip(rownums, *columns):
        camera_id = row[col["camera_id"]]
        first = first_row.setdefault(camera_id, rownum)
        if first != rownum:
            raise ParseError(f"camera {camera_id!r} repeats row {first}",
                             row=rownum)
        has_pose = any(row[col[n]] != "" for n in _EXTRINSICS if n in col)
        names = ["fx", "fy", "cx", "cy"] + (_EXTRINSICS if has_pose else [])
        # the row as a one-row table: its cells are read in file order
        v = _numbers([[cell] for cell in row], [rownum], col, names)[0].tolist()
        pose = (np.reshape(v[4:13], (3, 3)), v[13:]) if has_pose else ()
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
                                scale: float) -> SkeletonSequence:
    """Divide all positions by ``scale``, the sequence's ``shoulder_scale``,
    so the median shoulder separation is exactly 1."""
    return replace(seq, streams={joint: s._replace(pos=s.pos / scale)
                                 for joint, s in seq.streams.items()})
