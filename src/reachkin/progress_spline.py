"""Progress-to-goal characterization: reaches normalized into (time fraction,
goal progress) curves, pooled per age group, fit by a cubic Bezier with pinned
endpoints, and summarized by their start/end slopes.

The fit is element-wise numpy and Python floats: it calls no BLAS or LAPACK
routine, so its bits do not depend on the BLAS kernel or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ZeroInitialDistance
from .kinematics import ReachSegment


@dataclass(frozen=True)
class ProgressCurve:
    tau: np.ndarray    # elapsed fraction of the reach, strictly increasing, 0..1
    rho: np.ndarray    # progress to goal, 0 at start, 1 at collection
    d_start: float     # initial distance to target
    d_max: float       # largest distance to target seen during the reach


@dataclass(frozen=True)
class BezierFit:
    p1: tuple
    p2: tuple
    residual_rms: float
    n_points: int
    residual_trace: tuple = ()   # rms after the initial solve and each round

    P0 = (0.0, 0.0)
    P3 = (1.0, 1.0)

    @property
    def control_points(self):
        return np.array([self.P0, self.p1, self.p2, self.P3], dtype=float)


@dataclass(frozen=True)
class RateTriple:
    initial_rate: float
    final_rate: float

    @property
    def rate_ratio(self):
        return self.initial_rate / self.final_rate


def progress_curve(segment: ReachSegment) -> ProgressCurve:
    """Normalize one reach into a (tau, rho) curve.

    rho(t) = (d0 - d(t)) / (d0 - dN), the fraction of the total distance
    reduction achieved by frame t; tau is elapsed time over reach duration.
    Endpoints are exactly (0, 0) and (1, 1) by construction.
    """
    path = np.asarray(segment.path, dtype=float)
    d = np.linalg.norm(path - segment.target_position, axis=1)
    d0, dn = d[0], d[-1]
    if abs(d0 - dn) < 1e-12:
        raise ZeroInitialDistance("no net progress toward the target")
    rho = (d0 - d) / (d0 - dn)
    tau = np.linspace(0.0, 1.0, len(path))
    return ProgressCurve(tau=tau, rho=rho, d_start=float(d0),
                         d_max=float(d.max()))


def filter_backward_reaches(curves):
    """Discard reaches that strayed more than 10% further from the goal than
    where they started (strict inequality keeps the boundary)."""
    return [c for c in curves if c.d_max <= 1.1 * c.d_start]


def _bernstein(s):
    # cubes as products: numpy pow is about 5x slower
    s = np.asarray(s, dtype=float)
    omt = 1.0 - s
    omt2, s2 = omt * omt, s * s
    return omt2 * omt, 3 * omt2 * s, 3 * omt * s2, s2 * s


def bezier_point(control, s):
    """Evaluate a cubic Bezier at parameter values s; control is (4, 2)."""
    b0, b1, b2, b3 = _bernstein(s)
    return np.stack([b0 * c0 + b1 * c1 + b2 * c2 + b3 * c3 for c0, c1, c2, c3
                     in np.asarray(control, dtype=float).T.tolist()], axis=-1)


def bezier_tangent(control, s):
    s = np.asarray(s, dtype=float)
    omt = 1.0 - s
    b0, b1, b2 = omt * omt, 2 * omt * s, s * s
    legs = np.diff(np.asarray(control, dtype=float), axis=0)
    return np.stack([3 * (b0 * l0 + b1 * l1 + b2 * l2)
                     for l0, l1, l2 in legs.T.tolist()], axis=-1)


def _det_cond(a11, a12, a22):
    """Determinant (rounded once from its exact value) and condition number
    of the PSD [[a11, a12], [a12, a22]]; small eigenvalue = det / large."""
    (n1, d1), (n2, d2), (n3, d3) = (v.as_integer_ratio() for v in
                                    (a11, a22, a12))
    det = (n1 * n2 * d3 * d3 - n3 * n3 * d1 * d2) / (d1 * d2 * d3 * d3)
    big = 0.5 * (a11 + a22) + np.hypot(0.5 * (a11 - a22), a12)
    return det, (big * big / det if det > 0 else np.inf)


def _solve_control_points(points, s):
    """Linear least squares for P1, P2 with endpoints pinned at (0,0), (1,1),
    by cofactors; P0 is the origin, so only P3 enters the right-hand side."""
    _, b1, b2, b3 = _bernstein(s)
    a11, a12, a22 = (float(np.sum(u * v)) for u, v in
                     ((b1, b1), (b1, b2), (b2, b2)))
    det, cond = _det_cond(a11, a12, a22)
    if cond > 1e12:
        raise NumericalError("sample parameters do not determine the control points")
    u1, u2 = np.array([[np.sum(b * (points[:, k] - b3)) for k in (0, 1)]
                       for b in (b1, b2)])
    return (a22 * u1 - a12 * u2) / det, (a11 * u2 - a12 * u1) / det


def _project_parameters(control, points, s):
    """Move each sample parameter toward the nearest point on the curve.

    Up to 25 steps of 1-D Newton on f(s) = (B(s) - p) . B'(s), vectorized
    over the samples; each update is kept only if it reduces that sample's
    squared distance, and s stays inside [0, 1]. A sample that goes on has
    taken its step, so its residual carries over to the next step.
    """
    (ax, bx), (ay, by) = np.diff(np.asarray(control, dtype=float), 2,
                                 axis=0).T.tolist()
    s = s.copy()
    idx = np.arange(len(s))
    dx, dy = (bezier_point(control, s) - points).T
    for _ in range(25):
        if not len(idx):
            break
        si = s[idx]
        tx, ty = bezier_tangent(control, si).T
        num = dx * tx + dy * ty
        den = (tx * tx + ty * ty) + (dx * (6.0 * ((1 - si) * ax + si * bx))
                                     + dy * (6.0 * ((1 - si) * ay + si * by)))
        ok = np.abs(den) >= 1e-14
        sn = np.clip(si - num / np.where(ok, den, 1.0), 0.0, 1.0)
        tiny = np.abs(sn - si) < 1e-14
        x, y = (bezier_point(control, sn) - points[idx]).T
        improved = x * x + y * y <= dx * dx + dy * dy
        take = ok & (tiny | improved)
        s[idx[take]] = sn[take]
        going = ok & improved & ~tiny
        idx, dx, dy = idx[going], x[going], y[going]
    return s


def _solve_control_points_normal(points, s, control):
    """Least squares for P1, P2 on residuals projected onto curve normals.

    The plain solve (point distance) stalls short of machine precision on
    exactly-representable data because the foot points and the solve keep
    re-agreeing on a slightly wrong curve; restricting the residual to the
    normal direction removes that coupling and converges quadratically when
    the data lie on a cubic. Solved by modified Gram-Schmidt on the four
    columns, the right-hand side carried as a fifth. Straight data make it
    rank deficient: where a column keeps less than 1e-8 of its norm (about
    the root of the float epsilon) outside the earlier columns' span, it
    raises LinAlgError, and the caller falls back to the plain solve.
    """
    _, b1, b2, b3 = _bernstein(s)
    tx, ty = bezier_tangent(control, s).T
    norms = np.sqrt(tx * tx + ty * ty)
    norms = np.where(norms > 0, norms, 1.0)
    nx, ny = -ty / norms, tx / norms
    q = [b1 * nx, b1 * ny, b2 * nx, b2 * ny,
         (points[:, 0] - b3) * nx + (points[:, 1] - b3) * ny]
    floor = [1e-8 * np.sqrt(np.sum(c * c)) for c in q[:4]]
    r = np.zeros((4, 5))
    for j in range(4):
        r[j, j] = np.sqrt(np.sum(q[j] * q[j]))
        if not r[j, j] > floor[j]:
            raise np.linalg.LinAlgError("normal-projected problem is rank deficient")
        q[j] = q[j] / r[j, j]
        for k in range(j + 1, 5):
            r[j, k] = np.sum(q[j] * q[k])
            q[k] = q[k] - r[j, k] * q[j]
    x = np.zeros(4)
    for j in (3, 2, 1, 0):
        x[j] = (r[j, 4] - np.sum(r[j, j + 1:4] * x[j + 1:])) / r[j, j]
    return x[:2], x[2:]


def _residual_rms(control, points, s):
    r = bezier_point(control, s) - points
    return float(np.sqrt(np.mean(r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1])))


def fit_cubic_bezier(curves, rounds: int = 3) -> BezierFit:
    """Fit one pinned cubic Bezier to the pooled samples of many curves.

    Sample parameters start at each point's tau and are refined by alternating
    rounds: project each parameter to the nearest curve point, then solve the
    control points linearly, taking whichever of the point-distance and
    normal-projected solves leaves the smaller residual after reprojection.
    The recorded residual is non-increasing across rounds. No step calls a
    BLAS or LAPACK routine.
    """
    pts = np.concatenate([np.column_stack([c.tau, c.rho]) for c in curves])
    if len(pts) < 4:
        raise NumericalError(f"need >= 4 pooled samples, got {len(pts)}")
    if np.allclose(pts, pts[0]):
        raise NumericalError("all pooled samples identical")

    s = pts[:, 0].clip(0.0, 1.0).copy()
    p1, p2 = _solve_control_points(pts, s)
    control = np.array([BezierFit.P0, p1, p2, BezierFit.P3])
    trace = [_residual_rms(control, pts, s)]
    best = (trace[0], p1, p2)

    for _ in range(rounds):
        s = _project_parameters(control, pts, s)
        # Prefer the normal-projected solve (quadratic convergence on clean
        # data) as long as it does not increase the residual; fall back to
        # the plain point-distance solve otherwise.
        candidates = []
        try:
            candidates.append(_solve_control_points_normal(pts, s, control))
        except np.linalg.LinAlgError:
            pass
        candidates.append(_solve_control_points(pts, s))
        # The plain solve always lands at or below the previous residual, so
        # this loop cannot fall through.
        for c1, c2 in candidates:
            cand = np.array([BezierFit.P0, c1, c2, BezierFit.P3])
            sc = _project_parameters(cand, pts, s)
            rms = _residual_rms(cand, pts, sc)
            if rms <= trace[-1]:
                break
        control, s, p1, p2 = cand, sc, c1, c2
        trace.append(rms)
        if rms <= best[0]:
            best = (rms, p1, p2)
    rms, p1, p2 = best
    return BezierFit(p1=tuple(p1), p2=tuple(p2), residual_rms=rms,
                     n_points=len(pts), residual_trace=tuple(trace))


def endpoint_rates(fit: BezierFit) -> RateTriple:
    """Start and end slopes of the fitted curve in the (tau, rho) plane.

    The parametric tangent at an endpoint is 3 times the adjacent control-leg
    vector; the factor 3 cancels in dy/dx, leaving the control-polygon chord
    slope.
    """
    p0, p1 = np.asarray(BezierFit.P0), np.asarray(fit.p1)
    p2, p3 = np.asarray(fit.p2), np.asarray(BezierFit.P3)
    dx0, dy0 = p1 - p0
    dx1, dy1 = p3 - p2
    if abs(dx0) < 1e-12 or abs(dx1) < 1e-12:
        raise NumericalError("endpoint tangent is vertical in the (tau, rho) plane")
    return RateTriple(initial_rate=float(dy0 / dx0), final_rate=float(dy1 / dx1))


def sample_fit(fit: BezierFit, n: int = 101):
    """Evenly parameter-sampled (x, y) points along the fitted curve."""
    s = np.linspace(0.0, 1.0, n)
    return bezier_point(fit.control_points, s)
