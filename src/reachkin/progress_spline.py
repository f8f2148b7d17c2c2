"""Progress-to-goal characterization: reaches normalized into (time fraction,
goal progress) curves, pooled per age group, fit by a cubic Bezier with pinned
endpoints, and summarized by their start/end slopes.
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
    if segment.target_position is None:
        raise ZeroInitialDistance("segment carries no target position")
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
    s = np.asarray(s, dtype=float)
    omt = 1.0 - s
    return np.stack([omt ** 3, 3 * omt ** 2 * s, 3 * omt * s ** 2, s ** 3],
                    axis=-1)


def bezier_point(control, s):
    """Evaluate a cubic Bezier at parameter values s; control is (4, 2)."""
    return _bernstein(s) @ np.asarray(control, dtype=float)


def bezier_tangent(control, s):
    control = np.asarray(control, dtype=float)
    s = np.asarray(s, dtype=float)
    omt = 1.0 - s
    d = 3 * (np.stack([omt ** 2, 2 * omt * s, s ** 2], axis=-1)
             @ np.diff(control, axis=0))
    return d


def _solve_control_points(points, s):
    """Linear least squares for P1, P2 with endpoints pinned at (0,0), (1,1)."""
    B = _bernstein(s)                      # (n, 4)
    A = B[:, 1:3]                          # free-point basis
    rhs = points - np.outer(B[:, 0], BezierFit.P0) - np.outer(B[:, 3], BezierFit.P3)
    AtA = A.T @ A
    if np.linalg.cond(AtA) > 1e12:
        raise NumericalError("sample parameters do not determine the control points")
    sol = np.linalg.solve(AtA, A.T @ rhs)  # (2, 2): rows P1, P2
    return sol[0], sol[1]


def _project_parameters(control, points, s):
    """Move each sample parameter toward the nearest point on the curve.

    Up to 25 steps of 1-D Newton on f(s) = (B(s) - p) . B'(s), vectorized
    over the samples; each update is kept only if it reduces that sample's
    squared distance, and s stays inside [0, 1].
    """
    control = np.asarray(control, dtype=float)
    dd = np.diff(np.diff(control, axis=0), axis=0)   # (2, 2)
    s = s.copy()
    active = np.ones(len(s), dtype=bool)
    for _ in range(25):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        si = s[idx]
        p = points[idx]
        diff = bezier_point(control, si) - p
        d1 = bezier_tangent(control, si)
        d2 = 6.0 * ((1.0 - si)[:, None] * dd[0] + si[:, None] * dd[1])
        num = np.sum(diff * d1, axis=1)
        den = np.sum(d1 * d1, axis=1) + np.sum(diff * d2, axis=1)
        ok = np.abs(den) >= 1e-14
        sn = np.clip(si - num / np.where(ok, den, 1.0), 0.0, 1.0)
        tiny = np.abs(sn - si) < 1e-14
        new_diff = bezier_point(control, sn) - p
        improved = np.sum(new_diff * new_diff, axis=1) <= np.sum(diff * diff,
                                                                 axis=1)
        take = ok & (tiny | improved)
        s[idx[take]] = sn[take]
        active[idx[~(ok & improved & ~tiny)]] = False
    return s


def _solve_control_points_normal(points, s, control):
    """Least squares for P1, P2 on residuals projected onto curve normals.

    The plain solve (point distance) stalls short of machine precision on
    exactly-representable data because the foot points and the solve keep
    re-agreeing on a slightly wrong curve; restricting the residual to the
    normal direction removes that coupling and converges quadratically when
    the data lie on a cubic. Can be rank deficient (straight data), so the
    caller must safeguard with the plain solve.
    """
    B = _bernstein(s)
    tan = bezier_tangent(control, s)
    nrm = np.column_stack([-tan[:, 1], tan[:, 0]])
    norms = np.linalg.norm(nrm, axis=1, keepdims=True)
    nrm = nrm / np.where(norms > 0, norms, 1.0)
    off = np.outer(B[:, 0], BezierFit.P0) + np.outer(B[:, 3], BezierFit.P3)
    A = np.column_stack([B[:, 1] * nrm[:, 0], B[:, 1] * nrm[:, 1],
                         B[:, 2] * nrm[:, 0], B[:, 2] * nrm[:, 1]])
    rhs = np.sum((points - off) * nrm, axis=1)
    q, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return q[:2], q[2:]


def _residual_rms(control, points, s):
    r = bezier_point(control, s) - points
    return float(np.sqrt(np.mean(np.sum(r * r, axis=1))))


def fit_cubic_bezier(curves, rounds: int = 3) -> BezierFit:
    """Fit one pinned cubic Bezier to the pooled samples of many curves.

    Sample parameters start at each point's tau and are refined by alternating
    rounds: project each parameter to the nearest curve point, then solve the
    control points linearly, taking whichever of the point-distance and
    normal-projected solves leaves the smaller residual after reprojection.
    The recorded residual is non-increasing across rounds.
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
