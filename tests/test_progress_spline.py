import os
import subprocess
import sys

import numpy as np
import pytest

from reachkin import progress_spline as ps
from reachkin import synth
from reachkin.errors import NumericalError, ZeroInitialDistance
from reachkin.kinematics import ReachSegment


def make_segment(path, target):
    return ReachSegment("p1", "left", None, np.asarray(path, dtype=float),
                        dt=1.0 / 30.0,
                        target_position=np.asarray(target, dtype=float))


def test_progress_curve_straight_constant_speed():
    # approaching the goal at constant speed: progress equals elapsed fraction
    t = np.linspace(0.0, 1.0, 40)
    path = np.column_stack([2.0 * t, np.zeros_like(t)])
    curve = ps.progress_curve(make_segment(path, (2.0, 0.0)))
    assert np.allclose(curve.rho, curve.tau, atol=1e-12)
    assert curve.rho[0] == 0.0 and curve.rho[-1] == 1.0
    assert curve.d_start == pytest.approx(2.0)


def test_progress_curve_stationary_start():
    t = np.linspace(0.0, 1.0, 41)
    x = np.where(t < 0.5, 0.0, 2.0 * (t - 0.5))
    path = np.column_stack([x, np.zeros_like(x)])
    curve = ps.progress_curve(make_segment(path, (1.0, 0.0)))
    assert np.allclose(curve.rho[t < 0.5], 0.0)
    assert curve.rho[-1] == 1.0


def test_progress_curve_minimum_jerk_profile():
    u = np.linspace(0.0, 1.0, 100)
    start, target = np.array([0.3, 1.2]), np.array([1.8, 0.4])
    path = start + synth.minimum_jerk(u)[:, None] * (target - start)
    curve = ps.progress_curve(make_segment(path, target))
    assert np.max(np.abs(curve.rho - synth.minimum_jerk(curve.tau))) < 1e-6


def test_progress_curve_no_net_progress():
    path = [(1.0, 0.0), (0.0, 1.0)]   # both 1 unit from the origin target
    with pytest.raises(ZeroInitialDistance):
        ps.progress_curve(make_segment(path, (0.0, 0.0)))


def _curve_with_dmax(d_max):
    return ps.ProgressCurve(tau=np.linspace(0, 1, 5),
                            rho=np.linspace(0, 1, 5),
                            d_start=1.0, d_max=d_max)


def test_filter_backward_reaches_threshold():
    kept = _curve_with_dmax(1.05)
    boundary = _curve_with_dmax(1.10)
    dropped = _curve_with_dmax(1.15)
    out = ps.filter_backward_reaches([kept, boundary, dropped])
    assert out == [kept, boundary]


def _sampled_curve(control, n=150):
    pts = ps.bezier_point(np.asarray(control, dtype=float),
                          np.linspace(0.0, 1.0, n))
    return ps.ProgressCurve(tau=pts[:, 0], rho=pts[:, 1],
                            d_start=1.0, d_max=1.0)


def test_fit_recovers_control_points():
    control = [(0, 0), (0.3, 0.7), (0.7, 0.95), (1, 1)]
    fit = ps.fit_cubic_bezier([_sampled_curve(control)], rounds=5)
    assert np.allclose(fit.p1, control[1], atol=1e-6)
    assert np.allclose(fit.p2, control[2], atol=1e-6)
    assert fit.residual_rms < 1e-8
    assert fit.n_points == 150


def test_fit_diagonal_curve():
    # straight diagonal data: fitted curve stays on the diagonal
    tau = np.linspace(0.0, 1.0, 60)
    curve = ps.ProgressCurve(tau=tau, rho=tau.copy(), d_start=1.0, d_max=1.0)
    fit = ps.fit_cubic_bezier([curve])
    on_curve = ps.sample_fit(fit, 50)
    assert np.allclose(on_curve[:, 0], on_curve[:, 1], atol=1e-9)
    assert fit.residual_rms < 1e-9


def test_fit_residual_trace_non_increasing():
    rng = np.random.default_rng(4)
    tau = np.linspace(0.0, 1.0, 120)
    rho = np.clip(synth.minimum_jerk(tau) + rng.normal(0, 0.03, tau.shape),
                  0, 1)
    rho[0], rho[-1] = 0.0, 1.0
    curve = ps.ProgressCurve(tau=tau, rho=rho, d_start=1.0, d_max=1.0)
    fit = ps.fit_cubic_bezier([curve], rounds=6)
    trace = np.array(fit.residual_trace)
    assert len(trace) == 7
    assert np.all(np.diff(trace) <= 1e-15)
    assert fit.residual_rms == pytest.approx(trace.min())


def test_fit_pools_multiple_curves():
    control = [(0, 0), (0.25, 0.6), (0.75, 0.9), (1, 1)]
    fit_one = ps.fit_cubic_bezier([_sampled_curve(control)], rounds=5)
    fit_two = ps.fit_cubic_bezier([_sampled_curve(control, 150),
                                   _sampled_curve(control, 80)], rounds=5)
    assert np.allclose(fit_two.p1, fit_one.p1, atol=1e-6)
    assert np.allclose(fit_two.p2, fit_one.p2, atol=1e-6)
    assert fit_two.n_points == 230


def test_fit_rank_deficient_inputs():
    same = ps.ProgressCurve(tau=np.full(10, 0.5), rho=np.full(10, 0.5),
                            d_start=1.0, d_max=1.0)
    with pytest.raises(NumericalError, match="^all pooled samples identical$"):
        ps.fit_cubic_bezier([same])
    short = ps.ProgressCurve(tau=np.array([0.0, 1.0]),
                             rho=np.array([0.0, 1.0]),
                             d_start=1.0, d_max=1.0)
    with pytest.raises(NumericalError, match="^need >= 4 pooled samples, "
                                             "got 2$"):
        ps.fit_cubic_bezier([short])


def test_endpoint_rates_from_control_polygon():
    fit = ps.BezierFit(p1=(0.2, 0.5), p2=(0.8, 0.9), residual_rms=0.0,
                       n_points=4)
    rates = ps.endpoint_rates(fit)
    assert rates.initial_rate == pytest.approx(2.5)
    assert rates.final_rate == pytest.approx(0.5)
    assert rates.rate_ratio == pytest.approx(5.0)


def test_endpoint_rates_vertical_tangent():
    fit = ps.BezierFit(p1=(0.0, 0.5), p2=(0.8, 0.9), residual_rms=0.0,
                       n_points=4)
    vertical = r"^endpoint tangent is vertical in the \(tau, rho\) plane$"
    with pytest.raises(NumericalError, match=vertical):
        ps.endpoint_rates(fit)
    fit = ps.BezierFit(p1=(0.2, 0.5), p2=(1.0, 0.9), residual_rms=0.0,
                       n_points=4)
    with pytest.raises(NumericalError, match=vertical):
        ps.endpoint_rates(fit)


def test_bezier_point_and_tangent_endpoints():
    control = np.array([[0, 0], [0.2, 0.5], [0.8, 0.9], [1, 1]], dtype=float)
    assert np.allclose(ps.bezier_point(control, 0.0), control[0])
    assert np.allclose(ps.bezier_point(control, 1.0), control[3])
    assert np.allclose(ps.bezier_tangent(control, 0.0),
                       3 * (control[1] - control[0]))
    assert np.allclose(ps.bezier_tangent(control, 1.0),
                       3 * (control[3] - control[2]))



@pytest.mark.parametrize("seed", range(20))
def test_plain_solve_matches_lapack_solve(seed):
    # the cofactor solve of the 2x2 normal equations against LAPACK
    rng = np.random.default_rng(seed)
    points, s = rng.uniform(-0.5, 1.5, (50, 2)), rng.uniform(0.0, 1.0, 50)
    A = np.column_stack([3 * (1 - s) ** 2 * s, 3 * (1 - s) * s ** 2])
    rhs = points - np.outer(s ** 3, ps.BezierFit.P3)
    want = np.linalg.solve(A.T @ A, A.T @ rhs)
    p1, p2 = ps._solve_control_points(points, s)
    np.testing.assert_allclose(np.stack([p1, p2]), want, rtol=1e-12)


@pytest.mark.parametrize("u12", [0.5, 1 - 2.0 ** -20, 0.75 + 2.0 ** -24,
                                 -0.3125])
def test_closed_form_condition_number_matches_lapack(u12):
    # M = U^T U for an upper-triangular U: LAPACK's SVD of U is accurate to
    # its last bits, so cond(M) = cond(U)^2 is the oracle. The entries are
    # short dyadic numbers, so M is stored exactly. The sweep runs from
    # about 5e9 to 3e14 and crosses the 1e12 refusal bound.
    conds = []
    for k in range(16, 24):
        u22 = 2.0 ** -k
        a11, a12, a22 = 1.0, u12, u12 * u12 + u22 * u22
        det, cond = ps._det_cond(a11, a12, a22)
        assert det == u22 * u22
        want = np.linalg.cond(np.array([[1.0, u12], [0.0, u22]])) ** 2
        assert cond == pytest.approx(want, rel=1e-9)
        conds.append(cond)
    assert min(conds) < 1e12 < max(conds)


def test_closed_form_condition_number_of_well_conditioned_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=(5, 2))
        M = a.T @ a
        _, cond = ps._det_cond(M[0, 0], M[0, 1], M[1, 1])
        assert cond == pytest.approx(np.linalg.cond(M), rel=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_normal_solve_matches_lapack_lstsq(seed):
    # modified Gram-Schmidt against LAPACK on full-rank problems
    rng = np.random.default_rng(seed)
    control = np.array([(0.0, 0.0), *rng.uniform(0.0, 1.0, (2, 2)),
                        (1.0, 1.0)])
    s = rng.uniform(0.0, 1.0, 80)
    points = ps.bezier_point(control, s) + rng.normal(0.0, 0.02, (80, 2))
    tan = ps.bezier_tangent(control, s)
    nrm = np.column_stack([-tan[:, 1], tan[:, 0]])
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    b1, b2 = 3 * (1 - s) ** 2 * s, 3 * (1 - s) * s ** 2
    A = np.column_stack([b1 * nrm[:, 0], b1 * nrm[:, 1],
                         b2 * nrm[:, 0], b2 * nrm[:, 1]])
    rhs = np.sum((points - np.outer(s ** 3, ps.BezierFit.P3)) * nrm, axis=1)
    want, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    p1, p2 = ps._solve_control_points_normal(points, s, control)
    np.testing.assert_allclose(np.concatenate([p1, p2]), want, rtol=1e-9,
                               atol=1e-9)


def test_normal_solve_refuses_collinear_input(monkeypatch):
    # straight control points give every sample the same normal, so the
    # four columns span two dimensions; the fit falls back to the plain
    # solve in every round and still fits the diagonal
    diagonal = np.array([(0, 0), (1 / 3, 1 / 3), (2 / 3, 2 / 3), (1, 1)])
    tau = np.linspace(0.0, 1.0, 60)
    points = np.column_stack([tau, tau])
    with pytest.raises(np.linalg.LinAlgError, match="^normal-projected "
                                                    "problem is rank "
                                                    "deficient$"):
        ps._solve_control_points_normal(points, tau, diagonal)
    refused = []
    original = ps._solve_control_points_normal

    def watched(*args):
        try:
            return original(*args)
        except np.linalg.LinAlgError:
            refused.append(True)
            raise

    monkeypatch.setattr(ps, "_solve_control_points_normal", watched)
    curve = ps.ProgressCurve(tau=tau, rho=tau.copy(), d_start=1.0, d_max=1.0)
    fit = ps.fit_cubic_bezier([curve])
    assert refused == [True] * 3
    on_curve = ps.sample_fit(fit, 50)
    assert np.allclose(on_curve[:, 0], on_curve[:, 1], atol=1e-9)
    assert fit.residual_rms < 1e-9


@pytest.mark.parametrize("tau", [0.5, 0.3, 0.77])
def test_fit_refuses_samples_sharing_one_tau(tau):
    # every parameter starts at the one tau, so the two free Bernstein
    # columns are proportional and the normal equations are singular
    curve = ps.ProgressCurve(tau=np.full(8, tau), rho=np.linspace(0, 1, 8),
                             d_start=1.0, d_max=1.0)
    with pytest.raises(NumericalError, match="^sample parameters do not "
                                             "determine the control "
                                             "points$"):
        ps.fit_cubic_bezier([curve])


def test_fit_calls_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("lstsq", "solve", "cond", "svd", "inv", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(4)
    tau = np.linspace(0.0, 1.0, 120)
    rho = synth.minimum_jerk(tau) + rng.normal(0, 0.03, tau.shape)
    noisy = ps.ProgressCurve(tau=tau, rho=rho, d_start=1.0, d_max=1.0)
    straight = ps.ProgressCurve(tau=tau, rho=tau.copy(), d_start=1.0,
                                d_max=1.0)
    control = [(0, 0), (0.3, 0.7), (0.7, 0.95), (1, 1)]
    for curves in ([noisy], [straight], [_sampled_curve(control)]):
        fit = ps.fit_cubic_bezier(curves)
        assert np.isfinite(ps.sample_fit(fit)).all()


def test_progress_bytes_same_under_default_blas_one_thread_and_avx2(
        tmp_path, small_cohort_dir):
    """`reachkin progress` writes the same spline.csv and
    progress_curves.csv below their headers under the default BLAS, one
    OpenBLAS thread and OpenBLAS's Haswell (AVX2) kernel: the fit calls no
    BLAS or LAPACK routine."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ps.__file__))
    bodies = []
    for k, setting in enumerate([{}, {"OPENBLAS_NUM_THREADS": "1"},
                                 {"OPENBLAS_CORETYPE": "Haswell"}]):
        out = tmp_path / f"out{k}"
        subprocess.run([sys.executable, "-m", "reachkin.cli", "progress",
                        "--in", str(small_cohort_dir), "--out", str(out)],
                       env={**env, **setting}, check=True, timeout=120,
                       capture_output=True)
        bodies.append([(out / name).read_bytes().split(b"\n", 1)[1]
                       for name in ("spline.csv", "progress_curves.csv")])
    assert bodies[1] == bodies[0] and bodies[2] == bodies[0]
