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
