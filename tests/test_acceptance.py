"""End-to-end behavioral guarantees, one test per headline property."""

import hashlib
import os
import time

import numpy as np
import pytest
from gradcheck import grad_check

from reachkin import agenet, cli, kinematics, pipeline, progress_spline, stats
from reachkin import reconstruct3d as r3d
from reachkin.preprocess import FilterSpec, butterworth_filter


def test_directness_hand_computed_paths():
    assert kinematics.directness([(0, 0), (1, 0)]) == pytest.approx(1.0, abs=1e-9)
    tri = [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 0.0, 0.0)]
    assert kinematics.directness(tri) == pytest.approx(2.0 / (2.0 * np.sqrt(2.0)),
                                                       abs=1e-9)
    back = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    assert kinematics.directness(back) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_rate_ratio_reproduction():
    # construct fits with known endpoint slopes and check the reported ratio
    for init, final, ratio in ((1.68, 1.28, 1.31), (1.90, 1.25, 1.52),
                               (2.49, 1.17, 2.13)):
        c = 0.25
        fit = progress_spline.BezierFit(p1=(c, init * c),
                                        p2=(1.0 - c, 1.0 - final * c),
                                        residual_rms=0.0, n_points=4)
        rates = progress_spline.endpoint_rates(fit)
        assert rates.initial_rate == pytest.approx(init, abs=1e-9)
        assert rates.final_rate == pytest.approx(final, abs=1e-9)
        assert round(rates.rate_ratio, 2) == ratio


def _sine_gain(freq, spec, duration=20.0):
    t = np.arange(int(duration * spec.sample_rate)) / spec.sample_rate
    y = butterworth_filter(np.sin(2 * np.pi * freq * t), spec)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    a = 2.0 * np.mean(y[mid] * np.sin(2 * np.pi * freq * t[mid]))
    b = 2.0 * np.mean(y[mid] * np.cos(2 * np.pi * freq * t[mid]))
    return float(np.hypot(a, b))


def test_zero_phase_filter_response():
    t0 = time.perf_counter()
    spec = FilterSpec(order=2, cutoff=6.0, sample_rate=30.0)

    # squared magnitude at the cutoff: two cascaded half-power passes
    assert _sine_gain(6.0, spec) == pytest.approx(0.50, rel=0.02)
    assert _sine_gain(0.6, spec) >= 0.999

    # symmetric input stays symmetric (no phase lag)
    n = 301
    x = np.exp(-0.5 * ((np.arange(n) - n // 2) / 12.0) ** 2)
    y = butterworth_filter(x, spec)
    assert np.max(np.abs(y - y[::-1])) < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_anova_and_range_distribution():
    t0 = time.perf_counter()
    grouped = stats.GroupedSamples(("a", "b", "c"),
                                   ((1, 2, 3), (2, 3, 4), (3, 4, 5)))
    res = stats.one_way_anova(grouped)
    assert res.F == 3.0
    assert res.df_between == 2 and res.df_within == 6
    assert res.p == pytest.approx(0.125, abs=1e-9)

    # two groups: F equals the squared pooled t statistic
    g1, g2 = np.array([1.0, 2.0]), np.array([4.0, 5.0])
    two = stats.one_way_anova(stats.GroupedSamples(("x", "y"),
                                                   (tuple(g1), tuple(g2))))
    sp2 = (((g1 - g1.mean()) ** 2).sum() + ((g2 - g2.mean()) ** 2).sum()) \
        / (len(g1) + len(g2) - 2)
    t = (g1.mean() - g2.mean()) / np.sqrt(sp2 * (1 / len(g1) + 1 / len(g2)))
    assert two.F == pytest.approx(t * t, abs=1e-9)

    assert stats.studentized_range_sf(3.773, 3, 12) == pytest.approx(0.05,
                                                                     abs=5e-3)
    assert time.perf_counter() - t0 < 1.0


def _rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def _test_rig():
    intr = r3d.Intrinsics(800.0, 800.0, 320.0, 240.0)
    cam1 = r3d.make_camera("cam1", intr)
    R = _rodrigues([0.0, 1.0, 0.0], -0.35)
    t = -R @ np.array([1.2, 0.1, 0.2])
    cam2 = r3d.make_camera("cam2", intr, R, t)
    return cam1, cam2


def test_two_view_triangulation():
    t0 = time.perf_counter()
    cam1, cam2 = _test_rig()
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100),
                           rng.uniform(3, 6, 100)])

    # noiseless observations come back (numerically) exactly
    Xh, _ = r3d.triangulate(cam1.project(pts), cam2.project(pts), cam1, cam2)
    assert np.linalg.norm(Xh - pts, axis=1).max() < 1e-6

    # with pixel noise the refinement never does worse than its linear start
    noise = rng.normal(0, 2.0, (30, 2, 2))   # per point: cam1, then cam2
    px1 = cam1.project(pts[:30]) + noise[:, 0]
    px2 = cam2.project(pts[:30]) + noise[:, 1]
    X0, _ = r3d._linear_batch(px1, px2, cam1, cam2)
    r0 = r3d._residuals(X0, px1, px2, cam1, cam2)
    rms0 = np.sqrt((r0 * r0).sum(axis=1) / 4.0)
    _, rms = r3d.triangulate(px1, px2, cam1, cam2)
    assert (rms <= rms0 + 1e-12).all()
    assert time.perf_counter() - t0 < 5.0


def test_bezier_control_point_recovery():
    control = np.array([[0.0, 0.0], [0.2, 0.5], [0.8, 0.9], [1.0, 1.0]])
    s = np.linspace(0.0, 1.0, 200)
    pts = progress_spline.bezier_point(control, s)
    curve = progress_spline.ProgressCurve(tau=pts[:, 0], rho=pts[:, 1],
                                          d_start=1.0, d_max=1.0)
    fit = progress_spline.fit_cubic_bezier([curve], rounds=5)
    assert np.allclose(fit.p1, control[1], atol=1e-6)
    assert np.allclose(fit.p2, control[2], atol=1e-6)
    trace = np.array(fit.residual_trace)
    assert np.all(np.diff(trace) <= 1e-15)

    rates = progress_spline.endpoint_rates(fit)
    assert rates.initial_rate == pytest.approx(2.5, abs=1e-5)
    assert rates.final_rate == pytest.approx(0.5, abs=1e-5)
    assert rates.rate_ratio == pytest.approx(5.0, abs=1e-4)


def test_gradient_check():
    t0 = time.perf_counter()
    model = agenet.AgeNet(seed=3)
    rng = np.random.default_rng(12)
    window = agenet.normalize_window(rng.normal(0.0, 1.0, (4, 200)))
    err, checked = grad_check(model, window, n_params=300, seed=4)
    assert checked >= 200
    assert err < 1e-4
    assert time.perf_counter() - t0 < 30.0


def test_planted_signal_learning(cohort_windows):
    t0 = time.perf_counter()
    pids = {w.participant_id for w in cohort_windows}
    labels = np.array([w.label for w in cohort_windows])
    assert len(pids) == 80   # 20 per bin

    const = float(labels.mean())
    baseline = agenet.cross_validate(cohort_windows, folds=5, seed=0,
                                     predictor=lambda w: const)
    report = agenet.cross_validate(cohort_windows, folds=5, epochs=15, seed=0)
    assert report.pooled_rmse < 0.6 * baseline.pooled_rmse

    # youngest and oldest bins land mostly in their own cells
    conf = report.confusion
    assert conf[0].argmax() == 0
    assert conf[-1].argmax() == len(conf) - 1
    assert time.perf_counter() - t0 < 600.0


def test_cohort_monotonic_trends(default_cohort):
    t0 = time.perf_counter()
    cohort, _ = default_cohort
    records = pipeline.cohort_metrics(cohort.sessions, ("metrics",),
                                      pipeline.PipelineConfig(), None)
    summaries = [r.summary for r in records]
    segments = [r.segments for r in records]

    labels = pipeline.GROUP_LABELS
    direct = [np.mean([s.median_directness for s in summaries
                       if s.group == lab]) for lab in labels]
    speed = [np.mean([s.median_max_speed for s in summaries
                      if s.group == lab]) for lab in labels]
    assert direct[0] < direct[1] < direct[2]
    assert speed[0] > speed[1] > speed[2]

    curves = pipeline.group_curves(summaries, segments)
    fits = pipeline.fit_group_splines(curves)
    ratios = [fits[lab][1].rate_ratio for lab in labels]
    assert ratios[0] < ratios[1] < ratios[2]
    assert time.perf_counter() - t0 < 120.0


def test_pipeline_rerun_byte_identical(small_cohort_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["pipeline", "--in", str(small_cohort_dir), "--out", str(out),
            "--seed", "17", "--epochs", "2", "--folds", "2"]
    assert cli.main(argv) == 0
    for name in pipeline.ARTIFACTS:
        assert (out / name).is_file()

    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert cli.main(argv) == 0
    second = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert first == second


# sha256 of the CV artifacts below their config-hash comment line (which
# carries the input and output paths), for the short run above. Training is
# deterministic, so any change to the forward/backward arithmetic that moves
# a single rounding shows up here. The training products go through BLAS, so
# the pins hold only on the AVX-512 OpenBLAS kernel at 2 threads.
CV_ARTIFACT_SHA256 = {
    "cv_report.csv":
        "f930a96ff5d96b23c6900857d7760f9f7f16def2bef35877f9d52fb8b48528aa",
    "confusion.csv":
        "a55df95779221d169123ff9b456f37c5d50ea9c0000f9e60e4651950b335b500",
}


@pytest.mark.blas_tied
def test_pipeline_cv_artifacts_pinned(small_cohort_dir, tmp_path):
    """The CV artifacts' digests, which hold on the AVX-512 OpenBLAS kernel
    at 2 threads: on one thread or the Haswell kernel the conv weight
    gradient sums in another order."""
    out = tmp_path / "out"
    argv = ["pipeline", "--in", str(small_cohort_dir), "--out", str(out),
            "--seed", "17", "--epochs", "2", "--folds", "2"]
    assert cli.main(argv) == 0
    for name, want in CV_ARTIFACT_SHA256.items():
        first, body = (out / name).read_bytes().split(b"\n", 1)
        assert first.startswith(b"# reachkin config_hash=")
        assert hashlib.sha256(body).hexdigest() == want, name
