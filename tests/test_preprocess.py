import numpy as np
import pytest

from reachkin import preprocess
from reachkin.errors import AllFramesRejected, FactorTooLarge, UnstableSpec
from reachkin.model_io import JointStream, SkeletonSequence
from reachkin.preprocess import (
    FilterSpec,
    butterworth_filter,
    downsample,
    filter_sequence,
    interpolate_outliers,
    reject_low_confidence,
)


def make_seq(positions, confidences=None, joint="left_wrist", rate=30.0):
    positions = np.asarray(positions, dtype=float)
    if confidences is None:
        confidences = np.full(len(positions), 0.9)
    frames = np.arange(len(positions))
    stream = JointStream(frames, frames / rate, positions,
                         np.asarray(confidences, dtype=float))
    return SkeletonSequence("p1", "cam0", rate, {joint: stream})


# --- confidence gate ---------------------------------------------------------

def test_confidence_gate_all_good_is_identity():
    seq = make_seq([(0, 0), (1, 1), (2, 2)])
    out, mask = reject_low_confidence(seq, 0.75)
    assert out.samples == seq.samples
    assert not mask.any()


def test_confidence_gate_interpolates_midpoint():
    seq = make_seq([(0.0, 0.0), (10.0, 4.0), (2.0, 2.0)],
                   confidences=[0.9, 0.2, 0.9])
    out, mask = reject_low_confidence(seq, 0.75)
    assert out.samples[1].position == (1.0, 1.0)
    assert out.samples[1].confidence == 1.0
    assert mask.any()
    assert list(mask.flags["left_wrist"]) == [False, True, False]


def test_confidence_gate_holds_edge_gaps():
    seq = make_seq([(9.0, 9.0), (1.0, 1.0), (2.0, 2.0)],
                   confidences=[0.1, 0.9, 0.9])
    out, _ = reject_low_confidence(seq, 0.75)
    assert out.samples[0].position == (1.0, 1.0)


def test_confidence_gate_all_rejected():
    seq = make_seq([(0, 0), (1, 1)], confidences=[0.1, 0.2])
    with pytest.raises(AllFramesRejected):
        reject_low_confidence(seq, 0.75)


def test_confidence_gate_idempotent():
    seq = make_seq([(0.0, 0.0), (10.0, 4.0), (2.0, 2.0), (3.0, 3.0)],
                   confidences=[0.9, 0.2, 0.9, 0.5])
    once, _ = reject_low_confidence(seq, 0.75)
    twice, mask = reject_low_confidence(once, 0.75)
    assert twice.samples == once.samples
    assert not mask.any()


# --- decimation --------------------------------------------------------------

def test_downsample_halves_frame_count_and_rate():
    seq = make_seq(np.zeros((1500, 2)) + np.arange(1500)[:, None])
    out = downsample(seq, 2)
    assert len(out.samples) == 750
    assert out.sample_rate == 15.0
    assert [s.frame_index for s in out.samples[:3]] == [0, 2, 4]


def test_downsample_factor_one_is_identity():
    seq = make_seq([(0, 0), (1, 1), (2, 2)])
    assert downsample(seq, 1) is seq


def test_downsample_five_frames():
    seq = make_seq([(i, i) for i in range(5)])
    out = downsample(seq, 2)
    assert [s.frame_index for s in out.samples] == [0, 2, 4]


def test_downsample_factor_too_large():
    seq = make_seq([(i, i) for i in range(5)])
    with pytest.raises(FactorTooLarge):
        downsample(seq, 5)
    with pytest.raises(FactorTooLarge):
        downsample(seq, 0)


# --- zero-phase filter -------------------------------------------------------

def test_filter_constant_passes_through():
    # unit DC gain; only a short startup transient at the edges
    spec = FilterSpec()
    x = np.full(120, 3.7)
    y = butterworth_filter(x, spec)
    assert np.allclose(y[40:80], 3.7, atol=1e-12)
    assert np.max(np.abs(y - 3.7)) < 0.03


def test_filter_preserves_length():
    spec = FilterSpec()
    x = np.random.default_rng(0).normal(size=333)
    assert len(butterworth_filter(x, spec)) == 333


def test_filter_is_linear():
    spec = FilterSpec()
    rng = np.random.default_rng(1)
    x1, x2 = rng.normal(size=200), rng.normal(size=200)
    lhs = butterworth_filter(2.0 * x1 + 0.5 * x2, spec)
    rhs = 2.0 * butterworth_filter(x1, spec) + 0.5 * butterworth_filter(x2, spec)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_filter_rejects_bad_specs():
    with pytest.raises(UnstableSpec):
        FilterSpec(cutoff=15.0, sample_rate=30.0)   # at Nyquist
    with pytest.raises(UnstableSpec):
        FilterSpec(cutoff=-1.0)
    with pytest.raises(UnstableSpec):
        FilterSpec(order=0)
    with pytest.raises(UnstableSpec):
        butterworth_filter(np.zeros(5), FilterSpec(order=2))  # too short


def test_filter_sequence_filters_every_channel():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(100, 2))
    seq = make_seq(pos)
    spec = FilterSpec()
    out = filter_sequence(seq, spec)
    got = np.array([s.position for s in out.samples])
    want = np.column_stack([butterworth_filter(pos[:, 0], spec),
                            butterworth_filter(pos[:, 1], spec)])
    assert np.allclose(got, want)
    assert [s.confidence for s in out.samples] == \
        [s.confidence for s in seq.samples]


# --- outlier interpolation ---------------------------------------------------

def test_outliers_collinear_unchanged():
    pos = np.column_stack([np.linspace(0, 1, 20), np.linspace(0, 2, 20)])
    out = interpolate_outliers(pos)
    assert np.array_equal(out, pos)


def test_outliers_teleported_point_repaired():
    pos = np.column_stack([np.linspace(0, 1, 21), np.zeros(21)])
    pos[10] = (0.5, 40.0)
    out = interpolate_outliers(pos)
    assert np.allclose(out[10], (pos[9] + pos[11]) / 2.0)
    # inliers untouched
    mask = np.ones(21, dtype=bool)
    mask[10] = False
    assert np.array_equal(out[mask], pos[mask])


def test_outliers_adjacent_pair_evenly_spaced():
    pos = np.column_stack([np.linspace(0, 1, 31), np.zeros(31)])
    pos[14] = (0.2, 50.0)
    pos[15] = (0.9, -50.0)
    out = interpolate_outliers(pos)
    lo, hi = pos[13], pos[16]
    assert np.allclose(out[14], lo + (hi - lo) / 3.0)
    assert np.allclose(out[15], lo + 2.0 * (hi - lo) / 3.0)


def test_outliers_constant_segment_unchanged():
    pos = np.tile([(2.0, 3.0)], (10, 1))
    out = interpolate_outliers(pos)
    assert np.array_equal(out, pos)


def test_outliers_requires_2d_array():
    with pytest.raises(ValueError):
        interpolate_outliers(np.zeros(10))
