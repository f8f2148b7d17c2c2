import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, lfilter

from reachkin import agenet, preprocess
from reachkin.errors import ConfigError, InputError
from reachkin.model_io import JointStream, SkeletonSequence
from reachkin.preprocess import (
    FilterSpec,
    butterworth_coefficients,
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
    assert list(out.samples) == list(seq.samples)
    assert not mask.any()


def test_confidence_gate_interpolates_midpoint():
    seq = make_seq([(0.0, 0.0), (10.0, 4.0), (2.0, 2.0)],
                   confidences=[0.9, 0.2, 0.9])
    out, mask = reject_low_confidence(seq, 0.75)
    assert list(out.samples)[1].position == (1.0, 1.0)
    assert list(out.samples)[1].confidence == 1.0
    assert mask.any()
    assert list(mask.flags["left_wrist"]) == [False, True, False]


def test_confidence_gate_holds_edge_gaps():
    seq = make_seq([(9.0, 9.0), (1.0, 1.0), (2.0, 2.0)],
                   confidences=[0.1, 0.9, 0.9])
    out, _ = reject_low_confidence(seq, 0.75)
    assert list(out.samples)[0].position == (1.0, 1.0)


def test_confidence_gate_all_rejected():
    seq = make_seq([(0, 0), (1, 1)], confidences=[0.1, 0.2])
    with pytest.raises(InputError, match="every frame below 0.75$"):
        reject_low_confidence(seq, 0.75)


def test_confidence_gate_idempotent():
    seq = make_seq([(0.0, 0.0), (10.0, 4.0), (2.0, 2.0), (3.0, 3.0)],
                   confidences=[0.9, 0.2, 0.9, 0.5])
    once, _ = reject_low_confidence(seq, 0.75)
    twice, mask = reject_low_confidence(once, 0.75)
    assert list(twice.samples) == list(once.samples)
    assert not mask.any()


# --- decimation --------------------------------------------------------------

def test_downsample_halves_frame_count_and_rate():
    seq = make_seq(np.zeros((1500, 2)) + np.arange(1500)[:, None])
    out = downsample(seq, 2)
    assert len(out.samples) == 750
    assert out.sample_rate == 15.0
    assert [s.frame_index for s in list(out.samples)[:3]] == [0, 2, 4]


def test_downsample_factor_one_is_identity():
    seq = make_seq([(0, 0), (1, 1), (2, 2)])
    assert downsample(seq, 1) is seq


def test_downsample_five_frames():
    seq = make_seq([(i, i) for i in range(5)])
    out = downsample(seq, 2)
    assert [s.frame_index for s in out.samples] == [0, 2, 4]


def test_downsample_keeps_one_frame_grid_when_a_joint_misses_rows():
    def stream(frames):   # position (frame, -frame) tells a sample's frame
        pos = np.column_stack([frames, -frames]).astype(float)
        return JointStream(frames, frames / 30.0, pos, np.ones(len(frames)))

    frames = np.arange(1500)
    gap = (frames >= 100) & (frames <= 108)
    seq = SkeletonSequence("p1", "cam0", 30.0,
                           {"left_wrist": stream(frames[~gap]),
                            "right_wrist": stream(frames)})
    out = downsample(seq, 2)
    left = out.streams["left_wrist"].frames
    right = out.streams["right_wrist"].frames
    assert np.array_equal(right, frames[::2])
    assert np.array_equal(left, right[(right < 100) | (right > 108)])
    channels = agenet.wrist_channels(out)
    assert channels.shape == (4, 745)
    assert np.array_equal(channels[:2], channels[2:])   # paired by frame


def test_downsample_factor_too_large():
    seq = make_seq([(i, i) for i in range(5)])
    with pytest.raises(InputError, match="factor 5 leaves fewer than 2 frames$"):
        downsample(seq, 5)
    with pytest.raises(InputError, match="^factor must be >= 1, got 0$"):
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
    with pytest.raises(ConfigError, match=r"^cutoff 15\.0 Hz outside "):
        FilterSpec(cutoff=15.0, sample_rate=30.0)   # at Nyquist
    with pytest.raises(ConfigError, match=r"^cutoff -1\.0 Hz outside "):
        FilterSpec(cutoff=-1.0)
    with pytest.raises(ConfigError, match="^filter order must be >= 1, got 0$"):
        FilterSpec(order=0)
    with pytest.raises(ConfigError, match="^series of length 5 too short "):
        butterworth_filter(np.zeros(5), FilterSpec(order=2))


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 6), rate=st.floats(1.0, 1000.0),
       nyquist_frac=st.floats(1e-3, 0.999), extra=st.integers(0, 300),
       dims=st.sampled_from([None, 1, 2, 8]), seed=st.integers(0, 2**32 - 1))
def test_filter_matches_scipy_exactly(order, rate, nyquist_frac, extra, dims,
                                      seed):
    # scipy.signal is the oracle: the same coefficients and the same two
    # lfilter passes over the same reflect padding, to the last bit
    spec = FilterSpec(order, nyquist_frac * rate / 2.0, rate)
    n = 3 * order + extra
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 50.0, size=(n,) if dims is None else (n, dims)) + 300.0
    b, a = butter(order, spec.cutoff, btype="low", fs=rate)
    assert all(np.array_equal(got, want)
               for got, want in zip(butterworth_coefficients(spec), (b, a)))
    pad = 3 * order
    xp = np.pad(x, [(pad, pad)] + [(0, 0)] * (x.ndim - 1), mode="reflect")
    want = lfilter(b, a, lfilter(b, a, xp, axis=0)[::-1], axis=0)[::-1]
    want = want[pad:len(xp) - pad]
    got = butterworth_filter(x, spec)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # signs of zeros too


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
