import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkin import kinematics, synth
from reachkin.errors import InputError, ZeroPathLength
from reachkin.kinematics import (
    directness,
    max_speed,
    participant_medians,
    reach_measures,
    segment_reaches,
    velocity_profile,
)
from reachkin.model_io import JointStream, SkeletonSequence, TargetEvent, TargetLog


def make_session_seq(n=60, rate=30.0):
    """Both wrists drifting right at 1 unit/s, plus still shoulders."""
    frames = np.arange(n)
    t = frames / rate
    streams = {joint: JointStream(frames, t, np.column_stack([t, np.full(n, y)]),
                                  np.full(n, 0.9))
               for joint, y in (("left_wrist", 0.0), ("right_wrist", 1.0),
                                ("left_shoulder", -1.0), ("right_shoulder", -1.0))}
    return SkeletonSequence("p1", "cam0", rate, streams)


def test_segment_reaches_one_per_collected_target():
    seq = make_session_seq()
    events = (
        TargetEvent(0, "left", (0.2, 0.4), 0.0, 0.5),
        TargetEvent(0, "right", (0.8, 0.4), 0.0, 0.8),
        TargetEvent(1, "left", (0.3, 0.5), 1.0, None),     # uncollected
        TargetEvent(1, "right", (0.7, 0.5), 1.0, 1.5),
    )
    segs = segment_reaches(seq, TargetLog(events), np.asarray)
    assert len(segs) == 3
    assert [(s.hand, s.target.target_id) for s in segs] == \
        [("left", 0), ("right", 0), ("right", 1)]
    # boundary frames included: 0.0..0.5 at 30 Hz is frames 0..15
    assert segs[0].n_frames == 16
    assert segs[0].path[0][0] == pytest.approx(0.0)
    assert segs[0].path[-1][0] == pytest.approx(0.5)


def test_segment_reaches_empty_window():
    seq = make_session_seq(n=30)
    events = (TargetEvent(0, "left", (0.2, 0.4), 5.0, 5.01),
              TargetEvent(0, "right", (0.8, 0.4), 5.0, 5.01))
    with pytest.raises(InputError, match=r"^target 0 \(left\): 0 frame\(s\) "
                                         r"in \[5\.0, 5\.01\]$"):
        segment_reaches(seq, TargetLog(events), np.asarray)


def test_segment_reaches_maps_target_position():
    seq = make_session_seq()
    events = (TargetEvent(0, "left", (0.2, 0.4), 0.0, 0.5),
              TargetEvent(0, "right", (0.8, 0.4), 0.0, 0.5))
    segs = segment_reaches(seq, TargetLog(events),
                           target_to_path=lambda p: np.multiply(p, 10.0))
    assert np.allclose(segs[0].target_position, (2.0, 4.0))


def test_directness_straight_line():
    assert directness([(0, 0), (0.5, 0.5), (1, 1)]) == pytest.approx(1.0)


def test_directness_zero_path():
    with pytest.raises(ZeroPathLength):
        directness([(1, 1), (1, 1), (1, 1)])


@settings(max_examples=30, deadline=None)
@given(angle=st.floats(0, 2 * np.pi), scale=st.floats(0.1, 10),
       dx=st.floats(-5, 5), dy=st.floats(-5, 5))
def test_directness_rigid_and_scale_invariant(angle, scale, dx, dy):
    path = np.array([[0.0, 0.0], [1.0, 0.4], [1.5, -0.2], [2.0, 0.1]])
    R = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    moved = scale * path @ R.T + np.array([dx, dy])
    assert directness(moved) == pytest.approx(directness(path), rel=1e-9)


def test_velocity_profile_quadratic_positions():
    # x = t^2 sampled at t = 0..3 with dt = 1: central diffs give 2t exactly
    path = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [9.0, 0.0]])
    v = velocity_profile(path, dt=1.0)
    assert np.allclose(v, [1.0, 2.0, 4.0, 5.0])


def test_velocity_profile_uniform_speed():
    t = np.linspace(0, 1, 31)
    path = np.column_stack([3.0 * t, 4.0 * t])   # speed 5 everywhere
    v = velocity_profile(path, dt=t[1] - t[0])
    assert np.allclose(v, 5.0)


def test_velocity_profile_reversal_symmetry():
    rng = np.random.default_rng(0)
    path = rng.normal(size=(25, 2))
    v = velocity_profile(path, 0.1)
    assert np.allclose(v, velocity_profile(path[::-1], 0.1)[::-1])


def _old_velocity_profile(path, dt):
    """The hand-written differences velocity_profile replaced: one-sided at
    the ends, |x[t+1] - x[t-1]| / (2 dt) inside."""
    speeds = np.empty(len(path))
    speeds[0] = np.linalg.norm(path[1] - path[0]) / dt
    speeds[-1] = np.linalg.norm(path[-1] - path[-2]) / dt
    if len(path) > 2:
        speeds[1:-1] = np.linalg.norm(path[2:] - path[:-2], axis=1) / (2 * dt)
    return speeds


# pixel and shoulder-width coordinates: 0 or of magnitude 1e-100 to 1e100,
# where no square in a norm under- or overflows, so halving stays exact
_COORD = st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                   st.floats(-1e100, -1e-100))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), dims=st.sampled_from([2, 3]),
       data=st.data(), dt=st.floats(1e-3, 10.0))
def test_velocity_profile_matches_the_difference_formula(n, dims, data, dt):
    path = np.array(data.draw(st.lists(st.lists(_COORD, min_size=dims,
                                                max_size=dims),
                                       min_size=n, max_size=n)))
    got = velocity_profile(path, dt)
    assert got.view(np.int64).tolist() == \
        _old_velocity_profile(path, dt).view(np.int64).tolist()


def test_velocity_profile_too_short():
    with pytest.raises(ZeroPathLength):
        velocity_profile([(0.0, 0.0)], 0.1)


def test_max_speed_minimum_jerk_peak():
    # peak speed of a minimum-jerk reach is 1.875 * amplitude / duration
    T, A, rate = 1.0, 2.0, 16.0   # even intervals: a sample lands on the peak
    t = np.arange(int(T * rate) + 1) / rate
    x = A * synth.minimum_jerk(t / T)
    path = np.column_stack([x, np.zeros_like(x)])
    peak = max_speed(path, 1.0 / rate)
    assert peak == pytest.approx(1.875 * A / T, rel=0.02)


def test_participant_medians_even_count():
    def seg(d):
        # straight path of length d sampled at 3 points; directness 1
        path = np.column_stack([np.linspace(0, d, 3), np.zeros(3)])
        return kinematics.ReachSegment("p1", "left", None, path, dt=1.0,
                                       target_position=path[-1])

    # max speeds 0.2 and 0.8 -> median 0.5 (mean of the middle pair)
    summary = participant_medians(
        [reach_measures(seg(0.4)), reach_measures(seg(1.6))], "p1", 9, "6-10")
    assert summary.median_max_speed == pytest.approx(0.5)
    assert summary.median_directness == pytest.approx(1.0)
    assert summary.reach_count == 2
    assert summary.group == "6-10"


def test_participant_medians_no_segments():
    with pytest.raises(InputError, match="^no segments$"):
        participant_medians([], "p1", 9, "6-10")
