"""Reach segmentation and per-reach outcome measures: directness of path,
velocity profiles, peak speed, and per-participant medians.

Paths are expressed in shoulder-width units so measures are comparable across
body sizes; speeds are shoulder-widths per second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ZeroPathLength
from .model_io import SkeletonSequence, TargetEvent, TargetLog

HAND_JOINT = {"left": "left_wrist", "right": "right_wrist"}


@dataclass(frozen=True)
class ReachSegment:
    participant_id: str
    hand: str                 # "left" | "right"
    target: TargetEvent
    path: np.ndarray          # (N, D) wrist positions, t_appear..t_hit
    dt: float
    target_position: np.ndarray   # target in the path's frame

    @property
    def n_frames(self):
        return len(self.path)


@dataclass(frozen=True)
class MetricSummary:
    participant_id: str
    age: int
    group: str
    median_directness: float
    median_max_speed: float
    reach_count: int


def segment_reaches(seq: SkeletonSequence, targets: TargetLog,
                    target_to_path):
    """Cut one segment per (hand, collected target) out of a session.

    The left hand is paired with the left-side target of each pair and the
    right hand with the right-side target. Uncollected targets are skipped.
    ``target_to_path`` maps a normalized-screen target position to an array
    in the path's coordinate frame.
    """
    segments = []
    dt = 1.0 / seq.sample_rate
    arrays = {side: seq.joint_arrays(joint) for side, joint in HAND_JOINT.items()}

    for left, right in targets.pairs():
        for ev in (left, right):
            if not ev.collected:
                continue
            _, times, pos, _ = arrays[ev.side]
            sel = (times >= ev.t_appear - dt / 2) & (times <= ev.t_hit + dt / 2)
            if sel.sum() < 2:
                raise InputError(
                    f"target {ev.target_id} ({ev.side}): "
                    f"{int(sel.sum())} frame(s) in [{ev.t_appear}, {ev.t_hit}]")
            segments.append(ReachSegment(
                participant_id=seq.participant_id,
                hand=ev.side,
                target=ev,
                path=pos[sel].copy(),
                dt=dt,
                target_position=target_to_path(ev.position),
            ))
    return segments


def directness(path) -> float:
    """Straight-line start-to-end distance over traveled path length, in (0,1]."""
    path = np.asarray(path, dtype=float)
    steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
    total = steps.sum()
    if total == 0.0:
        raise ZeroPathLength("hand did not move during the reach")
    return float(np.linalg.norm(path[-1] - path[0]) / total)


def velocity_profile(path, dt) -> np.ndarray:
    """Unsigned speed per frame from two-point finite differences.

    Interior frames use the central difference |x[t+1] - x[t-1]| / (2 dt);
    the endpoints fall back to one-sided differences.
    """
    path = np.asarray(path, dtype=float)
    if len(path) < 2:
        raise ZeroPathLength("need at least 2 frames for a velocity profile")
    steps = np.gradient(path, axis=0)
    speeds = np.linalg.norm(steps, axis=1) / dt
    # one vector's norm is a dot product, which rounds the last bit unlike
    # the batched norm for about a tenth of vectors: the ends keep it
    speeds[[0, -1]] = [np.linalg.norm(s) / dt for s in steps[[0, -1]]]
    return speeds


def max_speed(path, dt) -> float:
    return float(velocity_profile(path, dt).max())


def segment_directness(segment: ReachSegment) -> float:
    return directness(segment.path)


def participant_medians(segments, participant_id, age, group) -> MetricSummary:
    """Pool both hands' reaches and take the median of each measure.

    An even count medians as the mean of the two middle values (numpy's
    default convention).
    """
    if not segments:
        raise InputError("no segments")
    d = [segment_directness(s) for s in segments]
    v = [max_speed(s.path, s.dt) for s in segments]
    return MetricSummary(
        participant_id=participant_id,
        age=age,
        group=group,
        median_directness=float(np.median(d)),
        median_max_speed=float(np.median(v)),
        reach_count=len(segments),
    )
