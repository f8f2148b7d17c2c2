"""Reach segmentation and per-reach outcome measures: directness of path,
velocity profiles, peak speed, and per-participant medians.

Paths are expressed in shoulder-width units so measures are comparable across
body sizes; speeds are shoulder-widths per second. No norm uses BLAS:
one vector's is ``math.hypot(*v)``, rows' are ``np.linalg.norm(a, axis=1)``,
and no 1-D norm (a ``ddot``), ``@``, ``dot``, ``matmul`` or ``einsum`` is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    return float(math.hypot(*(path[-1] - path[0])) / total)


def velocity_profile(path, dt) -> np.ndarray:
    """Unsigned speed per frame from two-point finite differences.

    Interior frames use the central difference |x[t+1] - x[t-1]| / (2 dt);
    the endpoints fall back to one-sided differences.
    """
    path = np.asarray(path, dtype=float)
    if len(path) < 2:
        raise ZeroPathLength("need at least 2 frames for a velocity profile")
    return np.linalg.norm(np.gradient(path, axis=0), axis=1) / dt


def max_speed(path, dt) -> float:
    return float(velocity_profile(path, dt).max())


def segment_directness(segment: ReachSegment) -> float:
    return directness(segment.path)


# Every per-participant metric, in report order: its name in anova.csv,
# tukey.csv and bars.csv, its MetricSummary field (a metrics.csv column), and
# the per-reach measure whose median it is. segment_directness is looked up
# when called, so replacing it (to wrap it for tracing, say) takes effect.
METRICS = (
    ("directness", "median_directness", lambda s: segment_directness(s)),
    ("max_speed", "median_max_speed", lambda s: max_speed(s.path, s.dt)),
)
METRIC_COLUMNS = tuple(f.name for f in fields(MetricSummary))


def reach_measures(segment) -> tuple:
    """A reach's METRICS measures, in METRICS order. A reach whose hand did
    not move raises ZeroPathLength."""
    return tuple(measure(segment) for _, _, measure in METRICS)


def participant_medians(measures, participant_id, age, group) -> MetricSummary:
    """Pool both hands' reaches, each given as its ``reach_measures``, and
    take the median of each METRICS measure.

    An even count medians as the mean of the two middle values (numpy's
    default convention).
    """
    if not measures:
        raise InputError("no segments")
    return MetricSummary(
        participant_id=participant_id,
        age=age,
        group=group,
        reach_count=len(measures),
        **{field: float(np.median(column))
           for (_, field, _), column in zip(METRICS, zip(*measures))},
    )
