"""Cleaning of raw tracked streams: confidence gating, decimation,
zero-phase low-pass filtering, and per-reach outlier interpolation.

Pipeline order is fixed: confidence gate -> decimate -> per-channel filter ->
segment -> per-reach outlier interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import butter, lfilter

from .errors import TooFewInliers, UnstableSpec
from .frames import (  # noqa: F401  (re-exported)
    GapMask,
    _interp_gaps,
    downsample,
    reject_low_confidence,
)
from .model_io import SkeletonSequence


@dataclass(frozen=True)
class FilterSpec:
    order: int = 2
    cutoff: float = 6.0        # Hz
    sample_rate: float = 30.0  # Hz

    def __post_init__(self):
        if self.order < 1:
            raise UnstableSpec(f"filter order must be >= 1, got {self.order}")
        if not 0.0 < self.cutoff < self.sample_rate / 2.0:
            raise UnstableSpec(
                f"cutoff {self.cutoff} Hz outside (0, Nyquist={self.sample_rate / 2}) Hz")


def butterworth_filter(channel, spec: FilterSpec):
    """Zero-phase low-pass Butterworth filter of an (N,) or (N, D) series.

    Forward pass then time-reversed backward pass, with reflective edge
    padding of 3 * order samples on each side; DC gain is exactly 1 and the
    output has no phase lag.
    """
    x = np.asarray(channel, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("butterworth_filter expects an (N,) or (N, D) series")
    if len(x) < 3 * spec.order:
        raise UnstableSpec(
            f"series of length {len(x)} too short for order {spec.order}")

    b, a = butter(spec.order, spec.cutoff, btype="low", fs=spec.sample_rate)
    pad = 3 * spec.order
    xp = np.pad(x, [(pad, pad)] + [(0, 0)] * (x.ndim - 1), mode="reflect")
    y = lfilter(b, a, xp, axis=0)
    y = lfilter(b, a, y[::-1], axis=0)[::-1]
    return y[pad:len(xp) - pad]


def filter_sequence(seq: SkeletonSequence, spec: FilterSpec) -> SkeletonSequence:
    """Apply the zero-phase filter independently to every joint coordinate."""
    return replace(seq, streams={
        joint: s._replace(pos=butterworth_filter(s.pos, spec))
        for joint, s in seq.streams.items()})


def interpolate_outliers(positions, k_sigma: float = 2.0):
    """Repair reconstruction blips inside a single reach segment.

    A frame whose distance from the segment's mean position is more than
    ``k_sigma`` standard deviations beyond the typical distance (mean distance
    plus k_sigma times the distance spread) is replaced by linear
    interpolation between the surrounding retained frames. Statistics are
    computed once on the raw segment; edge outliers are held at the nearest
    inlier.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError("expected an (N, D) position series")
    mean = pos.mean(axis=0)
    dist = np.linalg.norm(pos - mean, axis=1)
    sigma = dist.std()
    if sigma == 0.0:
        return pos.copy()
    bad = dist > dist.mean() + k_sigma * sigma
    if (~bad).sum() < 2:
        raise TooFewInliers(f"only {(~bad).sum()} frames within {k_sigma} sigma")
    if not bad.any():
        return pos.copy()
    return _interp_gaps(pos, bad)
