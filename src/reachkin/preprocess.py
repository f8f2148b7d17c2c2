"""Cleaning of raw tracked streams: confidence gating, decimation,
zero-phase low-pass filtering, and per-reach outlier interpolation.

Pipeline order is fixed: confidence gate -> decimate -> per-channel filter ->
segment -> per-reach outlier interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import butter, lfilter

from .errors import (
    AllFramesRejected,
    FactorTooLarge,
    TooFewInliers,
    UnstableSpec,
)
from .model_io import SkeletonSequence


@dataclass(frozen=True)
class FilterSpec:
    order: int = 2
    cutoff: float = 6.0        # Hz
    sample_rate: float = 30.0  # Hz
    mode: str = "zero_phase_forward_backward"

    def __post_init__(self):
        if self.order < 1:
            raise UnstableSpec(f"filter order must be >= 1, got {self.order}")
        if not 0.0 < self.cutoff < self.sample_rate / 2.0:
            raise UnstableSpec(
                f"cutoff {self.cutoff} Hz outside (0, Nyquist={self.sample_rate / 2}) Hz")


@dataclass(frozen=True)
class GapMask:
    """Per-joint boolean flags marking frames whose positions are synthetic."""
    flags: dict   # joint -> bool ndarray over the frame grid

    def any(self):
        return any(bool(np.any(v)) for v in self.flags.values())


def _interp_gaps(pos, bad):
    """Replace flagged rows by linear interpolation over frame index.

    Edge gaps are held at the nearest valid value.
    """
    out = pos.copy()
    good = ~bad
    idx = np.arange(len(pos))
    for d in range(pos.shape[1]):
        out[bad, d] = np.interp(idx[bad], idx[good], pos[good, d])
    return out


def reject_low_confidence(seq: SkeletonSequence, threshold: float = 0.75):
    """Replace low-confidence samples by interpolated positions.

    Returns (cleaned sequence, GapMask). Repaired frames are marked
    confidence 1, so the operation is idempotent at a fixed threshold.
    """
    streams, flags = {}, {}
    for joint, s in seq.streams.items():
        bad = s.conf < threshold
        if bad.all():
            raise AllFramesRejected(f"joint {joint!r}: every frame below {threshold}")
        pos = _interp_gaps(s.pos, bad) if bad.any() else s.pos
        flags[joint] = bad
        streams[joint] = s._replace(pos=pos, conf=np.where(bad, 1.0, s.conf))
    return replace(seq, streams=streams), GapMask(flags)


def downsample(seq: SkeletonSequence, factor: int = 2) -> SkeletonSequence:
    """Keep every factor-th frame, starting at the first frame per joint."""
    if factor < 1:
        raise FactorTooLarge(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return seq
    streams = {}
    for joint, s in seq.streams.items():
        kept = s._make(a[::factor] for a in s)
        if len(kept.frames) < 2:
            raise FactorTooLarge(
                f"joint {joint!r}: factor {factor} leaves fewer than 2 frames")
        streams[joint] = kept
    return replace(seq, streams=streams, sample_rate=seq.sample_rate / factor)


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
    if spec.cutoff >= spec.sample_rate / 2.0:
        raise UnstableSpec("cutoff at or above Nyquist")

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
