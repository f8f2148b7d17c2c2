"""Cleaning of raw tracked streams: confidence gating, decimation,
zero-phase low-pass filtering, and per-reach outlier interpolation.

Pipeline order is fixed: confidence gate -> decimate -> per-channel filter ->
segment -> per-reach outlier interpolation. Gating and decimation run once per
session in the pipeline's ``frames`` stage, which also feeds the age model;
filtering runs once, in the ``preprocess`` stage that feeds the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, NumericalError, TooFewInliers
from .model_io import SkeletonSequence


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
            raise InputError(f"joint {joint!r}: every frame below {threshold}")
        pos = _interp_gaps(s.pos, bad) if bad.any() else s.pos
        flags[joint] = bad
        streams[joint] = s._replace(pos=pos, conf=np.where(bad, 1.0, s.conf))
    return replace(seq, streams=streams), GapMask(flags)


def downsample(seq: SkeletonSequence, factor: int = 2) -> SkeletonSequence:
    """Keep the frames on one grid for every joint: those a multiple of
    ``factor`` after the sequence's first frame. A joint missing rows keeps
    only the grid frames it has, so the joints still share frame numbers."""
    if factor < 1:
        raise InputError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return seq
    first = min(int(s.frames[0]) for s in seq.streams.values())
    streams = {}
    for joint, s in seq.streams.items():
        keep = (s.frames - first) % factor == 0
        kept = s._make(a[keep] for a in s)
        if len(kept.frames) < 2:
            raise InputError(
                f"joint {joint!r}: factor {factor} leaves fewer than 2 frames")
        streams[joint] = kept
    return replace(seq, streams=streams, sample_rate=seq.sample_rate / factor)


@dataclass(frozen=True)
class FilterSpec:
    order: int = 2
    cutoff: float = 6.0        # Hz
    sample_rate: float = 30.0  # Hz

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"filter order must be >= 1, got {self.order}")
        if not 0.0 < self.cutoff < self.sample_rate / 2.0:
            raise ConfigError(
                f"cutoff {self.cutoff} Hz outside (0, Nyquist={self.sample_rate / 2}) Hz")


def butterworth_coefficients(spec: FilterSpec):
    """(b, a) of the digital low-pass Butterworth filter of ``spec``.

    Follows the zero-pole-gain path of ``scipy.signal.butter`` step for step
    (analog prototype poles, pre-warp, low-pass scaling, bilinear transform
    with the zeros at infinity sent to -1, polynomial expansion), so the
    coefficients agree with scipy's to the last bit.
    """
    n = spec.order
    wn = np.asarray(spec.cutoff, dtype=np.float64) / (spec.sample_rate / 2)
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))    # pre-warp with fs = 2
    m = np.arange(-n + 1, n, 2, dtype=np.float64)
    poles = wo * -np.exp(1j * np.pi * m / (2 * n))
    # bilinear transform at 2 * fs = 4; all n zeros are at infinity
    k = wo ** n * np.real(1.0 / np.prod(4.0 - poles))
    b = k * np.poly(-np.ones(n))
    a = np.poly((4.0 + poles) / (4.0 - poles)).real
    return b, a   # a[0] is exactly 1


def _lfilter(b, a, x):
    """Direct-form II transposed filter of the float list ``x``, rounding
    each operation in the order of scipy's C ``lfilter`` loop."""
    b0, b_last, a_last = b[0], b[-1], a[-1]
    middle = tuple(zip(b[1:-1], a[1:-1]))
    z = [0.0] * (len(b) - 1)
    y = []
    for xn in x:
        yn = z[0] + b0 * xn
        for i, (bi, ai) in enumerate(middle):
            z[i] = z[i + 1] + xn * bi - yn * ai
        z[-1] = xn * b_last - yn * a_last
        y.append(yn)
    return y


def butterworth_filter(channel, spec: FilterSpec):
    """Zero-phase low-pass Butterworth filter of an (N,) or (N, D) series.

    Forward pass then time-reversed backward pass, with reflective edge
    padding of 3 * order samples on each side; DC gain is exactly 1 and the
    output has no phase lag. Each column is filtered exactly as
    ``scipy.signal.lfilter`` would filter it.
    """
    x = np.asarray(channel, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("butterworth_filter expects an (N,) or (N, D) series")
    if len(x) < 3 * spec.order:
        raise ConfigError(
            f"series of length {len(x)} too short for order {spec.order}")

    b, a = (c.tolist() for c in butterworth_coefficients(spec))
    pad = 3 * spec.order
    xp = np.pad(x, [(pad, pad)] + [(0, 0)] * (x.ndim - 1), mode="reflect")
    columns = xp.reshape(len(xp), -1).T.tolist()
    y = np.column_stack([_lfilter(b, a, _lfilter(b, a, col)[::-1])[::-1]
                         for col in columns]).reshape(xp.shape)
    return y[pad:len(xp) - pad]


def filter_sequence(seq: SkeletonSequence, spec: FilterSpec) -> SkeletonSequence:
    """Apply the zero-phase filter independently to every joint coordinate.
    A joint of fewer than 3 * order frames raises an InputError, and an
    output that is not finite (an input cell near the float limit
    overflows) a NumericalError, each naming the joint."""
    streams = {}
    for joint, s in seq.streams.items():
        if len(s.pos) < 3 * spec.order:
            raise InputError(f"joint {joint!r}: {len(s.pos)} frames, the "
                             f"filter needs {3 * spec.order} (3 * order)")
        pos = butterworth_filter(s.pos, spec)
        if not np.isfinite(pos).all():
            raise NumericalError(f"joint {joint!r}: filter output is not finite")
        streams[joint] = s._replace(pos=pos)
    return replace(seq, streams=streams)


def interpolate_outliers(positions):
    """Repair reconstruction blips inside a single reach segment.

    A frame whose distance from the segment's mean position is more than
    2 standard deviations beyond the typical distance (mean distance plus
    twice the distance spread) is replaced by linear interpolation between
    the surrounding retained frames. Statistics are computed once on the raw
    segment; edge outliers are held at the nearest inlier.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError("expected an (N, D) position series")
    mean = pos.mean(axis=0)
    dist = np.linalg.norm(pos - mean, axis=1)
    sigma = dist.std()
    if sigma == 0.0:
        return pos.copy()
    bad = dist > dist.mean() + 2.0 * sigma
    if (~bad).sum() < 2:
        raise TooFewInliers(f"only {(~bad).sum()} frames within 2.0 sigma")
    if not bad.any():
        return pos.copy()
    return _interp_gaps(pos, bad)
