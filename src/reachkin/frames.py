"""Frame-level cleaning: confidence gating with gap interpolation, and
decimation.

These run once per session in the pipeline's ``frames`` stage, which feeds
the age model as well as the metrics; filtering and outlier repair, which
only the metrics need, are in ``preprocess``, which re-exports every name
here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AllFramesRejected, FactorTooLarge
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
