"""Core domain types and reading/writing of session data files.

A session on disk is one directory per participant holding three files:

    manifest.json   participant_id, age_years, play_area_px, native_fps,
                    camera_ids, score
    joints.csv      participant_id,camera_id,frame,time_s,joint,x,y,confidence
    targets.csv     participant_id,target_id,side,x_norm,y_norm,t_appear_s,t_hit_s

Reconstructed 3D joint files use the columns
``participant_id,frame,time_s,joint,x,y,z`` (no camera, no confidence).

In memory a ``SkeletonSequence`` maps each joint, in sorted order, to a
``JointStream`` of arrays ``frames (N,)``, ``times (N,)``, ``pos (N, D)`` and
``conf (N,)`` in frame order; its per-row ``samples`` are a derived view.

All types are plain values that are never mutated; parsers and writers are
pure functions apart from filesystem access.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfidenceOutOfRange,
    EmptyFile,
    HitBeforeAppear,
    InputError,
    MissingColumn,
    NonMonotonicTime,
    ParseError,
    UnpairedTarget,
)

JOINTS_2D_HEADER = ["participant_id", "camera_id", "frame", "time_s",
                    "joint", "x", "y", "confidence"]
JOINTS_3D_HEADER = ["participant_id", "frame", "time_s", "joint", "x", "y", "z"]
TARGETS_HEADER = ["participant_id", "target_id", "side", "x_norm", "y_norm",
                  "t_appear_s", "t_hit_s"]

WRIST_JOINTS = ("left_wrist", "right_wrist")
SHOULDER_JOINTS = ("left_shoulder", "right_shoulder")
CORE_JOINTS = WRIST_JOINTS + SHOULDER_JOINTS

# Inclusive (lo, hi) age bins: synthetic cohorts draw equally from each, and
# the age model's confusion matrix counts predictions in them.
AGE_BINS = ((6, 8), (9, 10), (11, 13), (14, 17))


@dataclass(frozen=True)
class JointSample:
    """One row of a joint stream, as read from ``SkeletonSequence.samples``."""
    frame_index: int
    time: float
    joint: str
    position: tuple    # (x, y) in pixels or (x, y, z) in shoulder-width units
    confidence: float = 1.0


class JointStream(NamedTuple):
    """One joint's samples in frame order."""
    frames: np.ndarray   # (N,) int
    times: np.ndarray    # (N,) seconds
    pos: np.ndarray      # (N, D) pixels or shoulder-width units
    conf: np.ndarray     # (N,) in [0, 1]


class SampleRows(Sequence):
    """Read-only rows by (joint, frame), built on iteration or indexing."""

    def __init__(self, streams):
        self._streams = streams

    def __len__(self):
        return sum(len(s.frames) for s in self._streams.values())

    def __iter__(self):
        for joint, s in self._streams.items():
            for f, t, p, c in zip(s.frames.tolist(), s.times.tolist(),
                                  s.pos.tolist(), s.conf.tolist()):
                yield JointSample(f, t, joint, tuple(p), c)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True, eq=False)
class SkeletonSequence:
    participant_id: str
    camera_id: str
    sample_rate: float
    streams: dict  # joint -> JointStream

    def __post_init__(self):
        object.__setattr__(self, "streams", dict(sorted(self.streams.items())))

    @property
    def joints(self):
        return tuple(self.streams)

    @property
    def dims(self):
        return max((s.pos.shape[1] for s in self.streams.values()), default=0)

    @property
    def samples(self):
        return SampleRows(self.streams)

    def joint_arrays(self, joint):
        """Return the (frames, times, positions, confidences) of one joint."""
        try:
            return self.streams[joint]
        except KeyError:
            raise InputError(f"joint {joint!r} not present in sequence")


@dataclass(frozen=True)
class TargetEvent:
    target_id: int
    side: str                 # "left" | "right"
    position: tuple           # (x_norm, y_norm) in [0,1]^2 screen units
    t_appear: float
    t_hit: float | None = None

    @property
    def collected(self):
        return self.t_hit is not None


@dataclass(frozen=True)
class TargetLog:
    events: tuple  # of TargetEvent, sorted by (t_appear, target_id, side)

    def pairs(self):
        """Group events into (left, right) pairs by target_id."""
        by_id = {}
        for ev in self.events:
            by_id.setdefault(ev.target_id, {})[ev.side] = ev
        out = []
        for tid in sorted(by_id):
            sides = by_id[tid]
            if set(sides) != {"left", "right"}:
                raise UnpairedTarget(f"target {tid} missing a side")
            out.append((sides["left"], sides["right"]))
        return out

    @property
    def score(self):
        return sum(1 for left, right in self.pairs()
                   if left.collected and right.collected)


@dataclass(frozen=True)
class SessionManifest:
    participant_id: str
    age_years: int
    play_area_px: tuple       # (width, height)
    native_fps: float
    camera_ids: tuple
    score: int = 0


@dataclass(frozen=True)
class ParticipantSession:
    participant_id: str
    age: int
    skeletons: tuple          # one SkeletonSequence per camera
    targets: TargetLog
    score: int
    manifest: SessionManifest

    def skeleton(self):
        return self.skeletons[0]


@dataclass(frozen=True)
class Cohort:
    sessions: tuple


@dataclass(frozen=True)
class Finding:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple = ()

    @property
    def ok(self):
        return not self.findings


# --- parsing ---------------------------------------------------------------

def _float(value, column, row):
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {value!r}", row=row)
    if not math.isfinite(x):
        raise ParseError(f"column {column!r}: not finite: {value!r}", row=row)
    return x


def _read_table(stream, what, expected):
    """Read a CSV stream into ({column: index}, data rows, their row numbers);
    ``expected(header)`` names the columns the header must hold."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyFile(f"empty {what} file")
    names = expected(header)
    missing = [c for c in names if c not in header]
    if missing:
        raise MissingColumn(f"{what}: missing column(s) {missing}", row=1)
    rows, rownums = [], []
    for rownum, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=rownum)
        rows.append(row)
        rownums.append(rownum)
    if not rows:
        raise EmptyFile(f"{what} file has a header but no data rows")
    return {name: header.index(name) for name in names}, rows, rownums


def _numbers(rows, rownums, col, names):
    """Parse the named columns of every row into an (N, len(names)) array;
    the first bad or non-finite cell in file order raises a ParseError."""
    idx = [col[n] for n in names]
    try:
        out = np.array([float(row[i]) for row in rows for i in idx])
    except ValueError:
        out = np.array([np.nan])
    if not np.isfinite(out).all():
        for row, rownum in zip(rows, rownums):
            for name, i in zip(names, idx):
                _float(row[i], name, rownum)
    return out.reshape(len(rows), len(idx))


def parse_joint_csv(stream) -> SkeletonSequence:
    """Parse a joints.csv character stream (2D or reconstructed 3D schema)."""
    col, rows, rownums = _read_table(
        stream, "joints",
        lambda header: JOINTS_3D_HEADER if "z" in header else JOINTS_2D_HEADER)
    is_3d = "z" in col
    axes = ["x", "y", "z"] if is_3d else ["x", "y"]
    num = _numbers(rows, rownums, col,
                   ["frame", "time_s", *axes] + ([] if is_3d else ["confidence"]))
    frames = num[:, 0].astype(np.int64)
    times = num[:, 1]
    pos = num[:, 2:2 + len(axes)]
    conf = np.ones(len(rows)) if is_3d else num[:, -1]
    out_of_range = (conf < 0.0) | (conf > 1.0)
    if out_of_range.any():
        i = int(np.argmax(out_of_range))
        raise ConfidenceOutOfRange(
            f"confidence {float(conf[i])} outside [0,1]", row=rownums[i])

    joint_names, codes = np.unique([row[col["joint"]] for row in rows],
                                   return_inverse=True)
    order = np.lexsort((frames, codes))     # stable: ties keep file order
    bounds = np.cumsum(np.bincount(codes))
    streams = {}
    for joint, sel in zip(joint_names.tolist(), np.split(order, bounds[:-1])):
        t = times[sel]
        later = np.flatnonzero(t[1:] <= t[:-1])
        if later.size:
            i = later[0] + 1
            raise NonMonotonicTime(
                f"joint {joint!r}: time {float(t[i])} after {float(t[i - 1])} "
                f"(frame {int(frames[sel[i]])})", row=rownums[sel[i]])
        streams[joint] = JointStream(frames[sel], t, pos[sel], conf[sel])

    deltas = np.concatenate([np.diff(s.times) for s in streams.values()])
    rate = 1.0 / float(np.median(deltas)) if deltas.size else 30.0
    last = rows[-1]
    camera_id = "" if is_3d else last[col["camera_id"]]
    return SkeletonSequence(last[col["participant_id"]], camera_id, rate, streams)


def parse_target_csv(stream) -> TargetLog:
    """Parse a targets.csv character stream."""
    col, rows, rownums = _read_table(stream, "targets",
                                     lambda header: TARGETS_HEADER)
    events = []
    for row, rownum in zip(rows, rownums):
        side = row[col["side"]].strip()
        if side not in ("left", "right"):
            raise ParseError(f"side must be left/right, got {side!r}", row=rownum)
        t_appear = _float(row[col["t_appear_s"]], "t_appear_s", rownum)
        raw_hit = row[col["t_hit_s"]].strip()
        t_hit = None if raw_hit == "" else _float(raw_hit, "t_hit_s", rownum)
        if t_hit is not None and t_hit < t_appear:
            raise HitBeforeAppear(
                f"t_hit {t_hit} precedes t_appear {t_appear}", row=rownum)
        events.append(TargetEvent(
            target_id=int(_float(row[col["target_id"]], "target_id", rownum)),
            side=side,
            position=(_float(row[col["x_norm"]], "x_norm", rownum),
                      _float(row[col["y_norm"]], "y_norm", rownum)),
            t_appear=t_appear,
            t_hit=t_hit,
        ))
    events.sort(key=lambda e: (e.t_appear, e.target_id, e.side))
    log = TargetLog(tuple(events))
    for left, right in log.pairs():   # raises UnpairedTarget
        if left.t_appear != right.t_appear:
            raise UnpairedTarget(
                f"target {left.target_id}: sides appear at different times")
    return log


# --- writing ---------------------------------------------------------------

def fnum(x):
    """Full-precision float text, so float(fnum(v)) == v."""
    return repr(float(x))


def write_joint_csv(seq: SkeletonSequence, stream):
    writer = csv.writer(stream, lineterminator="\n")
    is_3d = seq.dims == 3
    writer.writerow(JOINTS_3D_HEADER if is_3d else JOINTS_2D_HEADER)
    lead = [seq.participant_id] if is_3d else [seq.participant_id, seq.camera_id]
    for joint, s in seq.streams.items():
        n = len(s.frames)
        coords = [map(repr, c) for c in s.pos.T.tolist()]
        tail = [] if is_3d else [map(repr, s.conf.tolist())]
        writer.writerows(zip(*(repeat(v, n) for v in lead), s.frames.tolist(),
                             map(repr, s.times.tolist()), repeat(joint, n),
                             *coords, *tail))


def write_target_csv(participant_id, log: TargetLog, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TARGETS_HEADER)
    for ev in log.events:
        writer.writerow([participant_id, ev.target_id, ev.side,
                         fnum(ev.position[0]), fnum(ev.position[1]),
                         fnum(ev.t_appear),
                         "" if ev.t_hit is None else fnum(ev.t_hit)])


def write_manifest(manifest: SessionManifest, stream):
    json.dump({
        "participant_id": manifest.participant_id,
        "age_years": manifest.age_years,
        "play_area_px": list(manifest.play_area_px),
        "native_fps": manifest.native_fps,
        "camera_ids": list(manifest.camera_ids),
        "score": manifest.score,
    }, stream, indent=2)
    stream.write("\n")


def parse_manifest(stream) -> SessionManifest:
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    try:
        raw = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ParseError("manifest is not a JSON object")
    for key in ("participant_id", "age_years", "play_area_px", "native_fps",
                "camera_ids"):
        if key not in raw:
            raise MissingColumn(f"manifest: missing key {key!r}")
    cams = raw["camera_ids"]
    if not isinstance(cams, list) or not all(isinstance(c, str) for c in cams):
        raise ParseError(f"manifest: 'camera_ids' must be a list of strings, "
                         f"got {cams!r}")
    area = raw["play_area_px"]
    if not isinstance(area, list) or len(area) != 2:
        raise ParseError(f"manifest: 'play_area_px' must be [width, height], "
                         f"got {area!r}")
    return SessionManifest(
        participant_id=str(raw["participant_id"]),
        age_years=_manifest_int(raw["age_years"], "age_years"),
        play_area_px=tuple(_manifest_positive(v, "play_area_px") for v in area),
        native_fps=float(_manifest_positive(raw["native_fps"], "native_fps")),
        camera_ids=tuple(cams),
        score=_manifest_int(raw.get("score", 0), "score"),
    )


def _manifest_int(value, key):
    # JSON true loads as a bool, which is an int subclass
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"manifest: {key!r} must be an integer, got {value!r}")
    return value


def _manifest_positive(value, key):
    # json.load accepts NaN and Infinity
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value <= 0:
        raise ParseError(f"manifest: {key!r} must be a finite positive "
                         f"number, got {value!r}")
    return value


# --- session directory layout ----------------------------------------------

def write_session(session: ParticipantSession, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        write_manifest(session.manifest, fh)
    for seq in session.skeletons:
        name = "joints.csv" if len(session.skeletons) == 1 \
            else f"joints_{seq.camera_id}.csv"
        with open(os.path.join(directory, name), "w") as fh:
            write_joint_csv(seq, fh)
    with open(os.path.join(directory, "targets.csv"), "w") as fh:
        write_target_csv(session.participant_id, session.targets, fh)


def in_file(path, exc: ParseError) -> ParseError:
    """A parse error of the same type and row with the file's path in front."""
    err = type(exc)(f"{path}: {exc}")
    err.row = exc.row
    return err


def _parse_file(directory, name, parse):
    """``parse`` of the open file; a parse error names the file."""
    path = os.path.join(directory, name)
    with open(path) as fh:
        try:
            return parse(fh)
        except ParseError as exc:
            raise in_file(path, exc) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def load_session(directory) -> ParticipantSession:
    if not os.path.isfile(os.path.join(directory, "manifest.json")):
        raise InputError(f"{directory}: not a session directory, it has no "
                         "manifest.json")
    manifest = _parse_file(directory, "manifest.json", parse_manifest)
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("joints") and n.endswith(".csv"))
    if not names:
        raise InputError(f"{directory}: no joints csv found")
    skeletons = [_parse_file(directory, name, parse_joint_csv)
                 for name in names]
    targets = _parse_file(directory, "targets.csv", parse_target_csv)
    return ParticipantSession(
        participant_id=manifest.participant_id,
        age=manifest.age_years,
        skeletons=tuple(skeletons),
        targets=targets,
        score=manifest.score,
        manifest=manifest,
    )


def load_cohort(root) -> Cohort:
    dirs = sorted(d for d in os.listdir(root)
                  if os.path.isdir(os.path.join(root, d)))
    if not dirs:
        raise InputError(f"{root}: no participant directories")
    sessions = tuple(load_session(os.path.join(root, d)) for d in dirs)
    first_dir = {}
    for d, session in zip(dirs, sessions):
        first = first_dir.setdefault(session.participant_id, d)
        if first != d:
            raise InputError(
                f"participant id {session.participant_id!r} is in both "
                f"{os.path.join(root, first)} and {os.path.join(root, d)}")
    return Cohort(sessions)


# --- validation ------------------------------------------------------------

def validate_session(session: ParticipantSession) -> ValidationReport:
    findings = []

    if not 6 <= session.age <= 17:
        findings.append(Finding("AgeOutOfRange",
                                f"age {session.age} outside [6, 17]"))
    try:
        hit_pairs = session.targets.score
        if session.score != hit_pairs:
            findings.append(Finding(
                "ScoreMismatch",
                f"manifest score {session.score} != {hit_pairs} collected pairs"))
    except UnpairedTarget as exc:
        findings.append(Finding("UnpairedTarget", str(exc)))

    for seq in session.skeletons:
        present = set(seq.joints)
        for joint in CORE_JOINTS:
            if joint not in present:
                findings.append(Finding(
                    "MissingJoint",
                    f"camera {seq.camera_id!r}: joint {joint!r} absent"))

    return ValidationReport(tuple(findings))
