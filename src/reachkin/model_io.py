"""Core domain types and reading/writing of session data files.

A session on disk is one directory per participant holding three files:

    manifest.json   participant_id, age_years, play_area_px, native_fps,
                    camera_ids, score
    joints.csv      participant_id,camera_id,frame,time_s,joint,x,y,confidence
    targets.csv     participant_id,target_id,side,x_norm,y_norm,t_appear_s,t_hit_s

Reconstructed 3D joint files use the columns
``participant_id,frame,time_s,joint,x,y,z`` (no camera, no confidence).

Every CSV table, joints, targets, calibration or an artifact such as
``metrics.csv``, is read by ``_read_table``: split in one pass when plain (no
quote, carriage return or blank line), else by the csv module, to the same
result or error. A ParseError names the row of a row whose field count
differs from the header's, a cell that is not a finite number, a frame that
is not an integer or repeats within a joint, or a non-integer target id.

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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, ParseError

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


class SampleRows:
    """Read-only rows by (joint, frame), built on iteration."""

    def __init__(self, streams):
        self._streams = streams

    def __len__(self):
        return sum(len(s.frames) for s in self._streams.values())

    def __iter__(self):
        for joint, s in self._streams.items():
            for f, t, p, c in zip(s.frames.tolist(), s.times.tolist(),
                                  s.pos.tolist(), s.conf.tolist()):
                yield JointSample(f, t, joint, tuple(p), c)


@dataclass(frozen=True, eq=False)
class SkeletonSequence:
    participant_id: str
    camera_id: str
    sample_rate: float
    streams: dict  # joint -> JointStream

    def __post_init__(self):
        object.__setattr__(self, "streams", dict(sorted(self.streams.items())))

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
                raise ParseError(f"target {tid} missing a side")
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
    skeletons: tuple          # one SkeletonSequence per camera
    targets: TargetLog
    manifest: SessionManifest

    @property
    def participant_id(self):
        return self.manifest.participant_id

    @property
    def age(self):
        return self.manifest.age_years

    @property
    def score(self):
        return self.manifest.score

    def skeleton(self):
        return self.skeletons[0]


@dataclass(frozen=True)
class Cohort:
    sessions: tuple


# --- parsing ---------------------------------------------------------------

def _float(value, column, row):
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {value!r}", row=row)
    if not math.isfinite(x):
        raise ParseError(f"column {column!r}: not finite: {value!r}", row=row)
    return x


def _split(text, top):
    """(header, columns, row numbers) of a plain table whose header is on
    line ``top``, split in one pass as the csv reader reads it; None for any
    other text. A plain table has no quote or carriage return, a final
    newline, and as many commas on every line as in its header, so no blank
    line."""
    width = text.count(",", 0, text.find("\n")) + 1
    if width < 2 or not text.endswith("\n") or '"' in text or "\r" in text:
        return None
    # every line, the header too, holds width - 1 commas: line i the i-th
    # run of them, each after the newline before it and before its own
    data = np.frombuffer(text.encode(errors="surrogatepass"), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.flatnonzero(data == ord(","))
    if commas.size != ends.size * (width - 1):
        return None
    commas = commas.reshape(-1, width - 1)
    if (commas[1:, 0] < ends[:-1]).any() or (commas[:, -1] > ends).any():
        return None
    cells = text.replace("\n", ",").split(",")
    return (cells[:width], [cells[width + k:-1:width] for k in range(width)],
            range(top + 1, top + ends.size))


def _csv_table(text, top):
    """What ``_split`` gives, for any text, by the csv reader; None for an
    empty text. Blank lines are skipped. A row whose field count differs
    from the header's, or text the reader refuses, raises a ParseError
    naming the row."""
    rows, rownum = [], top - 1
    try:
        for rownum, row in enumerate(csv.reader(io.StringIO(text)), top):
            if not rows or (row and (len(row) > 1 or row[0].strip())):
                rows.append((rownum, row))
    except csv.Error as exc:
        raise ParseError(f"not csv: {exc}", row=rownum + 1) from None
    if not rows:
        return None
    (_, header), *rows = rows
    for rownum, row in rows:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                             row=rownum)
    return (header, [[row[k] for _, row in rows] for k in range(len(header))],
            [rownum for rownum, _ in rows])


def _read_table(stream, what, expected, artifact=False):
    """Read a CSV text or character stream into ({column: index}, columns,
    row numbers), where columns[i] lists the cells of header column i and a
    row number is the file line. ``expected(header)`` names the columns the
    header must hold. A plain table is split in one pass (``_split``), any
    other read by the csv reader (``_csv_table``), to the same result or
    error. An artifact may start with one '#' comment line and may hold no
    data rows."""
    text = stream if isinstance(stream, str) else stream.read()
    top = 1   # the header's line
    if artifact and text.startswith("#"):
        text, top = text.partition("\n")[2], 2
    table = _split(text, top) or _csv_table(text, top)
    if table is None:
        raise ParseError(f"{what}: empty file")
    header, columns, rownums = table
    header = [h.strip() for h in header]
    names = expected(header)
    missing = [c for c in names if c not in header]
    if missing:
        raise ParseError(f"{what}: missing column(s) {missing}", row=top)
    if not rownums and not artifact:
        raise ParseError(f"{what} file has a header but no data rows")
    return {name: header.index(name) for name in names}, columns, rownums


def _numbers(columns, rownums, col, names):
    """The named columns as an (N, len(names)) array, each cell parsed as
    float() does; the first bad or non-finite cell in file order raises a
    ParseError."""
    cells = [columns[col[n]] for n in names]
    try:
        out = np.array(cells, dtype=float)
    except ValueError:
        out = np.array([np.nan])
    if not np.isfinite(out).all():
        for rownum, row in zip(rownums, zip(*cells)):
            for name, value in zip(names, row):
                _float(value, name, rownum)
    return out.T


def _integers(values, column, rownums):
    """Whole-number floats as int64; the first that is fractional or outside
    the int64 range raises a ParseError naming the column and row."""
    bad = (values != np.floor(values)) | (values < -2.0**63) | \
        (values >= 2.0**63)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"column {column!r}: not an integer in int64 range: "
                         f"{float(values[i])!r}", row=rownums[i])
    return values.astype(np.int64)


_TEXT_COLUMNS = ("participant_id", "camera_id", "joint")


def parse_joint_csv(stream) -> SkeletonSequence:
    """Parse a joints.csv text or character stream (2D or reconstructed 3D
    schema)."""
    col, columns, rownums = _read_table(
        stream, "joints",
        lambda header: JOINTS_3D_HEADER if "z" in header else JOINTS_2D_HEADER)
    texts = {name: columns[col[name]] for name in _TEXT_COLUMNS if name in col}
    num = _numbers(columns, rownums, col, [n for n in col if n not in texts])
    del columns   # frees the number cells
    is_3d = "z" in col
    frames = _integers(num[:, 0], "frame", rownums)
    times = num[:, 1]
    pos = num[:, 2:5] if is_3d else num[:, 2:4]
    conf = np.ones(len(num)) if is_3d else num[:, 4]
    out_of_range = (conf < 0.0) | (conf > 1.0)
    if out_of_range.any():
        i = int(np.argmax(out_of_range))
        raise ParseError(
            f"confidence {float(conf[i])} outside [0,1]", row=rownums[i])

    # copies, here and below: a kept cell string pins its allocator arena
    joint_names = [_copy(joint) for joint in sorted(set(texts["joint"]))]
    code = {joint: k for k, joint in enumerate(joint_names)}
    codes = np.fromiter(map(code.__getitem__, texts["joint"]), np.intp,
                        len(num))
    order = np.lexsort((frames, codes))     # stable: ties keep file order
    bounds = np.cumsum(np.bincount(codes))
    streams = {}
    for joint, sel in zip(joint_names, np.split(order, bounds[:-1])):
        f, t = frames[sel], times[sel]
        again = np.flatnonzero(f[1:] == f[:-1])
        if again.size:
            i = again[0] + 1
            raise ParseError(f"joint {joint!r}: frame {int(f[i])} repeats row "
                             f"{rownums[sel[i - 1]]}", row=rownums[sel[i]])
        later = np.flatnonzero(t[1:] <= t[:-1])
        if later.size:
            i = later[0] + 1
            raise ParseError(
                f"joint {joint!r}: time {float(t[i])} after {float(t[i - 1])} "
                f"(frame {int(f[i])})", row=rownums[sel[i]])
        streams[joint] = JointStream(f, t, pos[sel], conf[sel])

    deltas = np.concatenate([np.diff(s.times) for s in streams.values()])
    rate = 1.0 / float(np.median(deltas)) if deltas.size else 30.0
    for name in ["participant_id"] + ([] if is_3d else ["camera_id"]):
        values = texts[name]
        if len(set(values)) > 1:   # name the first row that differs
            n = next(n for n, v in enumerate(values) if v != values[0])
            raise ParseError(f"column {name!r}: {values[n]!r} differs from "
                             f"the first row's {values[0]!r}", row=rownums[n])
    return SkeletonSequence(_copy(texts["participant_id"][0]),   # 3D: no camera
                            _copy(texts.get("camera_id", [""])[0]), rate,
                            streams)


def _copy(text):
    """A new string equal to ``text``, sharing no memory block with it."""
    return text.encode(errors="surrogatepass").decode(errors="surrogatepass")


def parse_target_csv(stream, participant_id) -> TargetLog:
    """Parse a targets.csv text or character stream; every row must name
    ``participant_id``, the session's."""
    col, columns, rownums = _read_table(stream, "targets",
                                        lambda header: TARGETS_HEADER)
    num = _numbers(columns, rownums, col,
                   ["target_id", "x_norm", "y_norm", "t_appear_s"])
    ids = _integers(num[:, 0], "target_id", rownums).tolist()
    events = []
    for rownum, pid, target_id, (x, y, t_appear), side, raw_hit in zip(
            rownums, columns[col["participant_id"]], ids, num[:, 1:].tolist(),
            columns[col["side"]], columns[col["t_hit_s"]]):
        if pid != participant_id:
            raise ParseError(f"participant_id {pid!r} is not the session's "
                             f"{participant_id!r}", row=rownum)
        side = side.strip()
        if side not in ("left", "right"):
            raise ParseError(f"side must be left/right, got {side!r}", row=rownum)
        raw_hit = raw_hit.strip()
        t_hit = None if raw_hit == "" else _float(raw_hit, "t_hit_s", rownum)
        if t_hit is not None and t_hit < t_appear:
            raise ParseError(
                f"t_hit {t_hit} precedes t_appear {t_appear}", row=rownum)
        events.append(TargetEvent(target_id, side, (x, y), t_appear, t_hit))
    events.sort(key=lambda e: (e.t_appear, e.target_id, e.side))
    log = TargetLog(tuple(events))
    for left, right in log.pairs():   # raises on an unpaired target
        if left.t_appear != right.t_appear:
            raise ParseError(
                f"target {left.target_id}: sides appear at different times")
    return log


# --- writing ---------------------------------------------------------------

def fnum(x):
    """Full-precision float text, so float(fnum(v)) == v."""
    return repr(float(x))


def _csv_cells(*values):
    """The values as csv.writer writes them inside a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*values, ""])
    return buf.getvalue()[:-2]


def write_joint_csv(seq: SkeletonSequence, stream):
    """Write a joints file as csv.writer would, floats in full precision
    (``repr``), in one ``write``."""
    is_3d = seq.dims == 3
    lead = _csv_cells(seq.participant_id, *([] if is_3d else [seq.camera_id]))
    rows = [",".join(JOINTS_3D_HEADER if is_3d else JOINTS_2D_HEADER) + "\n"]
    for joint, s in seq.streams.items():
        name = _csv_cells(joint)
        # flat columns: no list per row for the garbage collector to track
        cols = zip(s.frames.tolist(), s.times.tolist(), *s.pos.T.tolist(),
                   s.conf.tolist())
        rows += ([f"{lead},{f},{t!r},{name},{x!r},{y!r},{z!r}\n"
                  for f, t, x, y, z, _ in cols] if is_3d else
                 [f"{lead},{f},{t!r},{name},{x!r},{y!r},{c!r}\n"
                  for f, t, x, y, c in cols])
    stream.write("".join(rows))


def write_target_csv(participant_id, log: TargetLog, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TARGETS_HEADER)
    for ev in log.events:
        writer.writerow([participant_id, ev.target_id, ev.side,
                         fnum(ev.position[0]), fnum(ev.position[1]),
                         fnum(ev.t_appear),
                         "" if ev.t_hit is None else fnum(ev.t_hit)])


def write_manifest(manifest: SessionManifest, stream):
    json.dump(asdict(manifest), stream, indent=2)
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
            raise ParseError(f"manifest: missing key {key!r}")
    pid = raw["participant_id"]
    # the id names the participant's directory in every output directory
    if not isinstance(pid, str) or pid[:1] in ("", ".") or \
            not pid.isprintable() or "/" in pid or "\\" in pid:
        raise ParseError(f"manifest: 'participant_id' must be a plain "
                         f"directory name, got {pid!r}")
    cams = raw["camera_ids"]
    if not isinstance(cams, list) or not all(isinstance(c, str) for c in cams):
        raise ParseError(f"manifest: 'camera_ids' must be a list of strings, "
                         f"got {cams!r}")
    area = raw["play_area_px"]
    if not isinstance(area, list) or len(area) != 2:
        raise ParseError(f"manifest: 'play_area_px' must be [width, height], "
                         f"got {area!r}")
    return SessionManifest(
        participant_id=pid,
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


def _parse_file(directory, name, parse):
    """``parse`` of the open file; a parse error names the file."""
    path = os.path.join(directory, name)
    with open(path) as fh:
        try:
            return parse(fh)
        except ParseError as exc:   # same row, the path in front
            err = ParseError(f"{path}: {exc}")
            err.row = exc.row
            raise err from exc
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
    pids = sorted({seq.participant_id for seq in skeletons})
    if pids != [manifest.participant_id]:
        raise InputError(f"{directory}: joint files name participant(s) "
                         f"{pids}, not {manifest.participant_id!r}")
    cams = sorted(seq.camera_id for seq in skeletons)
    if sorted(manifest.camera_ids) != cams:
        raise InputError(f"{directory}: manifest camera ids "
                         f"{list(manifest.camera_ids)} are not those of its "
                         f"joint files, {cams}")
    targets = _parse_file(
        directory, "targets.csv",
        lambda fh: parse_target_csv(fh, manifest.participant_id))
    return ParticipantSession(tuple(skeletons), targets, manifest)


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

def validate_session(session: ParticipantSession) -> tuple:
    """The session's findings, each a message; () when clean."""
    findings = []

    if not 6 <= session.age <= 17:
        findings.append(f"age {session.age} outside [6, 17]")
    hit_pairs = session.targets.score
    if session.score != hit_pairs:
        findings.append(
            f"manifest score {session.score} != {hit_pairs} collected pairs")

    fps = session.manifest.native_fps
    for seq in session.skeletons:
        if abs(seq.sample_rate - fps) > 0.01 * fps:
            findings.append(
                f"camera {seq.camera_id!r}: joints at {seq.sample_rate:g} Hz, "
                f"manifest native_fps {fps:g}")
        for joint in CORE_JOINTS:
            if joint not in seq.streams:
                findings.append(
                    f"camera {seq.camera_id!r}: joint {joint!r} absent")

    return tuple(findings)
