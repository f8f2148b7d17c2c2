"""Core domain types and reading/writing of session data files.

A session on disk is one directory per participant holding three files:

    manifest.json   participant_id, age_years, play_area_px, native_fps,
                    camera_ids, score
    joints.csv      participant_id,camera_id,frame,time_s,joint,x,y,confidence
    targets.csv     participant_id,target_id,side,x_norm,y_norm,t_appear_s,t_hit_s

Reconstructed 3D joint files use the columns
``participant_id,frame,time_s,joint,x,y,z`` (no camera, no confidence).

Every CSV table, joints, targets, calibration or an artifact such as
``metrics.csv``, is read by ``_read_table``: when plain (no quote, carriage
return or blank line) split into cells a block of lines at a time, else by
the csv module, to the same result or error. A joints file is converted a
block at a time, so it is held as its text plus its arrays, and written a
block of rows at a time. A ParseError names the row of a header that names
a column twice, a row whose field count differs from the header's, a cell
that is not a finite number, a frame that is not an integer or repeats
within a joint, or a non-integer target id.

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
from itertools import chain
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


# characters of a plain table split at a time: a block ends at the first line
# end after this many
_BLOCK = 1 << 16


def _split(text, top):
    """(header, row numbers, column blocks) of a plain table whose header is
    on line ``top``, as the csv reader reads it; None for any other text. A
    plain table has no quote or carriage return, a final newline, and as
    many commas on every line as in its header, so no blank line. Its data
    lines are split a block (``_BLOCK``) at a time as the blocks are
    iterated; a table with no data lines is one empty block."""
    head = text.find("\n") + 1
    width = text.count(",", 0, head) + 1
    if width < 2 or not text.endswith("\n") or '"' in text or "\r" in text:
        return None
    bounds = [head]
    while bounds[-1] < len(text) or len(bounds) == 1:
        bounds.append(text.find("\n", bounds[-1] + _BLOCK) + 1 or len(text))
    for a, b in zip(bounds, bounds[1:]):
        if not {ln.count(",") for ln in text[a:b].split("\n")[:-1]} <= \
                {width - 1}:
            return None

    def blocks():
        for a, b in zip(bounds, bounds[1:]):
            cells = text[a:b].replace("\n", ",").split(",")
            yield [cells[k:-1:width] for k in range(width)]
    return (text[:head - 1].split(","),
            range(top + 1, top + 1 + text.count("\n", head)), blocks())


def _csv_table(text, top):
    """What ``_split`` gives, for any text, by the csv reader, the data rows
    in one block; None for an empty text. Blank lines are skipped. A row
    whose field count differs from the header's, or text the reader
    refuses, raises a ParseError naming the row."""
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
    return (header, [rownum for rownum, _ in rows],
            [[[row[k] for _, row in rows] for k in range(len(header))]])


def _read_table(stream, what, expected, artifact=False):
    """Read a CSV text or character stream into ({column: index}, row
    numbers, column blocks). The blocks split the data rows, in file order,
    into runs; a block lists, for each header column, the cells of its run.
    A row number is the file line. ``expected(header)`` names the columns
    the header must hold, and no column may be named twice. A plain table
    is split a block at a time (``_split``), any other read whole by the
    csv reader as one block (``_csv_table``), to the same cells or error.
    An artifact may start with one '#' comment line and may hold no data
    rows."""
    text = stream if isinstance(stream, str) else stream.read()
    top = 1   # the header's line
    if artifact and text.startswith("#"):
        text, top = text.partition("\n")[2], 2
    table = _split(text, top) or _csv_table(text, top)
    if table is None:
        raise ParseError(f"{what}: empty file")
    header, rownums, blocks = table
    header = [h.strip() for h in header]
    repeated = [h for k, h in enumerate(header) if h in header[:k]]
    if repeated:
        raise ParseError(f"{what}: column {repeated[0]!r} repeats", row=top)
    names = expected(header)
    missing = [c for c in names if c not in header]
    if missing:
        raise ParseError(f"{what}: missing column(s) {missing}", row=top)
    if not rownums and not artifact:
        raise ParseError(f"{what} file has a header but no data rows")
    return {name: header.index(name) for name in names}, rownums, blocks


def _joined(blocks):
    """A table's column blocks as one list of columns."""
    return [list(chain(*cells)) for cells in zip(*blocks)]


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


_ID_COLUMNS = ("participant_id", "camera_id")


def parse_joint_csv(stream) -> SkeletonSequence:
    """Parse a joints.csv text or character stream (2D or reconstructed 3D
    schema), converting its cells a block of rows at a time."""
    col, rownums, blocks = _read_table(
        stream, "joints",
        lambda header: JOINTS_3D_HEADER if "z" in header else JOINTS_2D_HEADER)
    is_3d = "z" in col
    ids = [name for name in _ID_COLUMNS if name in col]
    names = [name for name in col if name not in ids and name != "joint"]
    num = np.empty((len(rownums), len(names)))
    codes = np.empty(len(rownums), np.intp)
    # copies, here and below: a kept cell string pins its allocator arena
    code, first, differs, start = {}, {}, {}, 0   # code: by first appearance
    for columns in blocks:
        end = start + len(columns[0])
        num[start:end] = _numbers(columns, rownums[start:end], col, names)
        joints = columns[col["joint"]]
        for joint in set(joints) - code.keys():
            code[_copy(joint)] = len(code)
        codes[start:end] = np.fromiter(map(code.__getitem__, joints),
                                       np.intp, end - start)
        for name in ids:   # the first row whose id differs from the first's
            values = columns[col[name]]
            value = first.setdefault(name, _copy(values[0]))
            if name not in differs and values.count(value) < len(values):
                n = next(n for n, v in enumerate(values) if v != value)
                differs[name] = start + n, _copy(values[n])
        start = end
    del columns, joints, values   # frees the last block's cells
    frames = _integers(num[:, 0], "frame", rownums)
    times = num[:, 1]
    pos = num[:, 2:5] if is_3d else num[:, 2:4]
    conf = np.ones(len(num)) if is_3d else num[:, 4]
    out_of_range = (conf < 0.0) | (conf > 1.0)
    if out_of_range.any():
        i = int(np.argmax(out_of_range))
        raise ParseError(
            f"confidence {float(conf[i])} outside [0,1]", row=rownums[i])

    joint_names = sorted(code)
    rank = {joint: k for k, joint in enumerate(joint_names)}
    codes = np.array([rank[joint] for joint in code], np.intp)[codes]
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
    for name in ids:
        if name in differs:
            n, value = differs[name]
            raise ParseError(f"column {name!r}: {value!r} differs from the "
                             f"first row's {first[name]!r}", row=rownums[n])
    return SkeletonSequence(first["participant_id"],   # 3D: no camera
                            first.get("camera_id", ""), rate, streams)


def _copy(text):
    """A new string equal to ``text``, sharing no memory block with it."""
    return text.encode(errors="surrogatepass").decode(errors="surrogatepass")


def parse_target_csv(stream, participant_id) -> TargetLog:
    """Parse a targets.csv text or character stream; every row must name
    ``participant_id``, the session's."""
    col, rownums, blocks = _read_table(stream, "targets",
                                       lambda header: TARGETS_HEADER)
    columns = _joined(blocks)
    num = _numbers(columns, rownums, col,
                   ["target_id", "x_norm", "y_norm", "t_appear_s"])
    ids = _integers(num[:, 0], "target_id", rownums).tolist()
    events, first_row = [], {}
    for rownum, pid, target_id, (x, y, t_appear), side, raw_hit in zip(
            rownums, columns[col["participant_id"]], ids, num[:, 1:].tolist(),
            columns[col["side"]], columns[col["t_hit_s"]]):
        if pid != participant_id:
            raise ParseError(f"participant_id {pid!r} is not the session's "
                             f"{participant_id!r}", row=rownum)
        side = side.strip()
        if side not in ("left", "right"):
            raise ParseError(f"side must be left/right, got {side!r}", row=rownum)
        first = first_row.setdefault((target_id, side), rownum)
        if first != rownum:
            raise ParseError(f"target {target_id} ({side}) repeats row "
                             f"{first}", row=rownum)
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


_WRITE_ROWS = 1024   # rows of a joints file formatted per write


def write_joint_csv(seq: SkeletonSequence, stream):
    """Write a joints file as csv.writer would, floats in full precision
    (``repr``), a ``write`` per block of up to ``_WRITE_ROWS`` rows."""
    is_3d = seq.dims == 3
    lead = _csv_cells(seq.participant_id, *([] if is_3d else [seq.camera_id]))
    stream.write(",".join(JOINTS_3D_HEADER if is_3d else JOINTS_2D_HEADER)
                 + "\n")
    for joint, s in seq.streams.items():
        name = _csv_cells(joint)
        for a in range(0, len(s.frames), _WRITE_ROWS):
            rows = slice(a, a + _WRITE_ROWS)
            # flat columns: no list per row for the garbage collector to track
            cols = zip(s.frames[rows].tolist(), s.times[rows].tolist(),
                       *s.pos[rows].T.tolist(), s.conf[rows].tolist())
            stream.write("".join(
                [f"{lead},{f},{t!r},{name},{x!r},{y!r},{z!r}\n"
                 for f, t, x, y, z, _ in cols] if is_3d else
                [f"{lead},{f},{t!r},{name},{x!r},{y!r},{c!r}\n"
                 for f, t, x, y, c in cols]))


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
        raw = json.load(stream, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}")
    except ValueError as exc:       # a repeated key
        raise ParseError(f"manifest: {exc}")
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


def _unique_keys(pairs):
    """A JSON object's pairs as a dict; a repeated key raises a ValueError
    naming it, where json.load would keep the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} repeats")
        obj[key] = value
    return obj


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


def iter_sessions(root):
    """Load each session directory of ``root`` in turn, in sorted order. Once
    every one is loaded, a participant id that two directories share raises
    an InputError naming both."""
    dirs = sorted(d for d in os.listdir(root)
                  if os.path.isdir(os.path.join(root, d)))
    if not dirs:
        raise InputError(f"{root}: no participant directories")
    first_dir, repeated = {}, None
    for d in dirs:
        session = load_session(os.path.join(root, d))
        first = first_dir.setdefault(session.participant_id, d)
        if first != d and repeated is None:
            repeated = InputError(
                f"participant id {session.participant_id!r} is in both "
                f"{os.path.join(root, first)} and {os.path.join(root, d)}")
        yield session
    if repeated:
        raise repeated


def load_cohort(root) -> Cohort:
    return Cohort(tuple(iter_sessions(root)))


# --- validation ------------------------------------------------------------

def validate_session(session: ParticipantSession) -> tuple:
    """The session's findings, each a message; () when clean."""
    findings = []

    lo, hi = AGE_BINS[0][0], AGE_BINS[-1][1]
    if not lo <= session.age <= hi:
        findings.append(f"age {session.age} outside [{lo}, {hi}]")
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
