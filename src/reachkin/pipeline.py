"""End-to-end orchestration: configuration, the stage table, artifact files,
and simple SVG figure analogs.

``STAGES`` is the stage graph: ingest -> validate -> frames -> preprocess
(the one filter) -> metrics -> progress -> stats, with train fed by frames,
report alongside, and reconstruct by ingest and a calibration alone. Every
command but ``reachkin synth`` runs through ``run_stages``, which names the
stage in any error and writes a run's files, per-participant ones included,
all or none, and holds one participant's streams at a time. Every artifact
file starts with a comment line recording the configuration hash and seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import sys
import zlib
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigError,
    InputError,
    NumericalError,
    ParseError,
    ReachkinError,
    TooFewInliers,
    ZeroInitialDistance,
    ZeroPathLength,
)
from .model_io import (AGE_BINS, _joined, _numbers, _parse_file,
                       _read_table, _unique_keys, fnum, iter_sessions,
                       validate_session, write_joint_csv)
# load_cohort is not called here, but perfbench's tracer test reads it
from .model_io import load_cohort  # noqa: F401

ANALYSIS_GROUPS = ((6, 10), (11, 13), (14, 17))
GROUP_LABELS = tuple(f"{lo}-{hi}" for lo, hi in ANALYSIS_GROUPS)


def group_label(age):
    for (lo, hi), label in zip(ANALYSIS_GROUPS, GROUP_LABELS):
        if lo <= age <= hi:
            return label
    raise InputError(f"age {age} outside analysis groups {ANALYSIS_GROUPS}")


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class PipelineConfig:
    input_dir: str = "."
    out_dir: str = "out"
    seed: int = 0
    # preprocessing
    confidence_threshold: float = 0.75
    decimation: int = 2
    filter_order: int = 2
    filter_cutoff_hz: float = 6.0
    # age model
    window: int = 200
    stride: int = 100
    folds: int = 5
    epochs: int = 15

    def __post_init__(self):
        # each field takes the type of its default (a bool is no int), a
        # float field a finite int or float: abs(NaN) <= max is false
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind) or (
                    kind is float and not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{f.name} must be {_KINDS[kind]}, got "
                                  f"{value!r}")
            # os.path.realpath raises a bare ValueError on a NUL
            if kind is str and "\0" in value:
                raise ConfigError(f"{f.name} must not hold a NUL character, "
                                  f"got {value!r}")
        for name, low in (("seed", 0), ("decimation", 1), ("filter_order", 1),
                          ("folds", 1), ("epochs", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got "
                                  f"{getattr(self, name)}")
        # the Nyquist bound needs the data's rate: FilterSpec checks it
        if not self.filter_cutoff_hz > 0:
            raise ConfigError(f"filter_cutoff_hz must be > 0, got "
                              f"{self.filter_cutoff_hz}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError(f"confidence_threshold must be in [0, 1], got "
                              f"{self.confidence_threshold}")
        if self.window < 1 or self.stride < 1:
            raise ConfigError(f"window and stride must be >= 1, got "
                              f"{self.window} and {self.stride}")

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                d = json.load(fh, object_pairs_hook=_unique_keys)
        # ValueError: JSON, UTF-8 or a repeated key
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(d, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        return cls.from_dict(d)

    @property
    def config_hash(self):
        # CRC-32, not hashlib: that would map OpenSSL into every command
        canon = json.dumps(asdict(self), sort_keys=True)
        return f"{zlib.crc32(canon.encode()):08x}"


def write_artifact(path, header, rows, config: PipelineConfig):
    """Write a CSV artifact with the config-hash comment line on top. Float
    cells are written in full precision (``fnum``); a non-finite one raises
    a NumericalError naming the file, row (line number) and column, and
    the file is not written."""
    buf = io.StringIO()
    buf.write(f"# reachkin config_hash={config.config_hash} seed={config.seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for line, cells in enumerate(rows, start=3):
        floats = [isinstance(v, (float, np.floating)) for v in cells]
        for column, v, f in zip(header, cells, floats):
            if f and not math.isfinite(v):
                raise NumericalError(f"{path}: row {line}: column {column!r}: "
                                     f"non-finite value {v!r}")
        writer.writerow([fnum(v) if f else v for v, f in zip(cells, floats)])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def read_artifact(path):
    """Read a CSV artifact past its comment line; returns (header, rows)."""
    col, _, blocks = _parse_file(
        *os.path.split(path),
        lambda fh: _read_table(fh, "artifact", lambda header: header,
                               artifact=True))
    return list(col), [list(row) for row in zip(*_joined(blocks))]


# --- per-participant analysis ----------------------------------------------

def session_frames(session, config: PipelineConfig):
    """Confidence gate and decimate one session's 2D skeleton."""
    from . import preprocess
    seq, _ = preprocess.reject_low_confidence(session.skeleton(),
                                              config.confidence_threshold)
    return preprocess.downsample(seq, config.decimation)


def preprocess_session(seq, config: PipelineConfig):
    """Zero-phase filter a session's frames (see ``session_frames``)."""
    from . import preprocess
    spec = preprocess.FilterSpec(config.filter_order, config.filter_cutoff_hz,
                                 seq.sample_rate)
    return preprocess.filter_sequence(seq, spec)


def analyze_session(session, seq):
    """Full metric extraction for one session from its filtered stream ``seq``.

    Returns (MetricSummary, repaired ReachSegments). Paths are in
    shoulder-width units; targets are mapped into the same frame.
    """
    from . import kinematics, preprocess, reconstruct3d
    scale = reconstruct3d.shoulder_scale(seq)
    seq = reconstruct3d.normalize_by_shoulder_width(seq, scale)
    w, h = session.manifest.play_area_px

    def target_to_path(pos_norm):
        return np.array([pos_norm[0] * w, pos_norm[1] * h]) / scale

    segments = kinematics.segment_reaches(seq, session.targets,
                                          target_to_path=target_to_path)
    usable, measures = [], []
    for seg in segments:
        try:
            path = preprocess.interpolate_outliers(seg.path)
        except TooFewInliers:
            path = seg.path   # degenerate short segment; keep as-is
        seg = replace(seg, path=path)
        try:
            measures.append(kinematics.reach_measures(seg))
        except ZeroPathLength:
            continue
        usable.append(seg)
    summary = kinematics.participant_medians(
        measures, session.participant_id, session.age,
        group_label(session.age))
    return summary, usable


def reconstruct_session(session, calibration, config: PipelineConfig):
    """The triangulated 3D sequence of a session with exactly two camera
    views; ``calibration`` is (path, camera id -> CameraModel)."""
    from . import reconstruct3d
    path, cams = calibration
    views = session.skeletons
    if len(views) != 2:
        raise InputError(f"reconstruct needs 2 camera views, got {len(views)}")
    for seq in views:
        if seq.camera_id not in cams:
            raise InputError(f"camera {seq.camera_id!r} is not in {path}")
    seq1, seq2 = views
    return reconstruct3d.triangulate_sequences(
        seq1, seq2, cams[seq1.camera_id], cams[seq2.camera_id],
        config.confidence_threshold)


@dataclass(frozen=True)
class ParticipantRecord:
    """What the per-participant pass keeps of one session once its streams
    are dropped. A field of a stage the pass did not run is None."""
    participant_id: str
    age: int
    findings: tuple                # validation findings, () when clean
    failure: tuple = None          # (stage, error) of the step that ended it
    summary: object = None         # metrics: the MetricSummary
    segments: list = None          # metrics: the kept ReachSegments
    channels: np.ndarray = None    # train: (4, n) wrist x/y of its frames


# the stages of the per-participant pass, in the order it runs them
PASS = ("validate", "frames", "preprocess", "reconstruct", "metrics", "train")


def _participant_record(session, stages, config: PipelineConfig, paths,
                        calibration):
    """Take one session through the named stages of PASS (see
    ``cohort_metrics``). A step's ReachkinError ends the record, and is kept
    as its failure with the participant id in front."""
    record = ParticipantRecord(session.participant_id, session.age,
                               validate_session(session)
                               if "validate" in stages else ())
    if record.findings:
        return record
    kept, streams = {}, {}
    try:
        # stages holds what each stage needs (_with_needs), run before it
        if "frames" in stages:
            stage = "frames"
            frames = session_frames(session, config)
        if "preprocess" in stages:
            stage = "preprocess"
            streams[stage] = preprocess_session(frames, config)
        if "reconstruct" in stages:
            stage = "reconstruct"
            streams[stage] = reconstruct_session(session, calibration, config)
        if "metrics" in stages:
            stage = "metrics"
            kept["summary"], kept["segments"] = analyze_session(
                session, streams["preprocess"])
        if "train" in stages:
            from . import agenet
            stage = "train"
            kept["channels"] = agenet.wrist_channels(frames)
    except ReachkinError as exc:
        return replace(record, failure=(stage, type(exc)(
            f"participant {record.participant_id}: {exc}")))
    for stage, path in (paths or {}).items():
        try:
            write_streams(streams[stage], path)
        except OSError as exc:
            raise StageFailure(stage, exc) from exc
    return replace(record, **kept)


def cohort_metrics(sessions, stages, config: PipelineConfig, paths,
                   calibration=None):
    """The per-participant pass: take each of ``sessions`` in turn through
    the named stages of PASS, and those they need, and keep only its
    ParticipantRecord, so that one session's streams are held at a time.
    ``paths`` maps preprocess and reconstruct, whose streams are their
    files, to a path: a participant's stream is written to <participant
    id>/<its name> beside it once the participant is done; None writes none.
    ``calibration`` is reconstruct's (path, camera id -> CameraModel).
    Returns the records in cohort order.

    Errors come in the order of stages run one after another over the whole
    cohort: an error loading a session raises as it is met; the validation
    findings of every session raise together once the pass ends; then the
    failure of the earliest stage raises, the first in cohort order."""
    stages = _with_needs(stages, ())
    records = [_participant_record(s, stages, config, paths, calibration)
               for s in sessions]
    findings = [f"participant {r.participant_id}: {message}"
                for r in records for message in r.findings]
    if findings:
        raise StageFailure("validate", InputError("; ".join(findings)))
    failures = [r.failure for r in records if r.failure]
    if failures:
        raise StageFailure(*min(failures, key=lambda f: PASS.index(f[0])))
    return records


# --- stage artifact emitters -----------------------------------------------

def write_metrics(summaries, path, config):
    from . import kinematics
    write_artifact(path, list(kinematics.METRIC_COLUMNS),
                   [astuple(s) for s in summaries], config)


def read_metrics(path):
    """The participant summaries of a ``metrics.csv``, read by the one table
    reader of every CSV file. An empty or non-UTF-8 file, a row whose field
    count differs from the header's, a cell that is not a finite number or
    an integer, a group that is not the analysis group of the row's age, or
    a participant already read raises a ParseError naming the file and any
    row (line)."""
    return _parse_file(*os.path.split(path), _parse_metrics)


def _parse_metrics(fh):
    from . import kinematics
    col, rownums, blocks = _read_table(
        fh, "metrics", lambda header: kinematics.METRIC_COLUMNS, artifact=True)
    columns = _joined(blocks)
    medians = [field for _, field, _ in kinematics.METRICS]
    num = _numbers(columns, rownums, col, medians).tolist()
    names = ("participant_id", "age", "group", "reach_count")
    cells = zip(rownums, *(columns[col[n]] for n in names), num)
    summaries, first_row = [], {}
    for row, pid, age, group, count, values in cells:
        age = _integer(age, "age", row)
        if group not in GROUP_LABELS:
            raise ParseError(f"column 'group': {group!r} is not one of "
                             f"{list(GROUP_LABELS)}", row=row)
        lo, hi = ANALYSIS_GROUPS[GROUP_LABELS.index(group)]
        if not lo <= age <= hi:
            raise ParseError(f"column 'age': {age} is outside group {group!r}",
                             row=row)
        count = _integer(count, "reach_count", row)
        if first_row.setdefault(pid, row) != row:
            raise ParseError(f"participant {pid!r} repeats row "
                             f"{first_row[pid]}", row=row)
        summaries.append(kinematics.MetricSummary(
            participant_id=pid, age=age, group=group, reach_count=count,
            **dict(zip(medians, values))))
    return summaries


def _integer(value, column, row):
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"column {column!r}: not an integer: {value!r}",
                         row=row) from None


def group_curves(summaries, segments):
    """Pool backward-filtered progress curves per analysis group, from
    the participant summaries and reach segment lists of the metrics
    stage."""
    from . import progress_spline
    curves = {label: [] for label in GROUP_LABELS}
    for summary, segs in zip(summaries, segments):
        for seg in segs:
            try:
                curve = progress_spline.progress_curve(seg)
            except ZeroInitialDistance:
                continue
            curves[summary.group].append(curve)
    return {label: progress_spline.filter_backward_reaches(cs)
            for label, cs in curves.items()}


def fit_group_splines(curves_by_group):
    from . import progress_spline
    fits = {}
    for label, curves in curves_by_group.items():
        if not curves:
            continue
        fit = progress_spline.fit_cubic_bezier(curves)
        rates = progress_spline.endpoint_rates(fit)
        fits[label] = (fit, rates, len(curves))
    return fits


def write_splines(fits, spline_path, curves_path, config):
    from . import progress_spline
    rows = []
    curve_rows = []
    for label, (fit, rates, n_curves) in fits.items():
        rows.append([label, *fit.p1, *fit.p2, rates.initial_rate,
                     rates.final_rate, rates.rate_ratio, fit.residual_rms,
                     n_curves])
        for x, y in progress_spline.sample_fit(fit, 101):
            curve_rows.append([label, x, y])
    write_artifact(spline_path,
                   ["group", "p1_tau", "p1_rho", "p2_tau", "p2_rho",
                    "initial_rate", "final_rate", "rate_ratio",
                    "residual_rms", "n_curves"], rows, config)
    write_artifact(curves_path, ["group", "tau", "rho"], curve_rows, config)


def grouped_metrics(summaries):
    """Each METRICS name -> its participant medians by analysis group."""
    from . import kinematics, stats
    return {metric: stats.GroupedSamples(GROUP_LABELS, tuple(
        tuple(getattr(s, field) for s in summaries if s.group == label)
        for label in GROUP_LABELS)) for metric, field, _ in kinematics.METRICS}


def run_stats(summaries):
    from . import stats
    return {metric: (stats.one_way_anova(grouped), stats.tukey_hsd(grouped))
            for metric, grouped in grouped_metrics(summaries).items()}


def write_stats(results, anova_path, tukey_path, config):
    anova_rows, tukey_rows = [], []
    for metric, (anova, tukey) in results.items():
        anova_rows.append([metric, anova.F, anova.df_between,
                           anova.df_within, anova.p])
        for cmp in tukey:
            tukey_rows.append([metric, f"{cmp.label_a} vs {cmp.label_b}",
                               cmp.mean_diff, cmp.q, cmp.p])
    write_artifact(anova_path, ["metric", "F", "df_between", "df_within", "p"],
                   anova_rows, config)
    write_artifact(tukey_path, ["metric", "pair", "diff", "q", "p"],
                   tukey_rows, config)


def run_training(records, config: PipelineConfig):
    from . import agenet
    windows, skipped = agenet.windows_from_cohort(
        records, config.window, config.stride)
    report = agenet.cross_validate(windows, folds=config.folds,
                                   epochs=config.epochs, seed=config.seed)
    return report, skipped


def write_training(report, cv_path, confusion_path, config):
    rows = [[i, r] for i, r in enumerate(report.fold_rmse)]
    rows.append(["pooled", report.pooled_rmse])
    write_artifact(cv_path, ["fold", "rmse"], rows, config)

    bin_labels = [f"{lo}-{hi}" for lo, hi in AGE_BINS]
    conf_rows = [[bin_labels[i]] + list(map(int, report.confusion[i]))
                 for i in range(len(bin_labels))]
    write_artifact(confusion_path, ["true_bin"] + [f"pred_{b}" for b in bin_labels],
                   conf_rows, config)


# --- figure analogs --------------------------------------------------------

def bar_rows(summaries):
    """Per-group mean and std of each metric, as bars.csv rows."""
    return [[metric, label, np.mean(values), np.std(values)]
            for metric, grouped in grouped_metrics(summaries).items()
            for label, values in zip(grouped.labels, grouped.groups)]


def write_bars(rows, path, config):
    write_artifact(path, ["metric", "group", "mean", "std"], rows, config)


def trajectory_rows(summaries, segments):
    """One sample reach path per analysis group, as trajectories.csv rows."""
    rows = []
    seen = set()
    for summary, segs in zip(summaries, segments):
        if summary.group in seen:
            continue
        seg = max(segs, key=lambda s: s.n_frames)
        for i, p in enumerate(seg.path):
            rows.append([summary.group, summary.participant_id, seg.hand, i,
                         *p])
        seen.add(summary.group)
    return rows


def write_trajectories(rows, path, config):
    write_artifact(path, ["group", "participant_id", "hand", "frame", "x", "y"],
                   rows, config)


def _svg(path, width, height, body, config):
    text = (f"<!-- reachkin config_hash={config.config_hash} "
            f"seed={config.seed} -->\n"
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n' + body + "</svg>\n")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def svg_bars(bar_rows, path, config):
    """Bar chart analog: grouped means with std whiskers, in METRICS order."""
    from . import kinematics
    width, height, pad = 480, 240, 30
    metrics = [metric for metric, _, _ in kinematics.METRICS]
    body = ""
    panel_w = (width - 2 * pad) / max(1, len(metrics))
    for mi, metric in enumerate(metrics):
        rows = [r for r in bar_rows if r[0] == metric]
        top = max(float(r[2]) + float(r[3]) for r in rows) or 1.0
        bw = panel_w / (len(rows) * 1.5 + 0.5)
        for i, (_, label, mean, std) in enumerate(rows):
            m, s = float(mean), float(std)
            x = pad + mi * panel_w + (0.5 + 1.5 * i) * bw
            h = (height - 2 * pad) * m / top
            y = height - pad - h
            body += (f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw:.1f}" '
                     f'height="{h:.1f}" fill="#4477aa"/>\n')
            wy1 = height - pad - (height - 2 * pad) * min(top, m + s) / top
            wy2 = height - pad - (height - 2 * pad) * max(0.0, m - s) / top
            cx = x + bw / 2
            body += (f'<line x1="{cx:.1f}" y1="{wy1:.1f}" x2="{cx:.1f}" '
                     f'y2="{wy2:.1f}" stroke="#222"/>\n')
            body += (f'<text x="{cx:.1f}" y="{height - pad + 12}" '
                     f'font-size="9" text-anchor="middle">{label}</text>\n')
        body += (f'<text x="{pad + mi * panel_w + panel_w / 2:.1f}" y="14" '
                 f'font-size="11" text-anchor="middle">{metric}</text>\n')
    _svg(path, width, height, body, config)


def _polyline(points, color):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}"/>\n'


_GROUP_COLORS = ("#cc6677", "#ddaa33", "#4477aa", "#228833")


def svg_progress(fits, path, config):
    from . import progress_spline
    width, height, pad = 320, 320, 30
    body = (f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
            f'y2="{height - pad}" stroke="#999"/>\n'
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
            f'stroke="#999"/>\n')
    for i, (label, (fit, _, _)) in enumerate(sorted(fits.items())):
        pts = progress_spline.sample_fit(fit, 101)
        mapped = [(pad + x * (width - 2 * pad),
                   height - pad - y * (height - 2 * pad)) for x, y in pts]
        color = _GROUP_COLORS[i % len(_GROUP_COLORS)]
        body += _polyline(mapped, color)
        body += (f'<text x="{width - pad - 4}" y="{pad + 12 * (i + 1)}" '
                 f'font-size="10" text-anchor="end" fill="{color}">'
                 f'{label}</text>\n')
    _svg(path, width, height, body, config)


def svg_trajectories(rows, path, config):
    width, height, pad = 320, 320, 20
    xs = np.array([float(r[4]) for r in rows])
    ys = np.array([float(r[5]) for r in rows])
    span = max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9)

    def mapped(x, y):
        return (pad + (x - xs.min()) / span * (width - 2 * pad),
                pad + (y - ys.min()) / span * (height - 2 * pad))

    body = ""
    groups = sorted({r[0] for r in rows})
    for i, g in enumerate(groups):
        pts = [mapped(float(r[4]), float(r[5])) for r in rows if r[0] == g]
        body += _polyline(pts, _GROUP_COLORS[i % len(_GROUP_COLORS)])
    _svg(path, width, height, body, config)


# --- stage table -------------------------------------------------------------

class StageFailure(ReachkinError):
    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def write_streams(seq, path):
    """Write the sequence to <its participant id>/<name> beside path."""
    directory, name = os.path.split(path)
    os.makedirs(os.path.join(directory, seq.participant_id), exist_ok=True)
    with open(os.path.join(directory, seq.participant_id, name), "w") as fh:
        write_joint_csv(seq, fh)


def _write_report(r, config, bars, traj, bars_svg, progress_svg, traj_svg):
    bar_values, traj_rows = r["report"]
    write_bars(bar_values, bars, config)
    write_trajectories(traj_rows, traj, config)
    svg_bars(bar_values, bars_svg, config)
    svg_progress(r["progress"], progress_svg, config)
    svg_trajectories(traj_rows, traj_svg, config)


# name -> (stages it needs, compute(results, config), artifact file names,
#          write(results, config, *artifact paths)), in dependency order.
# ``results`` maps each computed stage to its value. Ingest reads the input
# directory: its value is the ParticipantRecords of one pass over the
# sessions (cohort_metrics) that runs every stage of PASS the run needs. The
# pass writes the files of the stages without a writer (preprocess and
# reconstruct), as <pid>/<name>. The lambdas look the module functions up
# when called, so replacing one (to wrap it for tracing, say) takes effect
# here too.
STAGES = {
    # (path, camera id -> CameraModel), given by `reachkin reconstruct`
    "calibration": ((), None, (), None),
    "ingest": ((), None, (), None),
    "validate": (("ingest",), None, (), None),
    "frames": (("validate",), None, (), None),
    "preprocess": (("frames",), None, ("joints_clean.csv",), None),
    "reconstruct": (("ingest", "calibration"), None, ("joints_3d.csv",), None),
    "metrics": (("preprocess",),
                lambda r, c: ([x.summary for x in r["ingest"]],
                              [x.segments for x in r["ingest"]]),
                ("metrics.csv",),
                lambda r, c, path: write_metrics(r["metrics"][0], path, c)),
    "progress": (("metrics",),
                 lambda r, c: fit_group_splines(group_curves(*r["metrics"])),
                 ("spline.csv", "progress_curves.csv"),
                 lambda r, c, *paths: write_splines(r["progress"], *paths, c)),
    "stats": (("metrics",), lambda r, c: run_stats(r["metrics"][0]),
              ("anova.csv", "tukey.csv"),
              lambda r, c, *paths: write_stats(r["stats"], *paths, c)),
    "train": (("frames",), lambda r, c: run_training(r["ingest"], c),
              ("cv_report.csv", "confusion.csv"),
              lambda r, c, *paths: write_training(r["train"][0], *paths, c)),
    "report": (("metrics", "progress"),
               lambda r, c: (bar_rows(r["metrics"][0]),
                             trajectory_rows(*r["metrics"])),
               ("bars.csv", "trajectories.csv", "bars.svg", "progress.svg",
                "trajectories.svg"), _write_report),
}

# the stages `reachkin pipeline` runs, and the files it writes
PIPELINE = ("metrics", "progress", "stats", "train", "report")
ARTIFACTS = tuple(name for stage in PIPELINE for name in STAGES[stage][2])


def _with_needs(names, given):
    """The named stages and every stage they need, through any not given."""
    todo = set(names)
    for name in reversed(STAGES):      # a stage comes after what it needs
        if name in todo and name not in given:
            todo.update(STAGES[name][0])
    return todo


def run_stages(config: PipelineConfig, names, given=None):
    """Compute the named stages and every stage they need, then write the
    named stages' files into config.out_dir through a staging directory,
    moved into place once every writer has returned: all of them or none.
    ``given`` maps a stage to a loader called in place of its computation.
    A ReachkinError or OSError is raised as a StageFailure naming the
    stage. Returns stage name -> value."""
    given = given or {}
    todo = _with_needs(names, given)
    writes = [name for name in STAGES if name in names and STAGES[name][2]]
    out, inp = config.out_dir, os.path.realpath(config.input_dir)
    staging = os.path.join(out, ".reachkin-staging")
    # the pass writes into staging: a failed run removes what it made
    made = os.path.abspath(staging)
    while not os.path.exists(os.path.dirname(made)):
        made = os.path.dirname(made)
    results = {}
    try:
        shutil.rmtree(staging, ignore_errors=True)     # left by a killed run
        for name in (name for name in STAGES if name in todo):
            if name in given:
                results[name] = given[name]()
            elif name == "ingest":
                # an out_dir inside input_dir would be read as a participant
                if writes and os.path.commonpath(
                        [inp, os.path.realpath(out)]) == inp:
                    raise ConfigError(f"output directory {out} is inside "
                                      f"input directory {config.input_dir}")
                paths = {stage: os.path.join(staging, STAGES[stage][2][0])
                         for stage in writes if not STAGES[stage][3]}
                results[name] = cohort_metrics(
                    iter_sessions(config.input_dir), todo.intersection(PASS),
                    config, paths, results.get("calibration"))
            elif STAGES[name][1]:
                results[name] = STAGES[name][1](results, config)
        for name in writes:
            _, _, artifacts, write = STAGES[name]
            os.makedirs(staging, exist_ok=True)
            if write:
                write(results, config,
                      *(os.path.join(staging, a) for a in artifacts))
        for root, _, files in os.walk(staging):
            dest = os.path.join(out, os.path.relpath(root, staging))
            os.makedirs(dest, exist_ok=True)
            for f in files:
                os.replace(os.path.join(root, f), os.path.join(dest, f))
    except (ReachkinError, OSError) as exc:
        shutil.rmtree(made, ignore_errors=True)
        # the pass names the stage of a failure itself
        name, exc = (exc.stage, exc.cause) if isinstance(exc, StageFailure) \
            else (name, exc)
        text = str(exc)        # a writer's error names the final path
        cause = type(exc)(text.replace(staging, out)) if staging in text \
            else exc
        raise StageFailure(name, cause) from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return results


def run_pipeline(config: PipelineConfig):
    """Run the PIPELINE stages and write their ARTIFACTS into out_dir."""
    run_stages(config, PIPELINE)
    return config.out_dir
