"""End-to-end orchestration: configuration, stage wiring, artifact files, and
simple SVG figure analogs.

Stage order is fixed: ingest -> preprocess -> segment -> metrics -> progress
-> stats; training is independent and runs from the 2D streams alone, and
two-view reconstruction runs only as ``reachkin reconstruct``. Every artifact
file starts with a comment line recording the configuration hash and seed,
and all files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import agenet, kinematics, progress_spline, reconstruct3d, stats, synth
from .errors import (
    ConfigError,
    InputError,
    NumericalError,
    ReachkinError,
    TooFewInliers,
    ZeroInitialDistance,
    ZeroPathLength,
)
from .model_io import Cohort, load_cohort, validate_session

ANALYSIS_GROUPS = ((6, 10), (11, 13), (14, 17))


def group_label(age, groups=ANALYSIS_GROUPS):
    for lo, hi in groups:
        if lo <= age <= hi:
            return f"{lo}-{hi}"
    raise InputError(f"age {age} outside analysis groups {groups}")


@dataclass(frozen=True)
class PipelineConfig:
    input_dir: str = "."
    out_dir: str = "out"
    seed: int = 0
    jobs: int = 1
    # preprocessing
    confidence_threshold: float = 0.75
    decimation: int = 2
    filter_order: int = 2
    filter_cutoff_hz: float = 6.0
    outlier_k_sigma: float = 2.0
    # progress splines
    backward_threshold: float = 0.10
    spline_rounds: int = 3
    # age model
    window: int = 200
    stride: int = 100
    folds: int = 5
    epochs: int = 15
    split: float = 0.7
    learning_rate: float = 1e-3
    # cohort structure
    bins: tuple = synth.DEFAULT_BINS
    analysis_groups: tuple = ANALYSIS_GROUPS

    def __post_init__(self):
        if self.decimation < 1 or self.folds < 1 or self.epochs < 0:
            raise ConfigError("decimation/folds/epochs out of range")
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")

    def to_dict(self):
        d = asdict(self)
        d["bins"] = [list(b) for b in self.bins]
        d["analysis_groups"] = [list(g) for g in self.analysis_groups]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        if "bins" in d:
            d["bins"] = tuple(tuple(b) for b in d["bins"])
        if "analysis_groups" in d:
            d["analysis_groups"] = tuple(tuple(g) for g in d["analysis_groups"])
        return cls(**d)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")

    @property
    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_artifact(path, header, rows, config: PipelineConfig):
    """Write a CSV artifact with the config-hash comment line on top."""
    buf = io.StringIO()
    buf.write(f"# reachkin config_hash={config.config_hash} seed={config.seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def read_artifact(path):
    """Read a CSV artifact, skipping comment lines; returns (header, rows)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


def _fnum(x):
    return repr(float(x))


# --- per-participant analysis ----------------------------------------------

def preprocess_session(session, config: PipelineConfig):
    """Confidence gate, decimate, and zero-phase filter one 2D skeleton."""
    from . import preprocess   # pulls in scipy.signal, about 1 s of start-up

    seq = session.skeleton()
    seq, _ = preprocess.reject_low_confidence(seq, config.confidence_threshold)
    seq = preprocess.downsample(seq, config.decimation)
    spec = preprocess.FilterSpec(config.filter_order, config.filter_cutoff_hz,
                                 seq.sample_rate)
    return preprocess.filter_sequence(seq, spec)


def analyze_session(session, config: PipelineConfig):
    """Full metric extraction for one session.

    Returns (MetricSummary, repaired ReachSegments). Paths are in
    shoulder-width units; targets are mapped into the same frame.
    """
    from . import preprocess

    seq = preprocess_session(session, config)
    scale = reconstruct3d.shoulder_scale(seq)
    seq = reconstruct3d.normalize_by_shoulder_width(seq)
    w, h = session.manifest.play_area_px

    def target_to_path(pos_norm):
        return np.array([pos_norm[0] * w, pos_norm[1] * h]) / scale

    segments = kinematics.segment_reaches(seq, session.targets,
                                          target_to_path=target_to_path)
    repaired = []
    for seg in segments:
        try:
            path = preprocess.interpolate_outliers(seg.path,
                                                   config.outlier_k_sigma)
        except TooFewInliers:
            path = seg.path   # degenerate short segment; keep as-is
        repaired.append(replace(seg, path=path))

    usable = []
    for seg in repaired:
        try:
            kinematics.segment_directness(seg)
            usable.append(seg)
        except ZeroPathLength:
            continue
    summary = kinematics.participant_medians(
        usable, session.participant_id, session.age,
        group_label(session.age, config.analysis_groups))
    return summary, usable


def cohort_metrics(cohort: Cohort, config: PipelineConfig):
    summaries, segments_by_pid = [], {}
    for session in cohort.sessions:
        summary, segments = analyze_session(session, config)
        summaries.append(summary)
        segments_by_pid[session.participant_id] = segments
    return summaries, segments_by_pid


# --- stage artifact emitters -----------------------------------------------

def write_metrics(summaries, path, config):
    rows = [[s.participant_id, s.age, s.group, _fnum(s.median_directness),
             _fnum(s.median_max_speed), s.reach_count] for s in summaries]
    write_artifact(path, ["participant_id", "age", "group",
                          "median_directness", "median_max_speed",
                          "reach_count"], rows, config)


def read_metrics(path):
    header, rows = read_artifact(path)
    idx = {name: header.index(name) for name in header}
    out = []
    for r in rows:
        out.append(kinematics.MetricSummary(
            participant_id=r[idx["participant_id"]],
            age=int(r[idx["age"]]),
            group=r[idx["group"]],
            median_directness=float(r[idx["median_directness"]]),
            median_max_speed=float(r[idx["median_max_speed"]]),
            reach_count=int(r[idx["reach_count"]]),
        ))
    return out


def group_curves(cohort, segments_by_pid, config):
    """Pool backward-filtered progress curves per analysis group."""
    curves = {group_label((lo + hi) // 2, config.analysis_groups): []
              for lo, hi in config.analysis_groups}
    for session in cohort.sessions:
        label = group_label(session.age, config.analysis_groups)
        for seg in segments_by_pid[session.participant_id]:
            try:
                curve = progress_spline.progress_curve(seg)
            except ZeroInitialDistance:
                continue
            curves[label].append(curve)
    return {label: progress_spline.filter_backward_reaches(
        cs, config.backward_threshold) for label, cs in curves.items()}


def fit_group_splines(curves_by_group, config):
    fits = {}
    for label, curves in curves_by_group.items():
        if not curves:
            continue
        fit = progress_spline.fit_cubic_bezier(curves, config.spline_rounds)
        rates = progress_spline.endpoint_rates(fit)
        fits[label] = (fit, rates, len(curves))
    return fits


def write_splines(fits, spline_path, curves_path, config):
    rows = []
    curve_rows = []
    for label, (fit, rates, n_curves) in fits.items():
        rows.append([label, _fnum(fit.p1[0]), _fnum(fit.p1[1]),
                     _fnum(fit.p2[0]), _fnum(fit.p2[1]),
                     _fnum(rates.initial_rate), _fnum(rates.final_rate),
                     _fnum(rates.rate_ratio), _fnum(fit.residual_rms),
                     n_curves])
        for x, y in progress_spline.sample_fit(fit, 101):
            curve_rows.append([label, _fnum(x), _fnum(y)])
    write_artifact(spline_path,
                   ["group", "p1_tau", "p1_rho", "p2_tau", "p2_rho",
                    "initial_rate", "final_rate", "rate_ratio",
                    "residual_rms", "n_curves"], rows, config)
    write_artifact(curves_path, ["group", "tau", "rho"], curve_rows, config)


def grouped_metric(summaries, attr, config):
    labels = [group_label((lo + hi) // 2, config.analysis_groups)
              for lo, hi in config.analysis_groups]
    groups = []
    for label in labels:
        groups.append(tuple(getattr(s, attr) for s in summaries
                            if s.group == label))
    return stats.GroupedSamples(tuple(labels), tuple(groups))


def run_stats(summaries, config):
    results = {}
    for metric, attr in (("directness", "median_directness"),
                         ("max_speed", "median_max_speed")):
        grouped = grouped_metric(summaries, attr, config)
        results[metric] = (stats.one_way_anova(grouped),
                           stats.tukey_hsd(grouped))
    return results


def write_stats(results, anova_path, tukey_path, config):
    anova_rows, tukey_rows = [], []
    for metric, (anova, tukey) in results.items():
        anova_rows.append([metric, _fnum(anova.F), anova.df_between,
                           anova.df_within, _fnum(anova.p)])
        for cmp in tukey.comparisons:
            tukey_rows.append([metric, f"{cmp.label_a} vs {cmp.label_b}",
                               _fnum(cmp.mean_diff), _fnum(cmp.q),
                               _fnum(cmp.p)])
    write_artifact(anova_path, ["metric", "F", "df_between", "df_within", "p"],
                   anova_rows, config)
    write_artifact(tukey_path, ["metric", "pair", "diff", "q", "p"],
                   tukey_rows, config)


def run_training(cohort, config: PipelineConfig):
    windows, skipped = agenet.windows_from_cohort(
        cohort, config.window, config.stride, config.decimation)
    report = agenet.cross_validate(
        windows, folds=config.folds, split=config.split,
        epochs=config.epochs, seed=config.seed, lr=config.learning_rate)
    return report, skipped


def write_training(report, cv_path, confusion_path, config):
    rows = [[i, _fnum(r)] for i, r in enumerate(report.fold_rmse)]
    rows.append(["pooled", _fnum(report.pooled_rmse)])
    write_artifact(cv_path, ["fold", "rmse"], rows, config)

    bin_labels = [f"{lo}-{hi}" for lo, hi in report.bins]
    conf_rows = [[bin_labels[i]] + list(map(int, report.confusion[i]))
                 for i in range(len(bin_labels))]
    write_artifact(confusion_path, ["true_bin"] + [f"pred_{b}" for b in bin_labels],
                   conf_rows, config)


# --- figure analogs --------------------------------------------------------

def write_bars(summaries, path, config):
    rows = []
    for metric, attr in (("directness", "median_directness"),
                         ("max_speed", "median_max_speed")):
        grouped = grouped_metric(summaries, attr, config)
        for label, values in zip(grouped.labels, grouped.groups):
            arr = np.asarray(values)
            rows.append([metric, label, _fnum(arr.mean()), _fnum(arr.std())])
    write_artifact(path, ["metric", "group", "mean", "std"], rows, config)
    return rows


def write_trajectories(cohort, segments_by_pid, path, config):
    """One sample reach path per analysis group, for plotting."""
    rows = []
    seen = set()
    for session in cohort.sessions:
        label = group_label(session.age, config.analysis_groups)
        if label in seen:
            continue
        segments = segments_by_pid.get(session.participant_id, [])
        if not segments:
            continue
        seg = max(segments, key=lambda s: s.n_frames)
        for i, p in enumerate(seg.path):
            rows.append([label, session.participant_id, seg.hand, i,
                         *map(_fnum, p)])
        seen.add(label)
    write_artifact(path, ["group", "participant_id", "hand", "frame", "x", "y"],
                   rows, config)


def _svg(path, width, height, body, config):
    text = (f"<!-- reachkin config_hash={config.config_hash} "
            f"seed={config.seed} -->\n"
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n' + body + "</svg>\n")
    _atomic_write(path, text)


def svg_bars(bar_rows, path, config):
    """Bar chart analog: grouped means with std whiskers."""
    width, height, pad = 480, 240, 30
    metrics = sorted({r[0] for r in bar_rows})
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


def svg_trajectories(traj_path_csv, path, config):
    header, rows = read_artifact(traj_path_csv)
    width, height, pad = 320, 320, 20
    if not rows:
        _svg(path, width, height, "", config)
        return
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


# --- top level -------------------------------------------------------------

ARTIFACTS = ("metrics.csv", "anova.csv", "tukey.csv", "spline.csv",
             "cv_report.csv", "confusion.csv", "progress_curves.csv")


class StageFailure(ReachkinError):
    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def run_pipeline(config: PipelineConfig):
    """Run every stage and emit all artifact files into config.out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)

    def stage(name, fn):
        try:
            return fn()
        except ReachkinError as exc:
            raise StageFailure(name, exc)

    cohort = stage("ingest", lambda: load_cohort(config.input_dir, config.bins))
    for session in cohort.sessions:
        report = validate_session(session)
        if not report.ok:
            raise StageFailure(
                "ingest", InputError(
                    f"participant {session.participant_id}: "
                    + "; ".join(f.message for f in report.findings)))

    summaries, segments_by_pid = stage(
        "metrics", lambda: cohort_metrics(cohort, config))
    write_metrics(summaries, os.path.join(config.out_dir, "metrics.csv"), config)

    curves = stage("progress",
                   lambda: group_curves(cohort, segments_by_pid, config))
    fits = stage("progress", lambda: fit_group_splines(curves, config))
    write_splines(fits, os.path.join(config.out_dir, "spline.csv"),
                  os.path.join(config.out_dir, "progress_curves.csv"), config)

    results = stage("stats", lambda: run_stats(summaries, config))
    write_stats(results, os.path.join(config.out_dir, "anova.csv"),
                os.path.join(config.out_dir, "tukey.csv"), config)

    cv_report, _ = stage("train", lambda: run_training(cohort, config))
    write_training(cv_report, os.path.join(config.out_dir, "cv_report.csv"),
                   os.path.join(config.out_dir, "confusion.csv"), config)

    bar_rows = write_bars(summaries, os.path.join(config.out_dir, "bars.csv"),
                          config)
    traj_csv = os.path.join(config.out_dir, "trajectories.csv")
    write_trajectories(cohort, segments_by_pid, traj_csv, config)
    svg_bars(bar_rows, os.path.join(config.out_dir, "bars.svg"), config)
    svg_progress(fits, os.path.join(config.out_dir, "progress.svg"), config)
    svg_trajectories(traj_csv, os.path.join(config.out_dir, "trajectories.svg"),
                     config)
    return config.out_dir
