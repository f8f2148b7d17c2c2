"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import agenet, pipeline, reconstruct3d, synth
from .errors import ConfigError, InputError, NumericalError, ReachkinError
from .model_io import load_cohort, validate_session, write_joint_csv
from .pipeline import PipelineConfig, StageFailure


def _parse_bins(text):
    bins = []
    for part in text.split(","):
        lo, hi = part.split("-")
        bins.append((int(lo), int(hi)))
    return tuple(bins)


def _config_from_args(args):
    if getattr(args, "config", None):
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    overrides = {}
    for attr, key in (("input", "input_dir"), ("out", "out_dir"),
                      ("seed", "seed"), ("jobs", "jobs"),
                      ("filter_order", "filter_order"),
                      ("filter_cutoff_hz", "filter_cutoff_hz"),
                      ("confidence_threshold", "confidence_threshold"),
                      ("decimation", "decimation"),
                      ("folds", "folds"), ("epochs", "epochs"),
                      ("stride", "stride")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "bins", None):
        overrides["bins"] = _parse_bins(args.bins)
    return replace(config, **overrides)


def _add_common(p, need_input=True):
    if need_input:
        p.add_argument("--in", dest="input", required=True,
                       help="input directory of participant sessions")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="pipeline config file (JSON)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reachkin",
        description="Bilateral reaching kinematics analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--n-per-bin", type=int, default=20)
    p.add_argument("--bins", default="6-8,9-10,11-13,14-17")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=50.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="load and validate sessions")
    _add_common(p)

    p = sub.add_parser("preprocess", help="write cleaned joint streams")
    _add_common(p)
    p.add_argument("--filter-order", type=int, default=None)
    p.add_argument("--filter-cutoff-hz", type=float, default=None)
    p.add_argument("--confidence-threshold", type=float, default=None)
    p.add_argument("--decimation", type=int, default=None)

    p = sub.add_parser("reconstruct", help="two-view 3D reconstruction")
    _add_common(p)
    p.add_argument("--calibration", required=True,
                   help="camera calibration csv")

    p = sub.add_parser("metrics", help="per-participant kinematic metrics")
    _add_common(p)

    p = sub.add_parser("progress", help="progress-to-goal group splines")
    _add_common(p)

    p = sub.add_parser("stats", help="ANOVA + Tukey over metrics.csv")
    p.add_argument("--metrics", required=True, help="metrics.csv path")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="cross-validated age regression")
    _add_common(p)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--arch", default=None, help="architecture descriptor JSON")

    p = sub.add_parser("report", help="plot-data files and SVG figures")
    _add_common(p)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_common(p)
    p.add_argument("--filter-order", type=int, default=None)
    p.add_argument("--filter-cutoff-hz", type=float, default=None)
    p.add_argument("--confidence-threshold", type=float, default=None)
    p.add_argument("--decimation", type=int, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--bins", default=None)
    return parser


def _out_dir(args, config):
    out = args.out if getattr(args, "out", None) else config.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_synth(args):
    cohort, truth = synth.generate_cohort(
        args.n_per_bin, _parse_bins(args.bins), args.seed, args.duration)
    synth.write_cohort(cohort, truth, args.out)
    print(f"wrote {len(cohort.sessions)} sessions to {args.out}")
    return 0


def cmd_ingest(args):
    config = _config_from_args(args)
    cohort = load_cohort(config.input_dir, config.bins)
    bad = 0
    for session in cohort.sessions:
        report = validate_session(session)
        for f in report.findings:
            bad += 1
            print(f"{session.participant_id}: [{f.code}] {f.message}")
    print(f"{len(cohort.sessions)} sessions, {bad} finding(s)")
    return 0 if bad == 0 else 2


def cmd_preprocess(args):
    config = _config_from_args(args)
    out = _out_dir(args, config)
    cohort = load_cohort(config.input_dir, config.bins)
    for session in cohort.sessions:
        seq = pipeline.preprocess_session(session, config)
        dest = os.path.join(out, session.participant_id)
        os.makedirs(dest, exist_ok=True)
        with open(os.path.join(dest, "joints_clean.csv"), "w") as fh:
            write_joint_csv(seq, fh)
    print(f"preprocessed {len(cohort.sessions)} sessions into {out}")
    return 0


def cmd_reconstruct(args):
    config = _config_from_args(args)
    out = _out_dir(args, config)
    cams = reconstruct3d.load_calibration(args.calibration)
    cohort = load_cohort(config.input_dir, config.bins)
    pairs = [(s.participant_id, s.skeletons[:2]) for s in cohort.sessions
             if len(s.skeletons) >= 2]
    for pid, views in pairs:
        for seq in views:
            if seq.camera_id not in cams:
                raise InputError(f"participant {pid}: camera {seq.camera_id!r} "
                                 f"is not in {args.calibration}")
    for pid, (seq1, seq2) in pairs:
        try:
            seq3d = reconstruct3d.triangulate_sequences(
                seq1, seq2, cams[seq1.camera_id], cams[seq2.camera_id],
                config.confidence_threshold)
        except NumericalError as exc:
            raise type(exc)(f"participant {pid}: {exc}") from exc
        dest = os.path.join(out, pid)
        os.makedirs(dest, exist_ok=True)
        with open(os.path.join(dest, "joints_3d.csv"), "w") as fh:
            write_joint_csv(seq3d, fh)
    print(f"reconstructed {len(pairs)} sessions into {out}")
    return 0


def cmd_metrics(args):
    config = _config_from_args(args)
    out = _out_dir(args, config)
    cohort = load_cohort(config.input_dir, config.bins)
    summaries, _ = pipeline.cohort_metrics(cohort, config)
    pipeline.write_metrics(summaries, os.path.join(out, "metrics.csv"), config)
    print(f"wrote {os.path.join(out, 'metrics.csv')}")
    return 0


def cmd_progress(args):
    config = _config_from_args(args)
    out = _out_dir(args, config)
    cohort = load_cohort(config.input_dir, config.bins)
    _, segments_by_pid = pipeline.cohort_metrics(cohort, config)
    curves = pipeline.group_curves(cohort, segments_by_pid, config)
    fits = pipeline.fit_group_splines(curves, config)
    pipeline.write_splines(fits, os.path.join(out, "spline.csv"),
                           os.path.join(out, "progress_curves.csv"), config)
    print(f"wrote {os.path.join(out, 'spline.csv')}")
    return 0


def cmd_stats(args):
    config = _config_from_args(args)
    out = args.out
    os.makedirs(out, exist_ok=True)
    summaries = pipeline.read_metrics(args.metrics)
    results = pipeline.run_stats(summaries, config)
    pipeline.write_stats(results, os.path.join(out, "anova.csv"),
                         os.path.join(out, "tukey.csv"), config)
    print(f"wrote {os.path.join(out, 'anova.csv')}")
    return 0


def cmd_train(args):
    config = _config_from_args(args)
    out = _out_dir(args, config)
    cohort = load_cohort(config.input_dir, config.bins)
    windows, skipped = agenet.windows_from_cohort(
        cohort, config.window, config.stride, config.decimation)
    arch = agenet.ArchDescriptor()
    if args.arch:
        with open(args.arch) as fh:
            raw = json.load(fh)
        raw = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        arch = agenet.ArchDescriptor(**raw)
    report = agenet.cross_validate(
        windows, folds=config.folds, split=config.split,
        epochs=config.epochs, seed=config.seed, arch=arch,
        lr=config.learning_rate)
    pipeline.write_training(report, os.path.join(out, "cv_report.csv"),
                            os.path.join(out, "confusion.csv"), config)
    for pid in skipped:
        print(f"warning: {pid}: sequence too short, skipped")
    print(f"pooled rMSE {report.pooled_rmse:.3f} years")
    return 0


def cmd_report(args):
    config = _config_from_args(args)
    out = _out_dir(args, config)
    cohort = load_cohort(config.input_dir, config.bins)
    summaries, segments_by_pid = pipeline.cohort_metrics(cohort, config)
    curves = pipeline.group_curves(cohort, segments_by_pid, config)
    fits = pipeline.fit_group_splines(curves, config)
    bar_rows = pipeline.write_bars(summaries, os.path.join(out, "bars.csv"),
                                   config)
    traj = os.path.join(out, "trajectories.csv")
    pipeline.write_trajectories(cohort, segments_by_pid, traj, config)
    pipeline.svg_bars(bar_rows, os.path.join(out, "bars.svg"), config)
    pipeline.svg_progress(fits, os.path.join(out, "progress.svg"), config)
    pipeline.svg_trajectories(traj, os.path.join(out, "trajectories.svg"),
                              config)
    print(f"wrote report files to {out}")
    return 0


def cmd_pipeline(args):
    config = _config_from_args(args)
    if getattr(args, "out", None):
        config = replace(config, out_dir=args.out)
    out = pipeline.run_pipeline(config)
    print(f"pipeline complete; artifacts in {out}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "preprocess": cmd_preprocess,
    "reconstruct": cmd_reconstruct,
    "metrics": cmd_metrics,
    "progress": cmd_progress,
    "stats": cmd_stats,
    "train": cmd_train,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, ConfigError):
            return 4
        if isinstance(cause, NumericalError):
            return 3
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InputError, ReachkinError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
