"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import pipeline, reconstruct3d
from .errors import ConfigError, InputError, NumericalError, ReachkinError
from .model_io import AGE_BINS, load_cohort, validate_session, write_joint_csv
from .pipeline import PipelineConfig, StageFailure


def _parse_bins(text):
    return tuple(tuple(int(age) for age in part.split("-"))
                 for part in text.split(","))


def _config_from_args(args):
    """The config file (or the defaults), overridden by every option given
    whose dest is a PipelineConfig field."""
    config = PipelineConfig.from_file(args.config) if args.config \
        else PipelineConfig()
    return replace(config, **{
        key: value for key, value in vars(args).items()
        if key in PipelineConfig.__dataclass_fields__ and value is not None})


def _add_common(p):
    p.add_argument("--in", dest="input_dir", required=True,
                   help="input directory of participant sessions")
    p.add_argument("--out", dest="out_dir", default=None,
                   help="output directory")
    p.add_argument("--config", default=None, help="pipeline config file (JSON)")
    p.add_argument("--seed", type=int, default=None)


def _add_preprocess(p):
    p.add_argument("--filter-order", type=int, default=None)
    p.add_argument("--filter-cutoff-hz", type=float, default=None)
    p.add_argument("--confidence-threshold", type=float, default=None)
    p.add_argument("--decimation", type=int, default=None)


def _add_train(p):
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reachkin",
        description="Bilateral reaching kinematics analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--n-per-bin", type=int, default=20)
    p.add_argument("--bins", type=_parse_bins, default=AGE_BINS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=50.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="load and validate sessions")
    _add_common(p)

    p = sub.add_parser("preprocess", help="write cleaned joint streams")
    _add_common(p)
    _add_preprocess(p)

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
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="cross-validated age regression")
    _add_common(p)
    _add_train(p)

    p = sub.add_parser("report", help="plot-data files and SVG figures")
    _add_common(p)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_common(p)
    _add_preprocess(p)
    _add_train(p)
    return parser


def cmd_synth(args):
    from . import synth     # loaded here: no other command needs it
    cohort, truth = synth.generate_cohort(
        args.n_per_bin, args.bins, args.seed, args.duration)
    synth.write_cohort(cohort, truth, args.out)
    print(f"wrote {len(cohort.sessions)} sessions to {args.out}")
    return 0


def cmd_ingest(args):
    config = _config_from_args(args)
    cohort = load_cohort(config.input_dir)
    bad = 0
    for session in cohort.sessions:
        report = validate_session(session)
        for f in report.findings:
            bad += 1
            print(f"{session.participant_id}: [{f.code}] {f.message}")
    print(f"{len(cohort.sessions)} sessions, {bad} finding(s)")
    return 0 if bad == 0 else 2


def _write_streams(out_dir, streams, name):
    """Write each (participant id, sequence) to out_dir/<pid>/<name>."""
    for pid, seq in streams:
        dest = os.path.join(out_dir, pid)
        os.makedirs(dest, exist_ok=True)
        with open(os.path.join(dest, name), "w") as fh:
            write_joint_csv(seq, fh)


def cmd_preprocess(args):
    config = _config_from_args(args)
    cohort = load_cohort(config.input_dir)
    frames = pipeline.cohort_frames(cohort, config)
    cleaned = [(s.participant_id, pipeline.per_participant(
        s.participant_id, pipeline.preprocess_session, seq, config))
        for s, seq in zip(cohort.sessions, frames)]
    _write_streams(config.out_dir, cleaned, "joints_clean.csv")
    print(f"preprocessed {len(cohort.sessions)} sessions into {config.out_dir}")
    return 0


def cmd_reconstruct(args):
    config = _config_from_args(args)
    cams = reconstruct3d.load_calibration(args.calibration)
    cohort = load_cohort(config.input_dir)
    pairs = [(s.participant_id, s.skeletons[:2]) for s in cohort.sessions
             if len(s.skeletons) >= 2]
    for pid, views in pairs:
        for seq in views:
            if seq.camera_id not in cams:
                raise InputError(f"participant {pid}: camera {seq.camera_id!r} "
                                 f"is not in {args.calibration}")
    reconstructed = [(pid, pipeline.per_participant(
        pid, reconstruct3d.triangulate_sequences, seq1, seq2,
        cams[seq1.camera_id], cams[seq2.camera_id],
        config.confidence_threshold)) for pid, (seq1, seq2) in pairs]
    _write_streams(config.out_dir, reconstructed, "joints_3d.csv")
    print(f"reconstructed {len(pairs)} sessions into {config.out_dir}")
    return 0


def _run(args, stage, done=None):
    """Run one stage, and the stages it needs, with the command's config."""
    config = _config_from_args(args)
    results = pipeline.run_stages(config, (stage,), done)
    print(f"{stage} complete; artifacts in {config.out_dir}")
    return results


def cmd_metrics(args):
    _run(args, "metrics")
    return 0


def cmd_progress(args):
    _run(args, "progress")
    return 0


def cmd_stats(args):
    # metrics.csv holds the summaries but not the reach segments
    _run(args, "stats", {"metrics": (pipeline.read_metrics(args.metrics), None)})
    return 0


def cmd_train(args):
    report, skipped = _run(args, "train")["train"]
    for pid in skipped:
        print(f"warning: {pid}: sequence too short, skipped")
    print(f"pooled rMSE {report.pooled_rmse:.3f} years")
    return 0


def cmd_report(args):
    _run(args, "report")
    return 0


def cmd_pipeline(args):
    out = pipeline.run_pipeline(_config_from_args(args))
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
