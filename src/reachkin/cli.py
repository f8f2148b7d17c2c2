"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import pipeline
from .errors import ConfigError, NumericalError
# load_cohort is not called here, but perfbench's tracer test reads it
from .model_io import AGE_BINS, load_cohort  # noqa: F401
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


def _run(args, stage, given=None):
    """Run one stage, and the stages it needs, with the command's config."""
    config = _config_from_args(args)
    results = pipeline.run_stages(config, (stage,), given)
    if pipeline.STAGES[stage][2]:
        print(f"{stage} complete; artifacts in {config.out_dir}")
    return results


def cmd_ingest(args):
    cohort = _run(args, "validate")["ingest"]
    print(f"{len(cohort.sessions)} sessions, 0 finding(s)")
    return 0


def cmd_preprocess(args):
    _run(args, "preprocess")
    return 0


def cmd_reconstruct(args):
    from . import reconstruct3d
    _run(args, "reconstruct", {"calibration": lambda: (
        args.calibration, reconstruct3d.load_calibration(args.calibration))})
    return 0


def cmd_metrics(args):
    _run(args, "metrics")
    return 0


def cmd_progress(args):
    _run(args, "progress")
    return 0


def cmd_stats(args):
    # metrics.csv holds the summaries but not the reach segments
    _run(args, "stats", {"metrics": lambda: (
        pipeline.read_metrics(args.metrics), None)})
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
        if isinstance(exc.cause, ConfigError):
            return 4
        if isinstance(exc.cause, NumericalError):
            return 3
        return 2
    except ConfigError as exc:          # the config file or options
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:     # synth's options or output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
