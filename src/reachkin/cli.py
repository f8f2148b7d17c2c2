"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import pipeline
from .errors import ConfigError, NumericalError
# load_cohort is not called here, but perfbench's tracer test reads it
from .model_io import load_cohort  # noqa: F401
from .pipeline import PipelineConfig, StageFailure


def _config_from_args(args):
    """The config file (or the defaults), overridden by every option given
    whose dest is a PipelineConfig field."""
    config = PipelineConfig.from_file(args.config) if args.config \
        else PipelineConfig()
    return replace(config, **{
        key: value for key, value in vars(args).items()
        if key in PipelineConfig.__dataclass_fields__ and value is not None})


# the stage commands and their help, in the order `reachkin -h` lists them
STAGE_COMMANDS = {
    "ingest": "load and validate sessions",
    "preprocess": "write cleaned joint streams",
    "reconstruct": "two-view 3D reconstruction",
    "metrics": "per-participant kinematic metrics",
    "progress": "progress-to-goal group splines",
    "stats": "ANOVA + Tukey over metrics.csv",
    "train": "cross-validated age regression",
    "report": "plot-data files and SVG figures",
    "pipeline": "run every stage end to end",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reachkin",
        description="Bilateral reaching kinematics analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--n-per-bin", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=50.0)
    p.add_argument("--out", required=True)

    for command, text in STAGE_COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "stats":
            p.add_argument("--metrics", required=True, help="metrics.csv path")
        else:
            p.add_argument("--in", dest="input_dir", required=True,
                           help="input directory of participant sessions")
        if command == "reconstruct":
            p.add_argument("--calibration", required=True,
                           help="camera calibration csv")
        p.add_argument("--out", dest="out_dir", required=command == "stats",
                       help="output directory")
        p.add_argument("--config", help="pipeline config file (JSON)")
        # every other config field, overriding the config file when given
        for field in fields(PipelineConfig):
            if field.name not in ("input_dir", "out_dir"):
                p.add_argument("--" + field.name.replace("_", "-"),
                               type=type(field.default))
    return parser


def cmd_synth(args):
    from . import synth     # loaded here: no other command needs it
    if args.n_per_bin < 1:
        raise ConfigError(f"--n-per-bin must be >= 1, got {args.n_per_bin}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # a session has round(duration * FPS) frames, and needs one
    if not 0.5 < args.duration * synth.FPS < float("inf"):
        raise ConfigError(f"--duration must be finite and hold one frame "
                          f"at {synth.FPS:g} fps, got {args.duration}")
    # files of an earlier cohort would mix with this one's
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ConfigError(f"--out {args.out} is not empty")
    cohort, truth = synth.generate_cohort(
        args.n_per_bin, seed=args.seed, duration=args.duration)
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


def _stage_command(stage):
    def command(args):
        _run(args, stage)
        return 0
    return command


cmd_preprocess, cmd_metrics, cmd_progress, cmd_report = map(
    _stage_command, ("preprocess", "metrics", "progress", "report"))


def cmd_reconstruct(args):
    from . import reconstruct3d
    _run(args, "reconstruct", {"calibration": lambda: (
        args.calibration, reconstruct3d.load_calibration(args.calibration))})
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


def cmd_pipeline(args):
    out = pipeline.run_pipeline(_config_from_args(args))
    print(f"pipeline complete; artifacts in {out}")
    return 0


COMMANDS = {name: globals()["cmd_" + name]
            for name in ("synth", *STAGE_COMMANDS)}


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
