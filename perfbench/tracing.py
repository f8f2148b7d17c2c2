"""Traced, in-process runs of a workload for per-layer metrics.

The tracer wraps the public functions at each module boundary of
``reachkin`` from outside the package: every module attribute (or command
table entry) that refers to a wrapped function is replaced for the duration
of the traced run, so ``from .x import f`` references are covered too. Each
call records a span (name, parent, phase, start, end); spans stay in memory
and are aggregated when the run ends. A layer's busy time is the self time
of its spans: duration minus the time covered by child spans. Counters are
taken from arguments and results at the same boundaries, in hooks whose own
time is recorded as a child span so that it is excluded from every layer.

A function that no longer exists, or a hook that no longer fits the data it
reads, makes the metrics that depend on it missing: they are left out of the
result and named on stderr, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# --- counters taken at the boundaries -----------------------------------------


def _parse(count, args, result):
    count("model_io.rows_parsed", len(result.samples))


def _write(count, args, result):
    count("model_io.rows_written", len(args[0].samples))


def _gate(count, args, result):
    flags = result[1].flags.values()
    count("preprocess.gated", sum(int(f.sum()) for f in flags))
    count("preprocess.gate_frames", sum(len(f) for f in flags))


def _triangulate(count, args, result):
    seq1, seq2 = args[0], args[1]
    both = {(s.joint, s.frame_index) for s in seq1.samples} & \
        {(s.joint, s.frame_index) for s in seq2.samples}
    count("reconstruct3d.candidates", len(both))
    count("reconstruct3d.points", len(result.samples))


def _segments(count, args, result):
    count("kinematics.reaches", len(result))


def _medians(count, args, result):
    count("kinematics.usable", result.reach_count)


def _backward(count, args, result):
    count("progress_spline.kept", len(result))


def _fit(count, args, result):
    count("progress_spline.fit_points", result.n_points)


def _windows(count, args, result):
    count("agenet.windows", len(result[0]))


def _write_cohort(count, args, result):
    count("synth.rows_written", sum(len(seq.samples) for s in args[0].sessions
                                    for seq in s.skeletons))


HOOKS = {
    "model_io.parse_joint_csv": _parse,
    "model_io.write_joint_csv": _write,
    "preprocess.reject_low_confidence": _gate,
    "reconstruct3d.triangulate_sequences": _triangulate,
    "kinematics.segment_reaches": _segments,
    "kinematics.participant_medians": _medians,
    "progress_spline.filter_backward_reaches": _backward,
    "progress_spline.fit_cubic_bezier": _fit,
    "agenet.windows_from_cohort": _windows,
    "synth.write_cohort": _write_cohort,
}

CLI_COMMANDS = ("ingest", "preprocess", "metrics", "progress", "stats",
                "report", "reconstruct", "pipeline")

PIPELINE_WRITERS = ("write_metrics", "write_splines", "write_stats",
                    "write_training", "write_bars", "write_trajectories",
                    "svg_bars", "svg_progress", "svg_trajectories")
PIPELINE_STAGES = ("run_pipeline", "preprocess_session", "analyze_session",
                   "cohort_metrics", "group_curves", "fit_group_splines",
                   "run_stats", "run_training", "read_metrics")

WRAPPED = (
    ("cli", ("main", "cmd_synth", *(f"cmd_{c}" for c in CLI_COMMANDS))),
    ("model_io", ("load_cohort", "load_session", "parse_joint_csv",
                  "parse_target_csv", "parse_manifest", "write_joint_csv",
                  "validate_session")),
    ("preprocess", ("reject_low_confidence", "downsample", "filter_sequence",
                    "interpolate_outliers")),
    ("reconstruct3d", ("shoulder_scale", "normalize_by_shoulder_width",
                       "triangulate_sequences")),
    ("kinematics", ("segment_reaches", "segment_directness",
                    "participant_medians")),
    ("progress_spline", ("progress_curve", "filter_backward_reaches",
                         "fit_cubic_bezier", "endpoint_rates", "sample_fit")),
    ("stats", ("one_way_anova", "tukey_hsd")),
    ("agenet", ("windows_from_cohort", "cross_validate", "train",
                "evaluate_mse", "AgeNet.forward", "AgeNet.backward")),
    ("synth", ("generate_cohort", "write_cohort")),
    ("pipeline", PIPELINE_STAGES + PIPELINE_WRITERS),
)

HOOK_SPAN = "trace.hook"


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans = []            # [name, parent index, phase, start, end]
        self.counts = defaultdict(float)    # (phase, key) -> value
        self.missing = set()       # span names that could not be recorded
        self._stack = []
        self._phase = None
        self._patches = []

    # -- installation --

    def install(self):
        for mod_name, attrs in WRAPPED:
            module = importlib.import_module(f"reachkin.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, leaf, None)
                if not callable(original):
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner:
                    self._patch(holder, leaf, original, wrapper)
                else:
                    self._patch_everywhere(original, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _patch(self, target, key, original, wrapper):
        self._patches.append((target, key, original))
        if isinstance(target, dict):
            target[key] = wrapper
        else:
            setattr(target, key, wrapper)

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "reachkin" or mod_name.startswith("reachkin.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patch(value, k, original, wrapper)

    # -- recording --

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, parent, self._phase, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                self.count(f"{name}.raised.{type(exc).__name__}", 1)
                raise
            self._close(span)
            if hook is not None:
                self._run_hook(name, hook, args, result)
            return result
        return wrapper

    def _run_hook(self, name, hook, args, result):
        span = self._open(HOOK_SPAN)
        try:
            hook(self.count, args, result)
        except Exception as exc:     # the data no longer has this shape
            print(f"trace: counter hook for {name} failed: {exc!r}",
                  file=sys.stderr)
            self.missing.add(name)
        finally:
            self._close(span)

    def count(self, key, n):
        self.counts[(self._phase, key)] += n

    @contextmanager
    def phase(self, name):
        """Group the spans of one set-up or timed repetition."""
        previous, self._phase = self._phase, name
        span = self._open(f"phase.{name}")
        try:
            yield
        finally:
            self._close(span)
            self._phase = previous

    # -- aggregation --

    def aggregate(self, phase):
        return Aggregate(self, phase)


class Aggregate:
    """Per-repetition sums over the spans and counters of one phase."""

    def __init__(self, tracer: Tracer, phase):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_under = defaultdict(float)     # (name, parent name) -> s
        spans = tracer.spans
        child_time = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        self.reps = 0
        self.wall_s = 0.0
        for i, (name, parent, ph, start, end) in enumerate(spans):
            if ph != phase:
                continue
            if name == f"phase.{phase}":
                self.reps += 1
                self.wall_s += end - start
                continue
            dur = end - start
            own = dur - child_time[i]
            self.self_s[name] += own
            self.incl_s[name] += dur
            self.calls[name] += 1
            parent_name = spans[parent][0] if parent is not None else None
            self.self_under[(name, parent_name)] += own
        self.reps = max(self.reps, 1)
        self.counts = {key: v for (ph, key), v in tracer.counts.items()
                       if ph == phase}

    def busy(self, *names):
        return sum(self.self_s[n] for n in names) / self.reps

    def incl(self, *names):
        return sum(self.incl_s[n] for n in names) / self.reps

    def n(self, *names):
        return sum(self.calls[n] for n in names) / self.reps

    def count(self, key):
        return self.counts.get(key, 0.0) / self.reps

    def coverage(self):
        """Share of the traced wall time, hooks excluded, that falls inside
        a module layer rather than in command glue or outside any span."""
        layers = sum(v for k, v in self.self_s.items()
                     if not k.startswith("cli.") and k != HOOK_SPAN)
        return ratio(layers, self.wall_s - self.self_s[HOOK_SPAN])


def ratio(num, den):
    """A ratio whose base is zero (the layer did no work) reads 0."""
    return num / den if den else 0.0


def _busy(agg, names):
    return agg.busy(*names)


def _pipeline(*attrs):
    return tuple(f"pipeline.{a}" for a in attrs)


FWD, EVAL = "agenet.AgeNet.forward", "agenet.evaluate_mse"


def layer_table():
    """(metric, unit, better, spans it needs, phase, value from Aggregate)."""
    t, s = "timed", "setup"
    rows = [
        ("model_io.parse_s", "s", "lower", ("model_io.load_cohort",
         "model_io.load_session", "model_io.parse_joint_csv",
         "model_io.parse_target_csv", "model_io.parse_manifest"), t,
         _busy),
        ("model_io.rows_parsed", "count", "lower",
         ("model_io.parse_joint_csv",), t,
         lambda a, n: a.count("model_io.rows_parsed")),
        ("model_io.write_s", "s", "lower", ("model_io.write_joint_csv",), t,
         _busy),
        ("model_io.rows_written", "count", "lower",
         ("model_io.write_joint_csv",), t,
         lambda a, n: a.count("model_io.rows_written")),
        ("model_io.validate_s", "s", "lower", ("model_io.validate_session",),
         t, _busy),
        ("preprocess.gate_s", "s", "lower",
         ("preprocess.reject_low_confidence",), t, _busy),
        ("preprocess.gated_frac", "ratio", "lower",
         ("preprocess.reject_low_confidence",), t,
         lambda a, n: ratio(a.count("preprocess.gated"),
                            a.count("preprocess.gate_frames"))),
        ("preprocess.decimate_s", "s", "lower", ("preprocess.downsample",), t,
         _busy),
        ("preprocess.filter_s", "s", "lower", ("preprocess.filter_sequence",),
         t, _busy),
        ("preprocess.outlier_s", "s", "lower",
         ("preprocess.interpolate_outliers",), t, _busy),
        ("preprocess.outlier_fallback_frac", "ratio", "lower",
         ("preprocess.interpolate_outliers",), t,
         lambda a, n: ratio(a.count(
             "preprocess.interpolate_outliers.raised.TooFewInliers"),
             a.n(*n))),
        ("reconstruct3d.normalize_s", "s", "lower",
         ("reconstruct3d.normalize_by_shoulder_width",
          "reconstruct3d.shoulder_scale"), t, _busy),
        ("reconstruct3d.triangulate_s", "s", "lower",
         ("reconstruct3d.triangulate_sequences",), t, _busy),
        ("reconstruct3d.points", "count", "higher",
         ("reconstruct3d.triangulate_sequences",), t,
         lambda a, n: a.count("reconstruct3d.points")),
        ("reconstruct3d.points_per_s", "1/s", "higher",
         ("reconstruct3d.triangulate_sequences",), t,
         lambda a, n: ratio(a.count("reconstruct3d.points"), a.busy(*n))),
        ("reconstruct3d.gated_points_frac", "ratio", "lower",
         ("reconstruct3d.triangulate_sequences",), t,
         lambda a, n: ratio(a.count("reconstruct3d.candidates")
                            - a.count("reconstruct3d.points"),
                            a.count("reconstruct3d.candidates"))),
        ("kinematics.segment_s", "s", "lower", ("kinematics.segment_reaches",),
         t, _busy),
        ("kinematics.metrics_s", "s", "lower",
         ("kinematics.segment_directness", "kinematics.participant_medians"),
         t, _busy),
        ("kinematics.reaches", "count", "higher",
         ("kinematics.segment_reaches",), t,
         lambda a, n: a.count("kinematics.reaches")),
        ("kinematics.reach_keep_frac", "ratio", "higher",
         ("kinematics.segment_reaches", "kinematics.participant_medians"), t,
         lambda a, n: ratio(a.count("kinematics.usable"),
                            a.count("kinematics.reaches"))),
        ("progress_spline.curve_s", "s", "lower",
         ("progress_spline.progress_curve",
          "progress_spline.filter_backward_reaches"), t,
         _busy),
        ("progress_spline.fit_s", "s", "lower",
         ("progress_spline.fit_cubic_bezier", "progress_spline.endpoint_rates",
          "progress_spline.sample_fit"), t, _busy),
        ("progress_spline.fit_points", "count", "higher",
         ("progress_spline.fit_cubic_bezier",), t,
         lambda a, n: a.count("progress_spline.fit_points")),
        ("progress_spline.curve_keep_frac", "ratio", "higher",
         ("progress_spline.progress_curve",
          "progress_spline.filter_backward_reaches"), t,
         lambda a, n: ratio(a.count("progress_spline.kept"), a.n(n[0]))),
        ("stats.s", "s", "lower", ("stats.one_way_anova", "stats.tukey_hsd"),
         t, _busy),
        ("stats.calls", "count", "lower",
         ("stats.one_way_anova", "stats.tukey_hsd"), t,
         lambda a, n: a.n(*n)),
        ("agenet.windows_s", "s", "lower", ("agenet.windows_from_cohort",), t,
         _busy),
        ("agenet.windows", "count", "higher", ("agenet.windows_from_cohort",),
         t, lambda a, n: a.count("agenet.windows")),
        ("agenet.cv_s", "s", "lower", ("agenet.cross_validate", "agenet.train"),
         t, _busy),
        ("agenet.forward_s", "s", "lower", (FWD, EVAL), t,
         lambda a, n: (a.busy(FWD) - a.self_under[(FWD, EVAL)] / a.reps)),
        ("agenet.backward_s", "s", "lower", ("agenet.AgeNet.backward",), t,
         _busy),
        ("agenet.eval_s", "s", "lower", (FWD, EVAL), t,
         lambda a, n: a.busy(EVAL) + a.self_under[(FWD, EVAL)] / a.reps),
        ("agenet.train_steps", "count", "lower", ("agenet.AgeNet.backward",),
         t, lambda a, n: a.n(*n)),
        ("agenet.steps_per_s", "1/s", "higher",
         ("agenet.AgeNet.backward", "agenet.cross_validate"), t,
         lambda a, n: ratio(a.n(n[0]), a.incl(n[1]))),
        ("synth.generate_s", "s", "lower", ("synth.generate_cohort",), s,
         lambda a, n: a.incl(*n)),
        ("synth.write_s", "s", "lower", ("synth.write_cohort",), s,
         lambda a, n: a.incl(*n)),
        ("synth.rows_written", "count", "higher", ("synth.write_cohort",), s,
         lambda a, n: a.count("synth.rows_written")),
        ("pipeline.artifacts_s", "s", "lower", _pipeline(*PIPELINE_WRITERS),
         t, _busy),
        ("pipeline.self_s", "s", "lower", _pipeline(*PIPELINE_STAGES), t,
         _busy),
    ]
    rows += [(f"cli.{c}_s", "s", "lower", (f"cli.cmd_{c}",), t,
              lambda a, n: a.incl(*n)) for c in CLI_COMMANDS]
    return rows


# Metrics measured by the harness rather than read from spans.
EXTRA_METRICS = (
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [row[:3] for row in layer_table()] + list(EXTRA_METRICS)


def layer_metrics(tracer: Tracer):
    """Per-layer values per repetition; metrics whose spans or counters are
    missing are left out and returned by name."""
    aggs = {ph: tracer.aggregate(ph) for ph in ("setup", "timed")}
    values, missing = {}, []
    for name, unit, _, needs, phase, fn in layer_table():
        if any(n in tracer.missing for n in needs):
            missing.append(name)
            continue
        values[name] = (fn(aggs[phase], needs), unit)
    return values, missing


BASELINE_ROWS = (
    ("synth.generate_cohort", "setup", ("synth.generate_cohort",)),
    ("synth.write_cohort", "setup", ("synth.write_cohort",)),
    ("load_cohort", "timed", ("model_io.load_cohort",)),
    ("cohort_metrics", "timed", ("pipeline.cohort_metrics",)),
    ("group_curves + fit_group_splines", "timed",
     ("pipeline.group_curves", "pipeline.fit_group_splines")),
    ("run_stats", "timed", ("pipeline.run_stats",)),
    ("windows_from_cohort", "timed", ("agenet.windows_from_cohort",)),
    ("cross_validate", "timed", ("agenet.cross_validate",)),
    ("run_pipeline end to end", "timed", ("pipeline.run_pipeline",)),
)


def baseline_table(tracer: Tracer):
    """Inclusive seconds per repetition for the rows of the ROADMAP baseline
    table that the traced run covers."""
    aggs = {ph: tracer.aggregate(ph) for ph in ("setup", "timed")}
    return [(label, aggs[ph].incl(*names)) for label, ph, names in BASELINE_ROWS
            if aggs[ph].n(*names)]
