"""Benchmark of the reachkin command-line toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see workloads.py):

  pipeline_full       ``reachkin pipeline`` on a 50 s cohort: every layer.
  cli_stages          ingest, preprocess, metrics, progress, stats, report as
                      six processes on a 20 s cohort: parse, stream and start-up
                      costs, no training.
  stereo_reconstruct  ``reachkin reconstruct`` on a two-camera cohort lifted
                      from synth onto a plane: the triangulation path.

Load is a closed loop from one client: one command at a time. The inputs are
built from ``--seed`` several times and the median set-up time is reported.
Between and after the set-ups the commands are repeated until the command
wall time measured is as close to ``--seconds`` as whole repetitions allow;
every repetition's outputs are checked, and medians over the repetitions are
reported.

With ``--trace 0`` each command is its own ``reachkin.cli`` process, started
as ``python -m reachkin.cli`` starts it (workloads.LAUNCH), and the last
stdout line carries the end-to-end metrics. With ``--trace 1``
the workload runs in-process through ``cli.main`` with spans around every
module boundary (tracing.py) and the last line carries per-layer metrics.
Lines before it give a readable summary, including ``failed_frac`` and
``cv_rmse_years``, and the environment. Every result is also appended to
``.perfbench/results.jsonl``; artifact digests are kept in
``.perfbench/digests.json`` and two runs of one source tree, workload and
seed whose digests differ are reported as not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
STARTUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- environment and digests ----------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "reachkin").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(numpy):
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return getattr(handle, fn)()
    return None


def environment(workload, seed, trace):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }


def compare_digests(store: Path, key, digests):
    """Record this run's digests; return the files whose digest differs from
    an earlier run with the same key."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    before = known.get(key)
    if before is None:
        known[key] = digests
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []
    return sorted(k for k in set(before) | set(digests)
                  if before.get(k) != digests.get(k))


# --- runners -------------------------------------------------------------------

def startup_seconds(env):
    """Interpreter start plus ``import reachkin.cli``, in a process doing no
    work; median of STARTUP_REPS."""
    times = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reachkin.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def enough(walls, seconds):
    """Whether the repetitions so far come closest to ``seconds``: one more,
    as long as their median, would overshoot by more than stopping falls
    short."""
    return bool(walls) and sum(walls) + statistics.median(walls) / 2 >= seconds


def check_rep(w, paths, cmds, inputs, checked, wl):
    """Check one repetition's outputs. Outputs byte-identical to an earlier
    repetition's, from the same exit codes, share its verdict."""
    digests = wl.digest_tree(paths.out)
    key = (tuple(c.returncode for c in cmds), json.dumps(digests))
    if key not in checked:
        checked[key] = w.check(paths, cmds, inputs)
    return {"ops": checked[key], "digests": digests}


# --- the two modes ---------------------------------------------------------------

def run_untraced(w, paths, seed, seconds, wl):
    run = wl.subprocess_runner(paths.logs, wl.child_env())
    setup_s, setup_digests = [], []
    reps, checked = [], {}
    # Set-ups and repetitions alternate, so that the repetitions are spread
    # over the whole run of a machine whose speed drifts over tens of seconds.
    # Every set-up rebuilds the same bytes (checked by digest below).
    while len(setup_s) < SETUP_REPS or \
            not enough([r["wall_s"] for r in reps], seconds):
        if len(setup_s) < SETUP_REPS:
            elapsed, planted = w.setup(paths, seed, run)
            setup_s.append(elapsed)
            setup_digests.append(wl.digest_tree(paths.cohort))
            if len(setup_s) == 1:
                inputs = w.inputs(paths, planted)
        if enough([r["wall_s"] for r in reps], seconds):
            continue
        shutil.rmtree(paths.out, ignore_errors=True)
        cmds = [run(argv) for argv in w.commands(paths)]
        reps.append({"wall_s": sum(c.wall_s for c in cmds),
                     "peak_rss_mb": max(c.peak_rss_mb for c in cmds),
                     **check_rep(w, paths, cmds, inputs, checked, wl)})
    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "wall_s": (wall, "s"),
        "rows_per_s": (inputs.rows / wall, "rows/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MiB"),
    }
    detail = {"wall_s_reps": [r["wall_s"] for r in reps],
              "setup_s_reps": setup_s, "rows": inputs.rows}
    return metrics, reps, setup_digests, inputs, detail


def run_traced(w, paths, seed, seconds, wl):
    import tracing
    from reachkin import cli

    tracer = tracing.Tracer()
    run = wl.inprocess_runner(cli)
    tracer.install()
    with tracer.phase("setup"):
        _, planted = w.setup(paths, seed, run)
    tracer.uninstall()
    inputs = w.inputs(paths, planted)
    setup_digests = [wl.digest_tree(paths.cohort)]

    def untraced_rep():
        shutil.rmtree(paths.out, ignore_errors=True)
        return sum(run(argv).wall_s for argv in w.commands(paths))

    # The first in-process repetition runs slower, so it only warms up.
    # Untraced and traced repetitions then alternate, so that the overhead
    # compares like with like on a machine whose speed drifts.
    untraced_rep()
    reps, untraced, checked = [], [], {}
    while not enough([r["wall_s"] for r in reps], seconds):
        shutil.rmtree(paths.out, ignore_errors=True)
        tracer.install()
        with tracer.phase("timed"):
            t0 = time.perf_counter()
            cmds = [run(argv) for argv in w.commands(paths)]
            wall = time.perf_counter() - t0
        tracer.uninstall()
        reps.append({"wall_s": wall,
                     **check_rep(w, paths, cmds, inputs, checked, wl)})
        untraced.append(untraced_rep())

    values, missing = tracing.layer_metrics(tracer)
    timed = tracer.aggregate("timed")
    values["cli.startup_s"] = (startup_seconds(wl.child_env()), "s")
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in reps)
        - statistics.median(untraced), "s")
    values["trace.coverage"] = (timed.coverage(), "ratio")
    for name in missing:
        print(f"missing per-layer metric: {name}", file=sys.stderr)
    detail = {"baseline": tracing.baseline_table(tracer),
              "untraced_inprocess_s": untraced,
              "traced_s": [r["wall_s"] for r in reps], "rows": inputs.rows}
    return values, reps, setup_digests, inputs, detail


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "reachkin" / "cli.py").is_file():
        print(f"error: no reachkin sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import workloads as wl

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    paths = wl.Paths(wl.WORK / w.name)
    shutil.rmtree(paths.base, ignore_errors=True)
    paths.base.mkdir(parents=True)

    mode = run_traced if args.trace else run_untraced
    metrics, reps, setup_digests, inputs, detail = mode(
        w, paths, args.seed, args.seconds, wl)

    env = environment(w.name, args.seed, args.trace)
    problems = []
    if any(d != setup_digests[0] for d in setup_digests):
        problems.append("inputs differ between set-ups from one seed")
    if any(r["digests"] != reps[0]["digests"] for r in reps):
        problems.append("outputs differ between repetitions")
    changed = compare_digests(
        wl.WORK / "digests.json",
        f"{env['source_sha256']} {w.name} seed={args.seed}",
        {**{f"inputs/{k}": v for k, v in setup_digests[0].items()},
         **{f"outputs/{k}": v for k, v in reps[0]["digests"].items()}})
    if changed:
        problems.append(f"digests differ from an earlier run: {changed[:5]}")
    ops = [op for r in reps for op in r["ops"]]
    failed = [op for op in ops if not op.ok]
    correct = not problems and not any(op.wrong for op in failed)

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetition(s), {inputs.rows} input rows")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {len(failed) / len(ops):.6g} ratio "
          f"({len(failed)} of {len(ops)} operations)")
    if w.name == "pipeline_full":
        try:
            print(f"  cv_rmse_years = "
                  f"{wl.pooled_rmse(paths.out / 'cv_report.csv'):.6g} years")
        except wl.CheckFailed as exc:
            print(f"  cv_rmse_years unavailable: {exc}")
    for label, seconds in detail.get("baseline", ()):
        print(f"  baseline {label}: {seconds:.4f} s")
    for op in failed[:8]:
        print(f"  failed {op.name}: {op.detail[:200]}")
    for problem in problems:
        print(f"  not correct: {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(wl.WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env, "result": result, "detail": detail,
                             "problems": problems,
                             "failed_ops": [op.__dict__ for op in failed]},
                            sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
