"""Age-group trends on a small synthetic cohort.

Builds a cohort with planted age effects, computes per-participant metrics,
fits the per-group progress splines, and runs the group statistics.
Takes about a minute.
"""

import numpy as np

from reachkin import pipeline, synth

print("generating cohort (5 per age bin)...")
cohort, truth = synth.generate_cohort(5, seed=0)
config = pipeline.PipelineConfig()

# one pass per participant: gate, decimate, filter, analyze
records = pipeline.cohort_metrics(cohort.sessions, ("metrics",), config, None)
summaries = [r.summary for r in records]
segments = [r.segments for r in records]

print("\ngroup means:")
for label in pipeline.GROUP_LABELS:
    rows = [s for s in summaries if s.group == label]
    d = np.mean([s.median_directness for s in rows])
    v = np.mean([s.median_max_speed for s in rows])
    print(f"  {label:>6}: directness {d:.3f}, max speed {v:.2f} units/s "
          f"({len(rows)} participants)")

print("\nprogress spline endpoint rates:")
curves = pipeline.group_curves(summaries, segments)
fits = pipeline.fit_group_splines(curves)
for label in pipeline.GROUP_LABELS:
    fit, rates, n = fits[label]
    print(f"  {label:>6}: initial {rates.initial_rate:.2f}, "
          f"final {rates.final_rate:.2f}, "
          f"ratio {rates.rate_ratio:.2f} ({n} reaches pooled)")

print("\nANOVA + Tukey HSD:")
for metric, (anova, tukey) in pipeline.run_stats(summaries).items():
    print(f"  {metric}: F({anova.df_between},{anova.df_within}) = "
          f"{anova.F:.2f}, p = {anova.p:.4f}")
    for cmp in tukey:
        print(f"    {cmp.label_a} vs {cmp.label_b}: "
              f"diff {cmp.mean_diff:+.3f}, p = {cmp.p:.4f}")
