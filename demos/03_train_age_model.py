"""Cross-validated age regression on wrist-motion windows.

Uses a reduced cohort and epoch budget so the demo runs in a couple of
minutes; the full pipeline defaults are 20 participants per bin and 15
epochs.
"""

import numpy as np

from reachkin import agenet, pipeline, synth
from reachkin.model_io import AGE_BINS

print("generating cohort (4 per age bin)...")
cohort, _ = synth.generate_cohort(4, seed=1)
# wrist channels of the same gated, decimated frames the metrics start from
records = pipeline.cohort_metrics(cohort.sessions, ("train",),
                                  pipeline.PipelineConfig(), None)
windows, skipped = agenet.windows_from_cohort(records)
print(f"{len(windows)} windows from {len(cohort.sessions)} participants"
      + (f", skipped {skipped}" if skipped else ""))

labels = np.array([w.label for w in windows])
baseline = float(labels.std())
print(f"constant-prediction baseline rMSE: {baseline:.2f} years")

report = agenet.cross_validate(windows, folds=3, epochs=8, seed=0)
print(f"\nfold rMSE: {[round(r, 2) for r in report.fold_rmse]}")
print(f"pooled rMSE: {report.pooled_rmse:.2f} years")

print("\nconfusion (true bin x predicted bin):")
names = [f"{lo}-{hi}" for lo, hi in AGE_BINS]
print("        " + "".join(f"{n:>8}" for n in names))
for i, row in enumerate(report.confusion):
    print(f"{names[i]:>8}" + "".join(f"{int(c):>8}" for c in row))
