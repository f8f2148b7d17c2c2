"""One-way ANOVA with exact F p-values and Tukey HSD post-hoc comparisons.

Both distributions come from scipy: the F survival function is
``scipy.special.fdtrc`` and the studentized range survival function is
``scipy.stats.studentized_range.sf``. scipy is imported on the first p-value,
not with this module, so code that only groups samples starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewSamples, ZeroWithinVariance


@dataclass(frozen=True)
class GroupedSamples:
    labels: tuple
    groups: tuple   # tuple of value tuples, parallel to labels

    def __post_init__(self):
        if len(self.labels) != len(self.groups):
            raise ValueError("labels and groups differ in length")
        if len(self.groups) < 2:
            raise TooFewSamples("need at least 2 groups")
        for label, g in zip(self.labels, self.groups):
            if len(g) < 2:
                raise TooFewSamples(f"group {label!r} needs at least 2 values")

    @property
    def k(self):
        return len(self.groups)

    @property
    def n_total(self):
        return sum(len(g) for g in self.groups)


@dataclass(frozen=True)
class AnovaResult:
    F: float
    df_between: int
    df_within: int
    p: float
    ms_within: float


@dataclass(frozen=True)
class PairComparison:
    label_a: str
    label_b: str
    mean_diff: float
    q: float
    p: float


@dataclass(frozen=True)
class TukeyResult:
    comparisons: tuple


# --- distributions -------------------------------------------------------

def f_sf(F: float, d1: int, d2: int) -> float:
    """Survival function of the F(d1, d2) distribution."""
    if F <= 0.0:
        return 1.0
    from scipy.special import fdtrc
    return float(fdtrc(d1, d2, F))


# --- one-way ANOVA ---------------------------------------------------------

def one_way_anova(samples: GroupedSamples) -> AnovaResult:
    groups = [np.asarray(g, dtype=float) for g in samples.groups]
    n = samples.n_total
    k = samples.k
    grand = np.concatenate(groups).mean()

    ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    df_between, df_within = k - 1, n - k
    if ss_within == 0.0:
        raise ZeroWithinVariance("all groups are internally constant")
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    F = ms_between / ms_within
    return AnovaResult(F=float(F), df_between=df_between, df_within=df_within,
                       p=f_sf(F, df_between, df_within),
                       ms_within=float(ms_within))


# --- studentized range -----------------------------------------------------

def studentized_range_sf(q: float, k: int, df: int) -> float:
    """Survival function of the studentized range distribution of k means
    with df degrees of freedom for the error variance."""
    if q < 0:
        raise ValueError("q must be non-negative")
    if k < 2 or df < 1:
        raise ValueError("need k >= 2 and df >= 1")
    if q == 0.0:
        return 1.0
    from scipy.stats import studentized_range
    return float(studentized_range.sf(q, k, df))


# --- Tukey HSD -------------------------------------------------------------

def tukey_hsd(samples: GroupedSamples) -> TukeyResult:
    """All pairwise comparisons via the Tukey-Kramer studentized range test."""
    anova = one_way_anova(samples)
    groups = [np.asarray(g, dtype=float) for g in samples.groups]
    means = [g.mean() for g in groups]
    sizes = [len(g) for g in groups]
    k, df = samples.k, anova.df_within

    comparisons = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = means[i] - means[j]
            se = math.sqrt(anova.ms_within / 2.0 * (1.0 / sizes[i] + 1.0 / sizes[j]))
            q = abs(diff) / se
            p = studentized_range_sf(q, k, df)
            comparisons.append(PairComparison(
                label_a=str(samples.labels[i]),
                label_b=str(samples.labels[j]),
                mean_diff=float(diff),
                q=float(q),
                p=p,
            ))
    return TukeyResult(tuple(comparisons))
