"""One-way ANOVA with exact F p-values and Tukey HSD post-hoc comparisons.

The two special functions are built in: the regularized incomplete beta
function (modified Lentz continued fraction, 1e-12 convergence) backs the F
distribution, and the studentized range survival function is evaluated by
fixed-order Gauss-Legendre quadrature of its standard double-integral
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

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
    k: int
    df_within: int


# --- regularized incomplete beta ------------------------------------------

_TINY = 1e-300
_EPS = 1e-12


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ZeroWithinVariance(
        f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(F: float, d1: int, d2: int) -> float:
    """Survival function of the F(d1, d2) distribution."""
    if F <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * F)
    return betainc_reg(d2 / 2.0, d1 / 2.0, x)


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

_GL_ORDER = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def _panels(lo, hi, n_panels):
    """Gauss-Legendre nodes and weights over [lo, hi] split into panels."""
    edges = np.linspace(lo, hi, n_panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z):
    return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))


def _range_cdf(w, k):
    """CDF of the range of k independent standard normals, vectorized in w."""
    z, wt = _panels(-8.0, 8.0, 8)
    inner = _Phi(z)[:, None] - _Phi(z[:, None] - w[None, :])
    inner = np.clip(inner, 0.0, None)
    vals = k * _phi(z)[:, None] * inner ** (k - 1)
    return wt @ vals


def studentized_range_sf(q: float, k: int, df: int) -> float:
    """Survival function of the studentized range distribution.

    Integrates the range CDF of k standard normals against the density of the
    scaled chi variable s = sqrt(chi2_df / df) with fixed-order Gauss-Legendre
    panels on a truncated domain.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    if k < 2 or df < 1:
        raise ValueError("need k >= 2 and df >= 1")
    if q == 0.0:
        return 1.0

    # density of s: s^2 ~ chi2_df / df
    ln_norm = (df / 2.0) * math.log(df / 2.0) - math.lgamma(df / 2.0) + math.log(2.0)

    def chi_logpdf(s):
        return ln_norm + (df - 1) * np.log(s) - df * s * s / 2.0

    upper = 1.0 + 12.0 / math.sqrt(df)
    s, wt = _panels(1e-10, upper, 12)
    dens = np.exp(chi_logpdf(s))
    cdf = float(np.dot(wt * dens, _range_cdf(q * s, k)))
    return float(min(1.0, max(0.0, 1.0 - cdf)))


# --- Tukey HSD -------------------------------------------------------------

def tukey_hsd(samples: GroupedSamples, alpha: float = 0.05) -> TukeyResult:
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
    return TukeyResult(tuple(comparisons), k=k, df_within=df)
