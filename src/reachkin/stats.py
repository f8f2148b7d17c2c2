"""One-way ANOVA with exact F p-values and Tukey HSD post-hoc comparisons.

Both distributions are computed here with numpy and ``math`` alone, so no
command pays the start-up cost of importing scipy (over a second for
``scipy.stats``). The F survival function is the regularized incomplete beta
function, summed as a continued fraction (modified Lentz). The studentized
range survival function is a fixed-order Gauss-Legendre quadrature of its
double integral over the scaled chi variable and the normal range; the nodes
are built on the first p-value, not with this module. Its sums are numpy
reductions, not BLAS products. mpmath and scipy's ``fdtrc`` and
``studentized_range.sf`` are the tests' oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class GroupedSamples:
    labels: tuple
    groups: tuple   # tuple of value tuples, parallel to labels

    def __post_init__(self):
        if len(self.groups) < 2:
            raise InputError("need at least 2 groups")
        for label, g in zip(self.labels, self.groups):
            if len(g) < 2:
                raise InputError(f"group {label!r} needs at least 2 values")


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


# --- distributions -------------------------------------------------------

_TINY = 1e-300
_EPS = 1e-15


def _nonzero(v):
    return v if abs(v) >= _TINY else _TINY


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        # the even and then the odd coefficient of the fraction
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def f_sf(F: float, d1: int, d2: int) -> float:
    """Survival function of the F(d1, d2) distribution: the regularized
    incomplete beta function I_x(d2 / 2, d1 / 2) at x = d2 / (d2 + d1 F)."""
    if not math.isfinite(F):
        raise NumericalError(f"F statistic is not finite: {F}")
    if F <= 0.0:
        return 1.0
    a, b = d2 / 2.0, d1 / 2.0
    t = d1 * F
    # y = 1 - x, without the cancellation of 1.0 - x when F is small
    x, y = d2 / (d2 + t), 1.0 / (1.0 + d2 / t)
    if x == 0.0 or y == 0.0:   # I_0 = 0 and I_1 = 1
        return x
    if a + b < 170.0:   # math.gamma overflows above 171
        front = (math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
                 * x ** a * y ** b)
    else:
        front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                         + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


# --- one-way ANOVA ---------------------------------------------------------

def one_way_anova(samples: GroupedSamples) -> AnovaResult:
    groups = [np.asarray(g, dtype=float) for g in samples.groups]
    n, k = sum(map(len, groups)), len(groups)
    grand = np.concatenate(groups).mean()

    ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    df_between, df_within = k - 1, n - k
    if ss_within == 0.0:
        raise NumericalError("all groups are internally constant")
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    F = ms_between / ms_within
    return AnovaResult(F=float(F), df_between=df_between, df_within=df_within,
                       p=f_sf(F, df_between, df_within),
                       ms_within=float(ms_within))


# --- studentized range -----------------------------------------------------

_GL_ORDER = 32      # Gauss-Legendre nodes per panel
_GL_PANELS = 4      # panels per axis
_Z_RANGE = (-7.0, 9.0)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _gauss_legendre():
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panels(lo, hi):
    """Gauss-Legendre nodes and weights over [lo, hi] split into panels."""
    nodes, weights = _gauss_legendre()
    edges = np.linspace(lo, hi, _GL_PANELS + 1)
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1] + edges[1:])[:, None] / 2.0
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def _norm_cdf(x):
    return _ERFC(x * -math.sqrt(0.5)).astype(float) / 2.0


def _scaled_chi_pdf(s, df):
    """Density of s = sqrt(chi2_df / df), written as
    2 a^a e^-a / Gamma(a) * exp(a (log u - (u - 1))) / s with a = df / 2 and
    u = s^2, so that no large logarithms cancel when df is large."""
    a = df / 2.0
    if a < 140.0:   # a ** a overflows above 143
        front = a ** a / math.gamma(a) * math.exp(-a)
    else:           # the same by Stirling's series for log Gamma(a)
        front = math.sqrt(a / (2.0 * math.pi)) * math.exp(
            -1.0 / (12.0 * a) + 1.0 / (360.0 * a ** 3) - 1.0 / (1260.0 * a ** 5))
    v = (s - 1.0) * (s + 1.0)
    return 2.0 * front * np.exp(a * (2.0 * np.log(s) - v)) / s


def studentized_range_sf(q: float, k: int, df: int) -> float:
    """Survival function of the studentized range distribution of k means
    with df degrees of freedom for the error variance.

    P(Q > q) is the integral over s of the density of s = sqrt(chi2_df / df)
    times P(R > q s), where R is the range of k standard normals:
    P(R > w) = k * integral of phi(z) (Phi(z)^(k-1) - (Phi(z) - Phi(z - w))^(k-1)) dz.
    Both integrals are fixed-order Gauss-Legendre panels on truncated domains:
    the z-range drops at most k * 1.2e-19 of P(R > w), and s spans
    1 +- 12 / sqrt(df), cut where q s passes the w beyond which P(R > w) is
    below 1e-20 (a union bound over the k (k - 1) / 2 pairs).
    """
    if not math.isfinite(q):
        raise NumericalError(f"studentized range statistic is not finite: {q}")
    if q < 0:
        raise ValueError("q must be non-negative")
    if k < 2 or df < 1:
        raise ValueError("need k >= 2 and df >= 1")
    if q == 0.0:
        return 1.0
    w_max = 2.0 * math.sqrt(math.log(k * (k - 1) / 2.0) + 46.0)
    spread = 12.0 / math.sqrt(df)
    lo, hi = max(0.0, 1.0 - spread), min(1.0 + spread, w_max / q)
    if hi <= lo:
        return 0.0
    s, ws = _panels(lo, hi)
    density = _scaled_chi_pdf(s, df)
    z, wz = _panels(*_Z_RANGE)
    wz = (wz * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))[:, None]
    cdf_z = _norm_cdf(z)[:, None]
    inside = cdf_z - _norm_cdf(z[:, None] - q * s)
    range_sf = k * (wz * (cdf_z ** (k - 1) - inside ** (k - 1))).sum(axis=0)
    return float(min(1.0, max(0.0, (ws * density * range_sf).sum())))


# --- Tukey HSD -------------------------------------------------------------

def tukey_hsd(samples: GroupedSamples) -> tuple:
    """A PairComparison for each pair of groups (Tukey-Kramer HSD)."""
    anova = one_way_anova(samples)
    groups = [np.asarray(g, dtype=float) for g in samples.groups]
    means = [g.mean() for g in groups]
    sizes = [len(g) for g in groups]
    k, df = len(groups), anova.df_within

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
    return tuple(comparisons)
