"""Welch's t-test, Cohen's d, two-sided t-distribution tails, and window
extraction from metric series.

The two-sided p-value comes from the regularized incomplete beta function
I_x(df/2, 1/2) with x = df/(df + t^2), evaluated by a modified Lentz
continued fraction, so no external stats library is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .training import MetricSeries

__all__ = [
    "TTestResult",
    "welch_t_test",
    "student_t_sf",
    "regularized_incomplete_beta",
    "stabilized_start",
    "stabilized_window",
    "format_p",
]


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p_two_sided: float
    cohen_d: float
    n1: int
    n2: int
    mean1: float
    mean2: float
    var1: float
    var2: float

    def to_record(self, comparison: str) -> dict:
        """JSON record shape used in reports."""
        return {
            "comparison": comparison,
            "t": self.t,
            "df": self.df,
            "p": self.p_two_sided,
            "d": self.cohen_d,
            "n1": self.n1,
            "n2": self.n2,
            "means": [self.mean1, self.mean2],
            "variances": [self.var1, self.var2],
        }


def _scaled_moments(a, b) -> tuple[int, int, list[float], list[float]]:
    """(e, g, means, variances) of both groups.  Every value is divided by
    2**e, which puts the largest |x| of both groups in [0.5, 1), and every
    deviation from its group's mean by 2**g <= 1, which lifts deviations all
    below 2**-400 to about 2**-400, so that their squares stay clear of the
    subnormal range; larger ones are squared as they are, since ** rounds
    differently at another scale.  Scaling by a power of two is exact, so on
    ordinary data the results equal the unscaled ones bit for bit.  A mean
    scales back by 2**e and a variance by 2**(2(e + g)).
    """
    e = math.frexp(max(abs(x) for x in (*a, *b)))[1]
    scaled = [[math.ldexp(x, -e) for x in xs] for xs in (a, b)]
    means = [sum(xs) / len(xs) for xs in scaled]
    deviations = [[x - m for x in xs] for xs, m in zip(scaled, means)]
    g = min(0, math.frexp(max(abs(x) for xs in deviations for x in xs))[1] + 400)
    variances = [sum(math.ldexp(x, -g) ** 2 for x in xs) / (len(xs) - 1)
                 for xs in deviations]
    return e, g, means, variances


def _unscaled(x: float, g: int) -> float:
    """x / 2**g, infinite where that is beyond the float range."""
    try:
        return math.ldexp(x, -g)
    except OverflowError:
        return math.copysign(math.inf, x)


def welch_t_test(a, b) -> TTestResult:
    """Two-sample t-test without equal-variance assumption.

    t = (m1 - m2) / sqrt(v1/n1 + v2/n2) with Welch-Satterthwaite fractional
    degrees of freedom; both groups identically constant is the degenerate
    equal case (t=0, p=1), not an error.
    """
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise ValueError("welch_t_test: need at least 2 samples in each group")
    # t, df, p and d are scale-free, so they come from the scaled moments:
    # the mean difference scaled by 2**e over standard deviations by 2**(e + g)
    e, g, (m1, m2), (v1, v2) = _scaled_moments(a, b)
    moments = (math.ldexp(m1, e), math.ldexp(m2, e),
               math.ldexp(v1, 2 * (e + g)), math.ldexp(v2, 2 * (e + g)))
    if v1 == 0.0 and v2 == 0.0:
        if m1 == m2:
            return TTestResult(0.0, float(n1 + n2 - 2), 1.0, 0.0,
                               n1, n2, *moments)
        raise ValueError("welch_t_test: zero variance in both groups")
    se1, se2 = v1 / n1, v2 / n2
    t = _unscaled((m1 - m2) / math.sqrt(se1 + se2), g)
    # Welch-Satterthwaite df on normalized standard errors; dividing by the
    # total first keeps the ratio exact when se**2 would underflow
    r1, r2 = se1 / (se1 + se2), se2 / (se1 + se2)
    df = 1.0 / (r1 ** 2 / (n1 - 1) + r2 ** 2 / (n2 - 1))
    p = student_t_sf(t, df)
    # Cohen's d: the mean difference over the pooled standard deviation
    pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    d = _unscaled((m1 - m2) / math.sqrt(pooled), g)
    return TTestResult(t, df, p, d, n1, n2, *moments)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-14:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive: a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1]: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t, symmetric in the sign of t."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    a, tt = df / 2.0, t * t
    x = df / (df + tt)
    if x < (a + 1.0) / (a + 2.5):
        p = regularized_incomplete_beta(a, 0.5, x)
    else:
        # the branch regularized_incomplete_beta would take through 1 - x,
        # with 1 - x formed as tt / (df + tt): for small t, subtracting x
        # from 1 would cancel most of its digits
        p = 1.0 - regularized_incomplete_beta(0.5, a, tt / (df + tt))
    return min(1.0, max(0.0, p))


def stabilized_start(n: int, start_fraction: float) -> int:
    """Index of the first of n records in the stabilized window:
    ceil(start_fraction * n), clamped so at least the last record is always
    included."""
    if not 0.0 <= start_fraction < 1.0:
        raise ValueError(f"start_fraction must be in [0, 1): {start_fraction}")
    if n == 0:
        raise ValueError("empty metric series")
    return min(math.ceil(start_fraction * n), n - 1)


def stabilized_window(series: MetricSeries, start_fraction: float,
                      metric: str) -> list[float]:
    """Values from the contiguous tail of the series, from record index
    stabilized_start(record count, start_fraction) on."""
    start = stabilized_start(len(series.records), start_fraction)
    return [getattr(r, metric) for r in series.records[start:]]


def format_p(p: float) -> str:
    """Report-style p rendering: 'p<.001' below threshold, else 'p=.223'."""
    if p < 0.001:
        return "p<.001"
    text = f"{p:.3f}"
    if text.startswith("0."):
        text = text[1:]
    return f"p={text}"
