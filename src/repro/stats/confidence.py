"""Student-t confidence intervals (the paper reports 95% CIs over 20 runs)."""

from __future__ import annotations

import dataclasses
import math
import typing


@dataclasses.dataclass(frozen=True)
class Estimate:
    """A sample mean with its symmetric confidence half-width.

    Attributes
    ----------
    mean / half_width:
        Point estimate and CI half width (0 when n < 2).
    n:
        Sample size.
    confidence:
        Confidence level of the interval.
    """

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        """Lower CI bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper CI bound."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.3g}"


def mean_confidence(
    values: typing.Sequence[float], confidence: float = 0.95
) -> Estimate:
    """Sample mean of ``values`` with a Student-t confidence interval.

    Raises
    ------
    ValueError
        For an empty sample or a confidence level outside (0, 1).
    """
    if not values:
        raise ValueError("cannot estimate from an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return Estimate(mean=mean, half_width=0.0, n=n, confidence=confidence)
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    std_error = math.sqrt(variance / n)
    t_crit = _t_quantile((1.0 + confidence) / 2.0, n - 1)
    return Estimate(
        mean=mean, half_width=t_crit * std_error, n=n, confidence=confidence
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta ``I_x(a, b)``,
    evaluated by the modified Lentz method (converges for
    ``x < (a + 1) / (a + b + 2)``)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    value = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            value *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return value


def _t_tail(t: float, df: float) -> float:
    """Upper tail ``P(T > t)`` of Student's t for ``t >= 0``: half the
    regularized incomplete beta ``I_x(df/2, 1/2)`` at ``x = df/(df+t²)``.

    ``x`` and ``1 - x`` are both formed from ``t²`` directly, so neither
    branch of the fraction loses digits to ``1 - x`` near 1.
    """
    a, b = df / 2.0, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 0.5 - 0.5 * math.exp(log_front) * _beta_fraction(b, a, y) / b


def _t_quantile(p: float, df: float) -> float:
    """The ``p`` quantile of Student's t with ``df`` degrees of freedom.

    Bisects the monotone tail :func:`_t_tail` down to float resolution.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -_t_quantile(1.0 - p, df)
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _t_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid
