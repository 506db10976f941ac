"""Statistics helpers for the experiments: summaries, Wilson intervals for
success probabilities, and log-log slope fits for growth-rate checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Summary", "loglog_slope", "mean_ci", "summarize", "wilson_interval"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def mean_ci(values: Sequence[float], z: float = 1.96) -> Tuple[float, float, float]:
    """``(mean, lo, hi)`` normal-approximation confidence interval."""
    s = summarize(values)
    half = z * s.std / math.sqrt(s.count) if s.count > 1 else 0.0
    return s.mean, s.mean - half, s.mean + half

def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float, float]:
    """``(p̂, lo, hi)`` Wilson score interval for a binomial proportion.

    Preferred over the normal interval for the small trial counts the
    success-probability experiments use.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes outside [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return phat, max(0.0, center - half), min(1.0, center + half)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Used to check growth exponents, e.g. that Algorithm 1's probe count at
    fixed ``k`` grows like ``(log d)^{1/k}`` — the fitted slope of probes
    against ``log d`` on log-log axes should sit near ``1/k``.
    """
    x = np.log(np.asarray(list(xs), dtype=np.float64))
    y = np.log(np.asarray(list(ys), dtype=np.float64))
    if x.size != y.size or x.size < 2:
        raise ValueError("need >= 2 paired points")
    x -= x.mean()
    denom = float((x * x).sum())
    if denom == 0.0:
        raise ValueError("x values are all equal")
    return float((x * (y - y.mean())).sum() / denom)
