"""Benchmark statistics: Student-t outlier filtering and LSQ regression.

Chapter 4 (§4.1) and Chapter 5 (§5.6.3) build every platform parameter from
noisy samples using three tools, all implemented here:

* the **median** as the robust central tendency for single distributions,
* **least-squares regression lines** through distribution means (rates,
  gradients, zero-intercept latencies), and
* an **outlier filter** that re-samples any observation falling outside a
  Student-t confidence interval, repeating until the batch is clean.

The thesis computes t critical values by trapezoid integration of the
t-density using ``tgamma`` "to the nearest interval of 1e-4, approximating
the critical point by linear interpolation below this resolution".  We
reproduce that numerical method (validated against ``scipy.stats.t`` in the
test suite) instead of calling SciPy in the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.util.validation import require_in_range, require_int

#: The outlier filter's confidence: the thesis's 95% (§4.1).
CONFIDENCE = 0.95

#: Cleaning rounds before the outlier filter gives up.
MAX_ROUNDS = 50


def _t_pdf(x: np.ndarray, dof: int) -> np.ndarray:
    """Student-t probability density with ``dof`` degrees of freedom."""
    # Log-gamma keeps the normalising coefficient finite for large dof.
    coeff = math.exp(
        math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)
    ) / math.sqrt(dof * math.pi)
    return coeff * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)


@lru_cache(maxsize=256)
def student_t_critical(confidence: float, dof: int) -> float:
    """Two-sided critical value t* with P(|T| <= t*) = ``confidence``.

    Trapezoid integration of the density from 0 outward in steps of the
    thesis's 1e-4 resolution (its method), stopping when the accumulated
    half-tail mass reaches ``confidence / 2`` and linearly interpolating
    the crossing point.
    """
    confidence = require_in_range(confidence, "confidence", 0.5, 0.9999)
    dof = require_int(dof, "dof")
    if dof < 1:
        raise ValueError("dof must be >= 1")
    target = confidence / 2.0
    step = 1.0e-4
    # Integrate far enough into the tail for any reasonable confidence; the
    # t-distribution with dof >= 1 has well under 0.005% mass beyond 200.
    xs = np.arange(0.0, 200.0 + step, step)
    pdf = _t_pdf(xs, dof)
    cum = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * step)))
    idx = int(np.searchsorted(cum, target))
    if idx >= len(xs):
        raise ValueError("confidence too extreme for integration range")
    if idx == 0:
        return float(xs[0])
    # Linear interpolation between the bracketing grid points.
    c0, c1 = cum[idx - 1], cum[idx]
    x0, x1 = xs[idx - 1], xs[idx]
    frac = (target - c0) / (c1 - c0) if c1 > c0 else 0.0
    return float(x0 + frac * (x1 - x0))


def outlier_mask(samples) -> np.ndarray:
    """Boolean mask of samples outside the ``CONFIDENCE`` t-interval built
    from the rest.

    Implements the Walpole-style definition the thesis cites: a point is an
    outlier if it falls outside the interval obtained from the *other*
    points (leave-one-out), using a t prediction interval for one new
    observation.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 3:
        return np.zeros(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    t_star = student_t_critical(CONFIDENCE, n - 2)
    total = samples.sum()
    total_sq = (samples ** 2).sum()
    for i in range(n):
        m = n - 1
        rest_mean = (total - samples[i]) / m
        rest_var = (total_sq - samples[i] ** 2 - m * rest_mean**2) / (m - 1)
        rest_var = max(rest_var, 0.0)
        # Prediction interval for a single new observation from the rest;
        # the relative epsilon keeps near-identical samples (e.g. noise-free
        # runs) from being flagged on floating-point dust.
        width = t_star * math.sqrt(rest_var * (1.0 + 1.0 / m))
        tolerance = width + 1e-9 * max(abs(rest_mean), abs(samples[i]))
        if abs(samples[i] - rest_mean) > tolerance:
            mask[i] = True
    return mask


def resample_outliers(samples, draw) -> tuple[np.ndarray, int]:
    """Re-draw outliers until the batch is clean (§4.1's calibration loop).

    ``draw(k)`` must return ``k`` fresh samples.  Returns the cleaned sample
    vector and the number of individual re-runs performed.  Raises
    ``RuntimeError`` if ``MAX_ROUNDS`` cleaning rounds do not converge —
    the thesis's signal that the experiment needs recalibration.
    """
    samples = np.asarray(samples, dtype=float).copy()
    reruns = 0
    for _ in range(MAX_ROUNDS):
        mask = outlier_mask(samples)
        bad = int(mask.sum())
        if bad == 0:
            return samples, reruns
        samples[mask] = np.asarray(draw(bad), dtype=float)
        reruns += bad
    raise RuntimeError(
        f"outlier filtering did not converge after {MAX_ROUNDS} rounds "
        f"({reruns} re-runs); inherent variability exceeds the confidence bound"
    )


@dataclass(frozen=True)
class RegressionLine:
    """Least-squares line ``y = gradient * x + intercept``."""

    gradient: float
    intercept: float
    r_squared: float

    def predict(self, x):
        return self.gradient * np.asarray(x, dtype=float) + self.intercept


def linear_regression(x, y) -> RegressionLine:
    """Least-square-error line through the points (thesis's extraction tool)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and y must be equal-length 1-D with >= 2 points")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("x values are all identical; gradient undefined")
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    gradient = sxy / sxx
    intercept = y_mean - gradient * x_mean
    ss_res = float(((y - gradient * x - intercept) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionLine(gradient, intercept, r_squared)


def batched_regression(x, ys) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised least squares: one line per row of ``ys`` over shared ``x``.

    Returns ``(gradients, intercepts)``; used for the all-pairs latency and
    bandwidth extraction where P^2 regressions would be too slow one at a
    time.
    """
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.shape[-1] != x.size:
        raise ValueError("last axis of ys must match x")
    x_mean = x.mean()
    xc = x - x_mean
    sxx = float((xc**2).sum())
    if sxx == 0.0:
        raise ValueError("x values are all identical; gradient undefined")
    y_mean = ys.mean(axis=-1)
    sxy = (ys * xc).sum(axis=-1) - 0.0  # E[(x - xm) * y]; (x-xm) sums to 0
    gradients = sxy / sxx
    intercepts = y_mean - gradients * x_mean
    return gradients, intercepts


def median(samples) -> float:
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("median of empty sample set")
    return float(np.median(samples))
