"""Kernel estimators for the heteroscedastic spatial regression sample.

Five estimators: the kernel density of the covariate, the local-average
(Nadaraya-Watson) conditional mean, its bias-corrected combination
2 m(b) - m(sqrt(2) b), the residual-based conditional variance, and the
trimmed excess fourth moment of standardized residuals.

The mean and variance estimators are computed as self-normalized kernel
ratios (numerator and denominator share one bandwidth), which is
algebraically identical to dividing by the separately defined density
estimate at the same bandwidth.
"""

from __future__ import annotations

import math

import numpy as np

from .data import CurveEstimate, SpatialDataset
from .errors import DegenerateVarianceError, EmptyIntervalError
from .kernels import EPANECHNIKOV, Kernel, eval_kernel

__all__ = [
    "WEIGHT_FLOOR",
    "VARIANCE_FLOOR",
    "density_estimate",
    "nw_mean",
    "jackknife_mean",
    "jackknife_residuals",
    "variance_estimate",
    "v4_estimate",
]

# A design point is degenerate when the kernel-weight sum falls below this.
WEIGHT_FLOOR = 1e-12

# Minimum variance estimate accepted when standardizing a residual.
VARIANCE_FLOOR = 1e-8


def _weight_matrix(kernel: Kernel, x_obs: np.ndarray, points, bandwidth: float) -> np.ndarray:
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    points = np.asarray(points, dtype=float)
    return eval_kernel(kernel, (points[:, None] - x_obs[None, :]) / bandwidth)


def _ratio_smooth(
    kernel: Kernel,
    x_obs: np.ndarray,
    targets: np.ndarray,
    points,
    bandwidth: float,
) -> np.ndarray:
    """Self-normalized kernel average of targets; NaN where mass < WEIGHT_FLOOR."""
    points = np.asarray(points, dtype=float)
    weights = _weight_matrix(kernel, x_obs, points, bandwidth)
    mass = weights.sum(axis=1)
    values = np.full(points.shape, np.nan)
    ok = mass >= WEIGHT_FLOOR
    if ok.any():
        values[ok] = (weights[ok] @ targets) / mass[ok]
    return values


def _jackknife_smooth(
    kernel: Kernel,
    x_obs: np.ndarray,
    targets: np.ndarray,
    points,
    bandwidth: float,
) -> np.ndarray:
    """2 m(b) - m(sqrt(2) b) of the ratio smoother; NaN where either is degenerate."""
    base = _ratio_smooth(kernel, x_obs, targets, points, bandwidth)
    wide = _ratio_smooth(kernel, x_obs, targets, points, math.sqrt(2.0) * bandwidth)
    return 2.0 * base - wide


def density_estimate(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
) -> CurveEstimate:
    """Kernel density estimate of the covariate at the design points.

    Value at x is the average of K((x - x_j) / b) / b over observations;
    zero where no observation falls within the kernel support.
    """
    weights = _weight_matrix(kernel, dataset.x, design_points, bandwidth)
    values = weights.sum(axis=1) / (dataset.n * bandwidth)
    return CurveEstimate(design_points, values, bandwidth, "density")


def nw_mean(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
) -> CurveEstimate:
    """Local-average estimate of the conditional mean at the design points.

    Design points whose kernel mass is below the floor are recorded as NaN
    rather than failing the whole curve.
    """
    values = _ratio_smooth(kernel, dataset.x, dataset.y, design_points, bandwidth)
    return CurveEstimate(design_points, values, bandwidth, "mean")


def jackknife_mean(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
) -> CurveEstimate:
    """Bias-corrected mean estimate 2 m(b) - m(sqrt(2) b).

    The combination cancels the leading O(b^2) smoothing bias of the plain
    local average; degenerate points of either constituent propagate as NaN.
    """
    values = _jackknife_smooth(kernel, dataset.x, dataset.y, design_points, bandwidth)
    return CurveEstimate(design_points, values, bandwidth, "jackknife_mean")


def jackknife_residuals(
    dataset: SpatialDataset,
    mean_bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
) -> np.ndarray:
    """Residual y_j minus the bias-corrected mean evaluated at each observed x_j.

    Evaluation happens at the observed covariates directly (not interpolated
    from a grid), which costs O(n^2) but matches the estimator definition.
    NaN marks observations whose mean estimate was degenerate.
    """
    return dataset.y - _jackknife_smooth(kernel, dataset.x, dataset.y, dataset.x, mean_bandwidth)


def variance_estimate(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    mean_bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
    residuals: np.ndarray | None = None,
) -> CurveEstimate:
    """Conditional variance estimate: kernel average of squared residuals.

    Residuals come from the bias-corrected mean at `mean_bandwidth` unless
    supplied. Observations with a degenerate (NaN) residual are excluded and
    counted in n_excluded instead of aborting the curve.
    """
    if residuals is None:
        residuals = jackknife_residuals(dataset, mean_bandwidth, kernel)
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape != dataset.x.shape:
        raise ValueError("residuals must align with the dataset observations")
    valid = np.isfinite(residuals)
    values = _ratio_smooth(
        kernel, dataset.x[valid], residuals[valid] ** 2, design_points, bandwidth
    )
    return CurveEstimate(
        design_points,
        values,
        bandwidth,
        "variance",
        n_excluded=int(np.count_nonzero(~valid)),
    )


def v4_estimate(
    dataset: SpatialDataset,
    interval,
    mean_bandwidth: float,
    variance_bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
    residuals: np.ndarray | None = None,
    variance_at_observations: np.ndarray | None = None,
) -> float:
    """Trimmed excess fourth moment of standardized residuals.

    Averages the fourth power of residual / sqrt(variance estimate) over the
    observations whose covariate lies inside `interval`, then subtracts one.
    Observations whose variance estimate sits below VARIANCE_FLOOR (strict
    positivity of the variance function cannot be guaranteed in finite
    samples) are excluded from both numerator and count.

    `residuals` and `variance_at_observations` (full-length arrays aligned
    with the dataset) may be injected to reuse previously computed pieces or
    to substitute known truths.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise ValueError("interval must satisfy lo <= hi")
    inside = (dataset.x >= lo) & (dataset.x <= hi)
    if not inside.any():
        raise EmptyIntervalError(f"no covariate inside [{lo:g}, {hi:g}]")
    if residuals is None:
        residuals = jackknife_residuals(dataset, mean_bandwidth, kernel)
    residuals = np.asarray(residuals, dtype=float)
    if variance_at_observations is None:
        good = np.isfinite(residuals)
        variance_inside = _ratio_smooth(
            kernel,
            dataset.x[good],
            residuals[good] ** 2,
            dataset.x[inside],
            variance_bandwidth,
        )
    else:
        variance_at_observations = np.asarray(variance_at_observations, dtype=float)
        if variance_at_observations.shape != dataset.x.shape:
            raise ValueError("variance_at_observations must align with the dataset")
        variance_inside = variance_at_observations[inside]
    residuals_inside = residuals[inside]
    usable = (
        np.isfinite(residuals_inside)
        & np.isfinite(variance_inside)
        & (variance_inside >= VARIANCE_FLOOR)
    )
    if not usable.any():
        raise DegenerateVarianceError(
            f"no observation in [{lo:g}, {hi:g}] has a variance estimate above the floor"
        )
    standardized = residuals_inside[usable] / np.sqrt(variance_inside[usable])
    return float(np.mean(standardized**4) - 1.0)
