"""Limit-law score normalizations, max-of-normals quantiles, and joint bands.

The normalized scores divide estimation error by the pointwise asymptotic
standard deviation, so over replications they should look standard normal.
Joint confidence bands calibrate all design points simultaneously through
the distribution of the maximum of independent standard normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .data import SpatialDataset
from .errors import DegenerateDensityError, NonpositiveV4Error
from .estimators import (
    density_estimate,
    jackknife_residuals,
    nw_mean,
    v4_estimate,
    variance_estimate,
)
from .kernels import EPANECHNIKOV, Kernel, KernelConstants, kernel_constants

__all__ = [
    "BAND_TARGETS",
    "NormalizedScores",
    "ConfidenceBand",
    "max_abs_normal_quantile",
    "normalize_density",
    "normalize_mean",
    "normalize_variance",
    "confidence_band",
    "band_table",
]

BAND_TARGETS = ("density", "mean", "variance")


def max_abs_normal_quantile(n_points: int, tau: float) -> float:
    """Quantile q with P(max over n_points of |xi_j| > q) = tau, xi iid N(0,1).

    Closed form under independence: Phi^-1((1 + (1 - tau)^(1/N)) / 2).
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly between 0 and 1")
    return float(ndtri((1.0 + (1.0 - tau) ** (1.0 / n_points)) / 2.0))


@dataclass
class NormalizedScores:
    """One limit-law normalized deviation per design point."""

    design_points: np.ndarray
    scores: np.ndarray
    target: str

    def __post_init__(self):
        self.design_points = np.asarray(self.design_points, dtype=float)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.design_points.shape != self.scores.shape:
            raise ValueError("design_points and scores must have equal length")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite")


def _require_finite(values: np.ndarray, design_points: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(np.asarray(values))
    if bad.any():
        raise DegenerateDensityError(what, np.asarray(design_points, dtype=float)[bad])


def _positive_truth(values, design_points, what) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != np.asarray(design_points, dtype=float).shape:
        raise ValueError(f"{what} must supply one value per design point")
    if not (arr > 0).all():
        raise ValueError(f"{what} must be strictly positive at every design point")
    return arr


def normalize_density(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    truth_density,
    constants: KernelConstants,
    kernel: Kernel = EPANECHNIKOV,
) -> NormalizedScores:
    """Scores sqrt(n b / |K|^2) (fhat - f) / sqrt(f) at the design points."""
    f = _positive_truth(truth_density, design_points, "truth_density")
    estimate = density_estimate(dataset, design_points, bandwidth, kernel)
    scale = math.sqrt(dataset.n * bandwidth / constants.l2_norm_sq)
    scores = scale * (estimate.values - f) / np.sqrt(f)
    return NormalizedScores(estimate.design_points, scores, "density")


def normalize_mean(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    truth_mean,
    truth_variance,
    truth_density,
    constants: KernelConstants,
    kernel: Kernel = EPANECHNIKOV,
) -> NormalizedScores:
    """Scores sqrt(n b / |K|^2) sqrt(f) (muhat - mu) / sigma at the design points."""
    mu = np.asarray(truth_mean, dtype=float)
    sigma2 = _positive_truth(truth_variance, design_points, "truth_variance")
    f = _positive_truth(truth_density, design_points, "truth_density")
    estimate = nw_mean(dataset, design_points, bandwidth, kernel)
    _require_finite(estimate.values, design_points, "mean estimate")
    scale = math.sqrt(dataset.n * bandwidth / constants.l2_norm_sq)
    scores = scale * np.sqrt(f) * (estimate.values - mu) / np.sqrt(sigma2)
    return NormalizedScores(estimate.design_points, scores, "mean")


def normalize_variance(
    dataset: SpatialDataset,
    design_points,
    bandwidth: float,
    mean_bandwidth: float,
    truth_variance,
    truth_density,
    excess_fourth_moment: float,
    constants: KernelConstants,
    kernel: Kernel = EPANECHNIKOV,
) -> NormalizedScores:
    """Scores sqrt(n h / (V4 |K|^2)) sqrt(f) (s2hat - s2) / s2 at the design points.

    excess_fourth_moment is V4 = E[V^4] - 1 of the standardized noise and
    must be positive for the limit law to be non-degenerate.
    """
    if not excess_fourth_moment > 0:
        raise ValueError("excess_fourth_moment must be positive")
    sigma2 = _positive_truth(truth_variance, design_points, "truth_variance")
    f = _positive_truth(truth_density, design_points, "truth_density")
    estimate = variance_estimate(dataset, design_points, bandwidth, mean_bandwidth, kernel)
    _require_finite(estimate.values, design_points, "variance estimate")
    scale = math.sqrt(
        dataset.n * bandwidth / (excess_fourth_moment * constants.l2_norm_sq)
    )
    scores = scale * np.sqrt(f) * (estimate.values - sigma2) / sigma2
    return NormalizedScores(estimate.design_points, scores, "variance")


@dataclass
class ConfidenceBand:
    """Joint band: centers plus symmetric half-widths at each design point.

    rate_bandwidth records which bandwidth entered the sqrt(n * bw) width
    denominator, so output metadata can flag the convention used.
    """

    design_points: np.ndarray
    centers: np.ndarray
    half_widths: np.ndarray
    tau: float
    q_tau: float
    target: str
    bandwidth: float
    rate_bandwidth: float

    def __post_init__(self):
        self.design_points = np.asarray(self.design_points, dtype=float)
        self.centers = np.asarray(self.centers, dtype=float)
        self.half_widths = np.asarray(self.half_widths, dtype=float)
        if not (
            self.design_points.shape == self.centers.shape == self.half_widths.shape
        ):
            raise ValueError("design_points, centers, half_widths must share length")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        if not self.q_tau > 0:
            raise ValueError("q_tau must be positive")
        if (self.half_widths < 0).any():
            raise ValueError("half_widths must be non-negative")
        if self.target not in BAND_TARGETS:
            raise ValueError(f"target must be one of {BAND_TARGETS}")

    @property
    def lower(self) -> np.ndarray:
        return self.centers - self.half_widths

    @property
    def upper(self) -> np.ndarray:
        return self.centers + self.half_widths

    def contains(self, truth_values) -> bool:
        """True when the curve lies inside the band at every design point."""
        truth = np.asarray(truth_values, dtype=float)
        return bool(np.all(np.abs(truth - self.centers) <= self.half_widths))


def confidence_band(
    dataset: SpatialDataset,
    design_points,
    target: str,
    b: float,
    h: float,
    tau: float,
    kernel: Kernel = EPANECHNIKOV,
    shared_rate_bandwidth: bool = False,
) -> ConfidenceBand:
    """Joint band over the design points calibrated by the max-of-normals quantile.

    b is the bandwidth of the density/mean estimators, h the bandwidth of the
    variance estimator (the mean band's width uses the h-bandwidth variance
    estimate, the variance band's width the h-bandwidth density). The trimmed
    fourth-moment estimate is taken over [min, max] of the design points.

    By default each target's own bandwidth enters the sqrt(n * bw) width
    denominator (b for density and mean, h for variance); pass
    shared_rate_bandwidth=True to use h for every target instead. The choice
    is recorded in the band's rate_bandwidth field.
    """
    xs = np.asarray(design_points, dtype=float)
    constants = kernel_constants(kernel)
    k_norm = math.sqrt(constants.l2_norm_sq)
    q_tau = max_abs_normal_quantile(xs.size, tau)

    with np.errstate(divide="ignore", invalid="ignore"):
        if target == "density":
            centers = density_estimate(dataset, xs, b, kernel).values
            widths_core = np.sqrt(centers) * k_norm
            own_bandwidth = b
        elif target == "mean":
            centers = nw_mean(dataset, xs, b, kernel).values
            residuals = jackknife_residuals(dataset, b, kernel)
            sigma2 = variance_estimate(
                dataset, xs, h, b, kernel, residuals=residuals
            ).values
            f_b = density_estimate(dataset, xs, b, kernel).values
            widths_core = np.sqrt(sigma2) * k_norm / np.sqrt(f_b)
            own_bandwidth = b
        elif target == "variance":
            residuals = jackknife_residuals(dataset, b, kernel)
            centers = variance_estimate(
                dataset, xs, h, b, kernel, residuals=residuals
            ).values
            f_h = density_estimate(dataset, xs, h, kernel).values
            v4 = v4_estimate(
                dataset, (xs.min(), xs.max()), b, h, kernel, residuals=residuals
            )
            if not v4 > 0:
                raise NonpositiveV4Error(
                    f"trimmed excess fourth moment {v4:.6g} is not positive"
                )
            widths_core = centers * k_norm * np.sqrt(v4 / f_h)
            own_bandwidth = h
        else:
            raise ValueError(f"target must be one of {BAND_TARGETS}")

        rate_bandwidth = h if shared_rate_bandwidth else own_bandwidth
        half_widths = widths_core * q_tau / math.sqrt(dataset.n * rate_bandwidth)

    bad = ~np.isfinite(centers) | ~np.isfinite(half_widths)
    if bad.any():
        raise DegenerateDensityError(f"{target} band", xs[bad])
    return ConfidenceBand(
        xs, centers, half_widths, float(tau), q_tau, target, own_bandwidth, rate_bandwidth
    )


def band_table(band: ConfidenceBand) -> tuple[list[str], list[list]]:
    """Column names and rows of a band: x, center, lo, hi, target, tau, q_tau, bandwidth."""
    columns = ["x", "center", "lo", "hi", "target", "tau", "q_tau", "bandwidth"]
    rows = [
        [
            float(x), float(c), float(c - hw), float(c + hw),
            band.target, band.tau, band.q_tau, band.bandwidth,
        ]
        for x, c, hw in zip(band.design_points, band.centers, band.half_widths)
    ]
    return columns, rows
