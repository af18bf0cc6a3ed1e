"""Dense reference evaluators for checking the curves, bands and losses the
benchmark's commands write.

Written from the estimator definitions, independently of the package code:
the Epanechnikov kernel is evaluated over blocks of evaluation points (so
memory stays at a few blocks of n values), weighted sums run through numpy's
elementwise sum rather than BLAS, the kernel constant is the closed form and
the normal quantile comes from the standard library. Agreement with the
package is expected near 1e-13 relative; the checks allow 1e-9, so they do
not depend on the last bits of either side.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

WEIGHT_FLOOR = 1e-12
VARIANCE_FLOOR = 1e-8
EPANECHNIKOV_L2_NORM_SQ = 0.6  # integral of (0.75 (1 - u^2))^2 over [-1, 1]
BLOCK = 256


def kernel_sums(x, targets, points, bandwidth) -> tuple[np.ndarray, np.ndarray]:
    """Per point: sum of K((p - x_j) / b) and sum of K(...) * targets_j."""
    points = np.asarray(points, dtype=float)
    mass = np.empty(points.size)
    weighted = np.empty(points.size)
    for lo in range(0, points.size, BLOCK):
        # Epanechnikov, in place: 0.75 * max(1 - u^2, 0) with u = (p - x_j) / b.
        w = (points[lo : lo + BLOCK, None] - x[None, :]) / bandwidth
        np.multiply(w, w, out=w)
        np.subtract(1.0, w, out=w)
        np.maximum(w, 0.0, out=w)
        w *= 0.75
        mass[lo : lo + BLOCK] = w.sum(axis=1)
        w *= targets
        weighted[lo : lo + BLOCK] = w.sum(axis=1)
    return mass, weighted


def ratio(x, targets, points, bandwidth) -> np.ndarray:
    mass, weighted = kernel_sums(x, targets, points, bandwidth)
    out = np.full(mass.shape, np.nan)
    ok = mass >= WEIGHT_FLOOR
    out[ok] = weighted[ok] / mass[ok]
    return out


def density(x, points, bandwidth) -> np.ndarray:
    mass, _ = kernel_sums(x, np.zeros_like(x), points, bandwidth)
    return mass / (x.size * bandwidth)


def mean(x, y, points, bandwidth) -> np.ndarray:
    return ratio(x, y, points, bandwidth)


def jackknife(x, y, points, bandwidth) -> np.ndarray:
    return 2.0 * mean(x, y, points, bandwidth) - mean(x, y, points, math.sqrt(2.0) * bandwidth)


def residuals(x, y, bandwidth) -> np.ndarray:
    return y - jackknife(x, y, x, bandwidth)


def variance(x, res, points, bandwidth) -> np.ndarray:
    ok = np.isfinite(res)
    return ratio(x[ok], res[ok] ** 2, points, bandwidth)


def excess_fourth_moment(x, res, lo, hi, bandwidth) -> float:
    inside = (x >= lo) & (x <= hi)
    var_inside = variance(x, res, x[inside], bandwidth)
    res_inside = res[inside]
    usable = np.isfinite(res_inside) & np.isfinite(var_inside) & (var_inside >= VARIANCE_FLOOR)
    z = res_inside[usable] / np.sqrt(var_inside[usable])
    return float(np.mean(z**4) - 1.0)


def max_abs_normal_quantile(n_points: int, tau: float) -> float:
    return NormalDist().inv_cdf((1.0 + (1.0 - tau) ** (1.0 / n_points)) / 2.0)


def band(target, x, y, res, points, b, h, tau) -> tuple[np.ndarray, np.ndarray, float]:
    """Centres, half-widths and q_tau of the joint band, each target at its own
    rate bandwidth; res are the residuals at mean bandwidth b."""
    points = np.asarray(points, dtype=float)
    k_norm = math.sqrt(EPANECHNIKOV_L2_NORM_SQ)
    q = max_abs_normal_quantile(points.size, tau)
    if target == "density":
        centers = density(x, points, b)
        core, rate = np.sqrt(centers) * k_norm, b
    elif target == "mean":
        centers = mean(x, y, points, b)
        sigma2 = variance(x, res, points, h)
        core, rate = np.sqrt(sigma2) * k_norm / np.sqrt(density(x, points, b)), b
    elif target == "variance":
        centers = variance(x, res, points, h)
        v4 = excess_fourth_moment(x, res, points.min(), points.max(), h)
        if not v4 > 0:
            v4 = math.nan  # the band is undefined without a positive fourth moment
        core, rate = centers * k_norm * np.sqrt(v4 / density(x, points, h)), h
    else:
        raise ValueError(f"unknown band target {target!r}")
    return centers, core * q / math.sqrt(x.size * rate), q


def adjacent_distances(curves) -> np.ndarray:
    """Sup-distance between consecutive curves over points where both are finite."""
    out = []
    for prev, cur in zip(curves, curves[1:]):
        diff = np.abs(cur - prev)
        out.append(diff[np.isfinite(diff)].max())
    return np.asarray(out)


def dei(locations: np.ndarray) -> tuple[float, float]:
    """(largest nearest-neighbour distance, smallest farthest-neighbour distance)."""
    n = locations.shape[0]
    nearest = np.empty(n)
    farthest = np.empty(n)
    for lo in range(0, n, BLOCK):
        block = locations[lo : lo + BLOCK]
        d = np.sqrt(((block[:, None, :] - locations[None, :, :]) ** 2).sum(axis=2))
        rows = np.arange(block.shape[0])
        d[rows, lo + rows] = np.inf
        nearest[lo : lo + BLOCK] = d.min(axis=1)
        d[rows, lo + rows] = -np.inf
        farthest[lo : lo + BLOCK] = d.max(axis=1)
    return float(nearest.max()), float(farthest.min())
