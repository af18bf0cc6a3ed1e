"""Naive reference implementations used as independent oracles.

Everything is written as plain double loops over Python scalars with exact
summation, deliberately sharing no code path with the package's vectorized
estimators. `None` marks degenerate values (the package uses NaN).

The block evaluators at the end (`block_*`) are the dense reference for
samples too large for the loops: numpy over blocks of points times every
observation, with this module's own kernel formulas, u computed as
(p - x) / b, and NaN (not None) for degenerate values.
"""

import math

import numpy as np

WEIGHT_FLOOR = 1e-12
VARIANCE_FLOOR = 1e-8


def kernel_scalar(kind, z):
    az = abs(z)
    if az > 1.0:
        return 0.0
    if kind == "epanechnikov":
        return 0.75 * (1.0 - z * z)
    if kind == "uniform":
        return 0.5
    if kind == "triangular":
        return 1.0 - az
    raise ValueError(kind)


def density_ref(x_obs, points, b, kind="epanechnikov"):
    n = len(x_obs)
    return [
        math.fsum(kernel_scalar(kind, (p - xi) / b) for xi in x_obs) / (n * b)
        for p in points
    ]


def nw_ref(x_obs, y_obs, points, b, kind="epanechnikov"):
    out = []
    for p in points:
        weights = [kernel_scalar(kind, (p - xi) / b) for xi in x_obs]
        mass = math.fsum(weights)
        if mass < WEIGHT_FLOOR:
            out.append(None)
        else:
            out.append(math.fsum(w * y for w, y in zip(weights, y_obs)) / mass)
    return out


def jackknife_ref(x_obs, y_obs, points, b, kind="epanechnikov"):
    narrow = nw_ref(x_obs, y_obs, points, b, kind)
    wide = nw_ref(x_obs, y_obs, points, math.sqrt(2.0) * b, kind)
    return [
        None if (a is None or c is None) else 2.0 * a - c
        for a, c in zip(narrow, wide)
    ]


def residuals_ref(x_obs, y_obs, b, kind="epanechnikov"):
    fitted = jackknife_ref(x_obs, y_obs, x_obs, b, kind)
    return [None if f is None else y - f for y, f in zip(y_obs, fitted)]


def variance_ref(x_obs, y_obs, points, h, b, kind="epanechnikov"):
    res = residuals_ref(x_obs, y_obs, b, kind)
    kept_x = [x for x, r in zip(x_obs, res) if r is not None]
    kept_r2 = [r * r for r in res if r is not None]
    return nw_ref(kept_x, kept_r2, points, h, kind)


def v4_ref(x_obs, y_obs, lo, hi, b, h, kind="epanechnikov"):
    res = residuals_ref(x_obs, y_obs, b, kind)
    kept_x = [x for x, r in zip(x_obs, res) if r is not None]
    kept_r2 = [r * r for r in res if r is not None]
    fourths = []
    for x, r in zip(x_obs, res):
        if not lo <= x <= hi or r is None:
            continue
        s2 = nw_ref(kept_x, kept_r2, [x], h, kind)[0]
        if s2 is None or s2 < VARIANCE_FLOOR:
            continue
        fourths.append((r / math.sqrt(s2)) ** 4)
    if not fourths:
        return None
    return math.fsum(fourths) / len(fourths) - 1.0


def leading_bias(coefficients, x, h, c_k, marginal_variance):
    """Leading smoothing bias h^2 c_K [g''(x)/2 + g'(x) f'(x)/f(x)] at scalar x.

    This is the O(h^2) term of a local-constant smoother of g(X) at bandwidth
    h. g is the polynomial with ascending `coefficients`, and f is the
    centred normal covariate density with variance `marginal_variance`, so
    f'/f = -x / marginal_variance.
    """
    d1 = math.fsum(k * c * x ** (k - 1) for k, c in enumerate(coefficients) if k >= 1)
    d2 = math.fsum(k * (k - 1) * c * x ** (k - 2) for k, c in enumerate(coefficients) if k >= 2)
    return h * h * c_k * (d2 / 2.0 - d1 * x / marginal_variance)


def max_abs_normal_quantile_mc(n_points, tau, draws=10**6, seed=0, chunk=200_000):
    """Empirical upper-tau quantile of max |xi| over n_points iid normals."""
    rng = np.random.default_rng(seed)
    maxima = np.empty(draws)
    filled = 0
    while filled < draws:
        take = min(chunk, draws - filled)
        block = rng.standard_normal((take, n_points))
        maxima[filled : filled + take] = np.abs(block).max(axis=1)
        filled += take
    return float(np.quantile(maxima, 1.0 - tau))


def matches(value, ref, rtol=1e-12):
    """Compare a package value (NaN for degenerate) to a reference (None)."""
    if ref is None:
        return math.isnan(value)
    if math.isnan(value):
        return False
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


BLOCK_ROWS = 64


def block_kernel(kind, u):
    """The kernel profile at an array u, exactly zero outside [-1, 1]."""
    inside = np.abs(u) <= 1.0
    if kind == "epanechnikov":
        return np.where(inside, 0.75 * (1.0 - u * u), 0.0)
    if kind == "uniform":
        return np.where(inside, 0.5, 0.0)
    if kind == "triangular":
        return np.where(inside, 1.0 - np.abs(u), 0.0)
    raise ValueError(kind)


def block_sums(x, targets, points, b, kind):
    """Per point: sum of K((p - x_j) / b) and of K(.) * targets_j (pairwise sums)."""
    x = np.asarray(x, dtype=float)
    targets = np.asarray(targets, dtype=float)
    points = np.asarray(points, dtype=float)
    mass = np.empty(points.size)
    weighted = np.empty(points.size)
    for lo in range(0, points.size, BLOCK_ROWS):
        w = block_kernel(kind, (points[lo : lo + BLOCK_ROWS, None] - x[None, :]) / b)
        mass[lo : lo + BLOCK_ROWS] = w.sum(axis=1)
        weighted[lo : lo + BLOCK_ROWS] = (w * targets).sum(axis=1)
    return mass, weighted


def block_density(x, points, b, kind):
    mass, _ = block_sums(x, np.zeros(len(x)), points, b, kind)
    return mass / (len(x) * b)


def block_ratio(x, targets, points, b, kind):
    mass, weighted = block_sums(x, targets, points, b, kind)
    out = np.full(mass.shape, np.nan)
    ok = mass >= WEIGHT_FLOOR
    out[ok] = weighted[ok] / mass[ok]
    return out


def block_jackknife(x, y, points, b, kind):
    return 2.0 * block_ratio(x, y, points, b, kind) - block_ratio(
        x, y, points, math.sqrt(2.0) * b, kind
    )


def block_residuals(x, y, b, kind):
    return np.asarray(y, dtype=float) - block_jackknife(x, y, x, b, kind)


def block_variance(x, residuals, points, h, kind):
    ok = np.isfinite(residuals)
    return block_ratio(np.asarray(x)[ok], residuals[ok] ** 2, points, h, kind)


def block_dei(locations):
    """(largest nearest-neighbour, smallest farthest-neighbour distance), pairwise."""
    pts = np.asarray(locations, dtype=float)
    nearest = np.empty(len(pts))
    farthest = np.empty(len(pts))
    for lo in range(0, len(pts), BLOCK_ROWS):
        d = np.sqrt(((pts[lo : lo + BLOCK_ROWS, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        rows = np.arange(d.shape[0])
        d[rows, lo + rows] = np.inf
        nearest[lo : lo + BLOCK_ROWS] = d.min(axis=1)
        d[rows, lo + rows] = -np.inf
        farthest[lo : lo + BLOCK_ROWS] = d.max(axis=1)
    return float(nearest.max()), float(farthest.min())
