"""Kernel estimators for the heteroscedastic spatial regression sample.

Five estimators: the kernel density of the covariate, the local-average
(Nadaraya-Watson) conditional mean, its bias-corrected combination
2 m(b) - m(sqrt(2) b), the residual-based conditional variance, and the
trimmed excess fourth moment of standardized residuals.

The mean and variance estimators are computed as self-normalized kernel
ratios (numerator and denominator share one bandwidth), which is
algebraically identical to dividing by the separately defined density
estimate at the same bandwidth. Every kernel sum goes through one
sorted-window primitive, _kernel_sums.
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


# Sorted observations per chunk of the moment path; a window of at most this
# many observations is always summed directly.
CHUNK = 64

# A call with at most this many points evaluates the kernel at every
# observation for each point, with no sort: up to here that costs less than
# sorting and building the moment tables.
FEW_POINTS = 32

# A moment-path mass below this fraction of its window count has lost too
# many digits to cancellation; such points, every mass near WEIGHT_FLOOR
# among them, are summed directly.
CANCELLATION_FRACTION = 1.0 / 16.0

# Most kernel terms evaluated at once, by the dense and the direct sums.
BLOCK = 1 << 16

# Powers of u = (p - x) / b each kernel is a polynomial in, inside [-1, 1].
_POWERS = {"uniform": 1, "triangular": 2, "epanechnikov": 3}


def _kernel_sums(
    kernel: Kernel, x: np.ndarray, targets: np.ndarray | None, points, b: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per point p: mass = sum_j K((p - x_j) / b), weighted = sum_j K(.) targets_j.

    Observation j counts exactly when |fl(fl(p - x_j) / b)| <= 1, as in a
    dense evaluation of eval_kernel; that set is a contiguous window of the
    sorted sample. Windows of at most CHUNK observations are summed directly
    through eval_kernel, larger ones from the moment tables (see
    _MomentTables). A call with at most FEW_POINTS points evaluates
    eval_kernel against the whole sample instead. `weighted` is None when
    `targets` is None.
    """
    if not b > 0:
        raise ValueError("bandwidth must be positive")
    points = np.asarray(points, dtype=float)
    if points.size <= FEW_POINTS or x.size == 0:
        return _dense_sums(kernel, x, targets, points, b)
    order = np.argsort(x)
    xs = x[order]
    ts = None if targets is None else np.asarray(targets, dtype=float)[order]
    lo, hi = _windows(xs, points, b)
    count = hi - lo
    direct = count <= CHUNK
    mass = np.empty(points.shape)
    weighted = None if ts is None else np.empty(points.shape)
    if not direct.all():
        tables = _MomentTables(kernel, xs, ts, b)
        large = ~direct
        m, w = tables.sums(points[large], lo[large], hi[large])
        # Cancelled points go to the direct path below.
        direct[large] = m < CANCELLATION_FRACTION * count[large]
        keep = ~direct[large]
        mass[~direct] = m[keep]
        if ts is not None:
            weighted[~direct] = w[keep]
    m, w = _direct_sums(kernel, xs, ts, points[direct], lo[direct], hi[direct], b)
    mass[direct] = m
    if ts is not None:
        weighted[direct] = w
    return mass, weighted


def _dense_sums(kernel, x, targets, points, b):
    """Kernel sums over the whole sample, in blocks of about BLOCK terms."""
    mass = np.empty(points.shape)
    weighted = None if targets is None else np.empty(points.shape)
    rows = max(1, BLOCK // max(x.size, 1))
    for start in range(0, points.size, rows):
        block = slice(start, start + rows)
        weights = eval_kernel(kernel, (points[block, None] - x[None, :]) / b)
        mass[block] = weights.sum(axis=1)
        if targets is not None:
            weighted[block] = weights @ targets
    return mass, weighted


def _inside(xs: np.ndarray, points: np.ndarray, b: float) -> np.ndarray:
    # The support test of a dense evaluation, rounding included.
    return np.abs((points - xs) / b) <= 1.0


def _windows(xs: np.ndarray, points: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi) in sorted xs of the observations inside each point's support.

    p +- b rounds, so the searchsorted edges are moved, one distinct x value
    at a time, until they agree with _inside. Only values left of p can be
    outside on the low edge and only values right of p on the high edge,
    which keeps an empty window empty.
    """
    n = xs.size
    lo = np.searchsorted(xs, points - b, "left")
    hi = np.searchsorted(xs, points + b, "right")
    while True:
        at = np.minimum(lo, n - 1)
        widen = (lo > 0) & _inside(xs[np.maximum(lo - 1, 0)], points, b)
        narrow = (lo < n) & (xs[at] < points) & ~_inside(xs[at], points, b)
        if not (widen.any() or narrow.any()):
            break
        lo[widen] = np.searchsorted(xs, xs[lo[widen] - 1], "left")
        lo[narrow] = np.searchsorted(xs, xs[lo[narrow]], "right")
    while True:
        at = np.maximum(hi - 1, 0)
        widen = (hi < n) & _inside(xs[np.minimum(hi, n - 1)], points, b)
        narrow = (hi > 0) & (xs[at] > points) & ~_inside(xs[at], points, b)
        if not (widen.any() or narrow.any()):
            break
        hi[widen] = np.searchsorted(xs, xs[hi[widen]], "right")
        hi[narrow] = np.searchsorted(xs, xs[hi[narrow] - 1], "left")
    return lo, hi


def _direct_sums(kernel, xs, ts, points, lo, hi, b):
    """Kernel sums over each exact window, eval_kernel on every term."""
    mass = np.zeros(points.shape)
    weighted = None if ts is None else np.zeros(points.shape)
    count = hi - lo
    ends = np.cumsum(count)
    start = 0
    while start < points.size:
        # Points [start, stop) hold about BLOCK terms, or one larger window.
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + BLOCK, "right")))
        size = count[start:stop]
        owner = np.repeat(np.arange(size.size), size)
        index = np.repeat(lo[start:stop] - (ends[start:stop] - size - before), size)
        index += np.arange(owner.size)
        w = eval_kernel(kernel, (points[start:stop][owner] - xs[index]) / b)
        mass[start:stop] = np.bincount(owner, weights=w, minlength=size.size)
        if ts is not None:
            weighted[start:stop] = np.bincount(owner, weights=w * ts[index], minlength=size.size)
        start = stop
    return mass, weighted


class _MomentTables:
    """Anchored moments of the sorted sample, in units of the bandwidth.

    The sorted sample is cut into chunks of CHUNK observations. With
    v = (a - x) / b, each chunk holds for every observation the prefix sums
    of v^k t from the chunk's first observation (a = that observation) and
    the suffix sums to its last (a = the last observation), for k below the
    kernel's number of powers and t = 1 and t = targets. A binary tree over
    the chunks holds each dyadic group's moments about its first
    observation. A run of observations inside one window is then the
    suffix of its first chunk, O(log n) groups of whole chunks, and the
    prefix of its last chunk, each about an anchor inside the window and
    shifted to p with u = (p - a) / b + v. So every summed term is O(1),
    unlike global prefix sums, whose differences cancel badly for narrow
    windows. Anchors are observations: shifting the sample and the points
    by one float leaves every difference, and so every sum, unchanged.
    """

    def __init__(self, kernel: Kernel, xs: np.ndarray, ts: np.ndarray | None, b: float):
        self.kind = kernel.kind
        self.xs = xs
        self.n = n = xs.size
        self.b = b
        chunks = -(-n // CHUNK)
        pad = chunks * CHUNK - n
        x2 = np.concatenate([xs, np.full(pad, xs[-1])]).reshape(chunks, CHUNK)
        t = np.zeros((1 if ts is None else 2, chunks * CHUNK))
        t[0, :n] = 1.0
        if ts is not None:
            t[1, :n] = ts
        t = t.reshape(t.shape[0], chunks, CHUNK)
        # Suffix sums are prefix sums of the chunks read backwards.
        v = ((x2[:, :1] - x2) / b, ((x2[:, -1:] - x2) / b)[:, ::-1])
        self.prefix, self.suffix = (
            np.empty((t.shape[0], _POWERS[self.kind], chunks, CHUNK)) for _ in range(2)
        )
        for table, vs, ws in ((self.prefix, v[0], t), (self.suffix, v[1], t[..., ::-1])):
            table[:, 0] = ws
            for k in range(1, table.shape[1]):
                np.multiply(table[:, k - 1], vs, out=table[:, k])
            np.cumsum(table, axis=-1, out=table)
        shape = self.prefix.shape[:2] + (chunks * CHUNK,)
        self.prefix = self.prefix.reshape(shape)
        self.suffix = self.suffix[..., ::-1].reshape(shape)
        self.first, self.last = x2[:, 0], x2[:, -1]

        # Node i of the tree has children 2i and 2i + 1; leaf `leaves + c` is
        # chunk c. Padding leaves hold no observation.
        self.leaves = leaves = 1 << (chunks - 1).bit_length()
        self.tree = np.zeros(shape[:2] + (2 * leaves,))
        self.anchor = np.full(2 * leaves, xs[-1])
        self.tree[:, :, leaves : leaves + chunks] = self.prefix[:, :, CHUNK - 1 :: CHUNK]
        self.anchor[leaves : leaves + chunks] = self.first
        size = leaves // 2
        with np.errstate(over="ignore", invalid="ignore"):
            # Groups wider than every window may overflow; they are never read.
            while size:
                node = np.arange(size, 2 * size)
                self.anchor[node] = self.anchor[2 * node]
                right = (self.anchor[node] - self.anchor[2 * node + 1]) / b
                self.tree[:, :, node] = self.tree[:, :, 2 * node] + _shift(
                    self.tree[:, :, 2 * node + 1], right
                )
                size //= 2

    def sums(self, points, lo, hi):
        """(mass, weighted) for windows [lo, hi) of more than CHUNK observations."""
        if self.kind == "triangular":
            # 1 - |u|: the observations at or left of p (u >= 0) and right of it apart.
            split = np.searchsorted(self.xs, points, "right")
            left = self._run(points, lo, split, hi)
            right = self._run(points, split, hi, hi)
            values = left[:, 0] - left[:, 1] + right[:, 0] + right[:, 1]
        else:
            moments = self._run(points, lo, hi, hi)
            if self.kind == "uniform":
                values = 0.5 * moments[:, 0]
            else:
                values = 0.75 * (moments[:, 0] - moments[:, 2])
        return values[0], (values[1] if values.shape[0] > 1 else None)

    def _add(self, out, rows, moments, anchors, points):
        out[:, :, rows] += _shift(moments, (points[rows] - anchors) / self.b)

    def _run(self, points, i, j, hi):
        """Sums of u^k t over sorted positions [i, j), u = (p - x) / b.

        Each run lies in its point's window, which ends at hi and holds more
        than CHUNK observations. So a run inside one chunk has an anchor in
        the window: the chunk's last observation when the window goes on past
        the chunk, else the chunk's first.
        """
        out = np.zeros(self.prefix.shape[:2] + points.shape)
        first_chunk, last_chunk = i // CHUNK, (j - 1) // CHUNK
        chunk_end = np.minimum((first_chunk + 1) * CHUNK, self.n)
        spans = first_chunk < last_chunk
        head = (j > i) & (spans | (chunk_end <= hi))
        tail = (j > i) & (spans | ~head)

        # The suffix of the first chunk, less what lies past j in it.
        r = np.flatnonzero(head)
        moments = self.suffix[:, :, i[r]]
        cut = j[r] < chunk_end[r]
        moments[:, :, cut] -= self.suffix[:, :, j[r][cut]]
        self._add(out, r, moments, self.last[first_chunk[r]], points)

        # The prefix of the last chunk, less what lies before i in it.
        r = np.flatnonzero(tail)
        moments = self.prefix[:, :, j[r] - 1]
        cut = i[r] > last_chunk[r] * CHUNK
        moments[:, :, cut] -= self.prefix[:, :, i[r][cut] - 1]
        self._add(out, r, moments, self.first[last_chunk[r]], points)

        # The whole chunks in between, as the fewest dyadic groups: a
        # bottom-up walk of the tree over [first_chunk + 1, last_chunk).
        left = np.where(spans, first_chunk + 1, 0) + self.leaves
        right = np.where(spans, last_chunk, 0) + self.leaves
        while (left < right).any():
            for edge, step in ((left, 0), (right, -1)):
                r = np.flatnonzero((left < right) & (edge & 1 == 1))
                node = edge[r] + step
                self._add(out, r, self.tree[:, :, node], self.anchor[node], points)
                edge[r] += 1 + 2 * step
            left >>= 1
            right >>= 1
        return out


def _shift(moments: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Moments of d + v from moments of v (axis 1 is the power k)."""
    out = moments.copy()
    if moments.shape[1] > 1:
        out[:, 1] = d * moments[:, 0] + moments[:, 1]
    if moments.shape[1] > 2:
        out[:, 2] = (d * d) * moments[:, 0] + 2.0 * d * moments[:, 1] + moments[:, 2]
    return out


def _ratio_smooth(
    kernel: Kernel,
    x_obs: np.ndarray,
    targets: np.ndarray,
    points,
    bandwidth: float,
) -> np.ndarray:
    """Self-normalized kernel average of targets; NaN where mass < WEIGHT_FLOOR."""
    mass, weighted = _kernel_sums(kernel, x_obs, targets, points, bandwidth)
    values = np.full(mass.shape, np.nan)
    ok = mass >= WEIGHT_FLOOR
    values[ok] = weighted[ok] / mass[ok]
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
    mass, _ = _kernel_sums(kernel, dataset.x, None, design_points, bandwidth)
    values = mass / (dataset.n * bandwidth)
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
    from a grid), as the estimator defines it, in O(n log n) time and O(n)
    memory.
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
