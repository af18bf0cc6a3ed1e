"""Synthetic spatial sampling: lattice sites, moving-average covariates, responses.

Locations are drawn without replacement from a regular planar lattice, the
covariate field is a 3x3 moving average of iid standard normal innovations on
a padded copy of that lattice, and responses follow
y = mean(x) + sqrt(variance(x)) * noise with iid standard normal noise.

Generation is sequential per seed stream so replays are bit-identical;
independent replications should derive independent seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SpatialDataset
from .errors import DuplicateLocationError, NegativeVarianceError, TooManySitesError

__all__ = [
    "LatticeConfig",
    "MaCoefficients",
    "Polynomial",
    "RegressionSpec",
    "LatticeSites",
    "DeiMetrics",
    "sample_locations",
    "spatial_ma",
    "gen_regression",
    "dei_metrics",
    "simulate_dataset",
    "DEFAULT_MA",
    "DEFAULT_REGRESSION",
]


@dataclass(frozen=True)
class LatticeConfig:
    """A side x side lattice with coordinates origin + index * spacing."""

    side: int
    spacing: float = 0.3
    u0: float = 0.3
    v0: float = 0.6

    def __post_init__(self):
        if self.side < 3:
            raise ValueError("lattice side must be at least 3 (interior neighborhoods)")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class MaCoefficients:
    """3x3 moving-average stencil applied to the innovation field.

    Stored as nested tuples so configs stay hashable and serializable;
    marginal_variance is the sum of squared entries (the variance of the
    resulting covariate field under standard normal innovations).
    """

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("coefficients must form a 3x3 stencil")
        arr = np.asarray(self.rows, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        if not arr.any():
            raise ValueError("coefficients must not all be zero")

    @classmethod
    def default(cls) -> "MaCoefficients":
        return cls(
            (
                (1 / 5, 2 / 5, -4 / 5),
                (-3 / 5, -2 / 5, -1 / 5),
                (-1 / 5, 2 / 5, -3 / 5),
            )
        )

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)

    @property
    def marginal_variance(self) -> float:
        return float((self.array**2).sum())


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with ascending coefficients, evaluated by Horner's scheme."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        result = np.full_like(x, self.coefficients[-1])
        for c in reversed(self.coefficients[:-1]):
            result = result * x + c
        return result


DEFAULT_MA = MaCoefficients.default()

NOISE_KINDS = ("std_normal",)


@dataclass(frozen=True)
class RegressionSpec:
    """Mean and variance functions of the response plus the noise family."""

    mean: Polynomial = Polynomial((0.1, 0.3))
    variance: Polynomial = Polynomial((0.2, 0.05, 0.3))
    noise: str = "std_normal"

    def __post_init__(self):
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}")


DEFAULT_REGRESSION = RegressionSpec()


@dataclass
class LatticeSites:
    """Sampled lattice sites: integer indices plus planar coordinates."""

    config: LatticeConfig
    rows: np.ndarray
    cols: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def coords(self) -> np.ndarray:
        u = self.config.u0 + self.rows * self.config.spacing
        v = self.config.v0 + self.cols * self.config.spacing
        return np.column_stack([u, v])


@dataclass(frozen=True)
class DeiMetrics:
    """Sampling-regime diagnostics.

    max_nearest_distance shrinking toward zero signals infill;
    min_farthest_distance growing without bound signals domain expansion.
    """

    max_nearest_distance: float
    min_farthest_distance: float


def sample_locations(config: LatticeConfig, n: int, seed=None) -> LatticeSites:
    """Draw n distinct lattice sites uniformly without replacement."""
    total = config.side * config.side
    if n > total:
        raise TooManySitesError(f"requested {n} sites from a lattice of {total}")
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=n, replace=False)
    return LatticeSites(config, flat // config.side, flat % config.side)


def spatial_ma(
    sites: LatticeSites,
    coefficients: MaCoefficients = DEFAULT_MA,
    seed=None,
    innovations: np.ndarray | None = None,
) -> np.ndarray:
    """Moving-average covariate values at the sampled sites.

    The innovation field is iid standard normal on the lattice padded by one
    ring, so edge sites keep full 3x3 neighborhoods and the field stays
    stationary. An explicit `innovations` array of shape (side+2, side+2)
    can be injected for exact-value tests.
    """
    side = sites.config.side
    padded = side + 2
    if innovations is None:
        rng = np.random.default_rng(seed)
        innovations = rng.standard_normal((padded, padded))
    else:
        innovations = np.asarray(innovations, dtype=float)
        if innovations.shape != (padded, padded):
            raise ValueError(f"innovations must have shape ({padded}, {padded})")
    a = coefficients.array
    x = np.zeros(sites.n)
    for i in range(3):
        for j in range(3):
            x += a[i, j] * innovations[sites.rows + i, sites.cols + j]
    return x


def gen_regression(x: np.ndarray, spec: RegressionSpec = DEFAULT_REGRESSION, seed=None) -> np.ndarray:
    """Responses mean(x) + sqrt(variance(x)) * noise, noise iid per the noise tag."""
    x = np.asarray(x, dtype=float)
    variance = spec.variance(x)
    if (variance < 0).any():
        worst = float(x[np.argmin(variance)])
        raise NegativeVarianceError(f"variance function negative at x = {worst:g}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(x.shape[0])
    return spec.mean(x) + np.sqrt(variance) * noise


def dei_metrics(locations) -> DeiMetrics:
    """Exact nearest/farthest neighbor diagnostics in O(n) memory.

    Nearest distances come from a k-d tree. The farthest point from any
    point is a vertex of the convex hull, so farthest distances are taken
    against the h hull vertices only: O(n log n + n h) time. With fewer than
    three points, or all of them on one line, there is no hull and every
    point is compared.
    """
    # Imported here, not at module level: scipy.spatial adds ~0.12 s to the
    # start-up of every CLI command, while only simulate uses it.
    from scipy.spatial import ConvexHull, QhullError, cKDTree

    pts = np.asarray(locations, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("locations must have shape (n, 2) with n >= 2")
    nearest = cKDTree(pts).query(pts, k=2)[0][:, 1]
    if (nearest == 0).any():
        raise DuplicateLocationError("coincident locations found")
    hull = pts
    if pts.shape[0] >= 3:
        try:
            hull = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass  # collinear
    farthest = np.empty(pts.shape[0])
    rows = max(1, 65536 // hull.shape[0])  # distances held at once
    for start in range(0, pts.shape[0], rows):
        diff = pts[start : start + rows, None, :] - hull[None, :, :]
        farthest[start : start + rows] = np.sqrt((diff**2).sum(axis=2)).max(axis=1)
    return DeiMetrics(float(nearest.max()), float(farthest.min()))


def simulate_dataset(
    n: int,
    seed=None,
    lattice: LatticeConfig | None = None,
    coefficients: MaCoefficients = DEFAULT_MA,
    regression: RegressionSpec = DEFAULT_REGRESSION,
) -> SpatialDataset:
    """One full draw: sites, covariate field, responses.

    The lattice defaults to side = n, matching the convention that the
    lattice grows with the sample. A single generator drives the three
    stages in a fixed order, so (arguments, seed) pins every output bit.
    """
    config = lattice if lattice is not None else LatticeConfig(side=n)
    rng = np.random.default_rng(seed)
    sites = sample_locations(config, n, rng)
    x = spatial_ma(sites, coefficients, rng)
    y = gen_regression(x, regression, rng)
    return SpatialDataset(sites.coords, x, y)
