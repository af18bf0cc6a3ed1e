"""The sorted-window smoother against the dense block reference.

Every estimator sums each point's kernel window either directly or, for a
window of more than CHUNK observations in a call with more than FEW_POINTS
points, from anchored moment tables. The oracle and property tests use
samples too small for the moment path, so these tests use samples large
enough to reach it (a spy counts the points it serves) and compare each
estimate with reference.block_* at rtol 1e-12, NaN pattern included.
"""

import math
import tracemalloc

import numpy as np
import pytest

import reference
from conftest import make_dataset
from spatreg import (
    SpatialDataset,
    dei_metrics,
    density_estimate,
    jackknife_mean,
    jackknife_residuals,
    nw_mean,
    variance_estimate,
)
from spatreg import estimators
from spatreg.kernels import Kernel

KINDS = ["epanechnikov", "uniform", "triangular"]
BANDWIDTHS = [0.05, 0.5, 1.0]
RTOL = 1e-12
GRID = np.linspace(-0.5, 0.5, 11)


@pytest.fixture
def moment_points(monkeypatch):
    """Sizes of the point sets the moment path served during the test."""
    served = []
    original = estimators._MomentTables.sums

    def spy(self, points, lo, hi):
        served.append(points.size)
        return original(self, points, lo, hi)

    monkeypatch.setattr(estimators._MomentTables, "sums", spy)
    return served


def assert_matches(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
    for value, ref in zip(got, expected):
        assert reference.matches(value, None if math.isnan(ref) else ref, RTOL), (value, ref)


def reaches_moment_path(x, points, b):
    """Whether some point's window holds more than CHUNK observations."""
    inside = np.abs((np.asarray(points)[:, None] - x[None, :]) / b) <= 1.0
    return bool(inside.sum(axis=1).max() > estimators.CHUNK)


def normal_sample(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.4, n)
    return x, 0.1 + 0.3 * x + np.sqrt(0.5 + 0.05 * x * x) * rng.normal(size=n)


@pytest.mark.parametrize("b", BANDWIDTHS)
@pytest.mark.parametrize("kind", KINDS)
def test_observed_points_n750(kind, b, moment_points):
    x, y = normal_sample(750, seed=1)
    d, kernel = make_dataset(x, y), Kernel(kind)
    points = np.sort(x)  # design points must increase
    assert_matches(
        density_estimate(d, points, b, kernel).values,
        reference.block_density(x, points, b, kind),
    )
    assert_matches(nw_mean(d, points, b, kernel).values, reference.block_ratio(x, y, points, b, kind))
    residuals = reference.block_residuals(x, y, b, kind)
    assert_matches(jackknife_residuals(d, b, kernel), residuals)
    assert_matches(
        variance_estimate(d, points, b, b, kernel).values,
        reference.block_variance(x, residuals, points, b, kind),
    )
    assert (sum(moment_points) > 0) == reaches_moment_path(x, points, b)


@pytest.mark.parametrize("b", BANDWIDTHS)
@pytest.mark.parametrize("kind", KINDS)
def test_observed_and_grid_points_n5000(kind, b, moment_points):
    x, y = normal_sample(5000, seed=2)
    d, kernel = make_dataset(x, y), Kernel(kind)
    points = np.unique(np.concatenate([x[:500], GRID]))
    assert_matches(
        density_estimate(d, points, b, kernel).values,
        reference.block_density(x, points, b, kind),
    )
    assert_matches(nw_mean(d, points, b, kernel).values, reference.block_ratio(x, y, points, b, kind))
    assert_matches(
        jackknife_mean(d, points, b, kernel).values,
        reference.block_jackknife(x, y, points, b, kind),
    )
    assert sum(moment_points) > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("b", [0.25, 0.5])
def test_dyadic_ties_at_the_support_edge(kind, b, moment_points):
    # On a 1/64 grid p - x = +-b exactly, so many observations sit at |u| = 1.
    x = np.repeat(np.arange(-128, 129) / 64.0, 3)
    y = np.random.default_rng(3).normal(size=x.size)
    points = np.arange(-140, 141) / 64.0
    assert ((np.abs((points[:, None] - x[None, :]) / b)) == 1.0).any()
    d, kernel = make_dataset(x, y), Kernel(kind)
    assert_matches(
        density_estimate(d, points, b, kernel).values,
        reference.block_density(x, points, b, kind),
    )
    assert_matches(nw_mean(d, points, b, kernel).values, reference.block_ratio(x, y, points, b, kind))
    assert sum(moment_points) > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("b", [0.3, 0.7])
def test_decimal_ties_round_across_the_edge(kind, b, moment_points):
    # On a 0.01 grid |p - x| = b in decimals, but fl(fl(p - x) / b) lands on
    # either side of 1, so the window edge is the rounded test, not p +- b.
    x = np.repeat(np.round(np.arange(-300, 301) * 0.01, 2), 2)
    y = np.random.default_rng(4).normal(size=x.size)
    points = np.round(np.arange(-250, 251, 5) * 0.01, 2)
    u = np.abs((points[:, None] - x[None, :]) / b)
    steps = np.round(np.abs(points[:, None] - x[None, :]) * 100)
    edge = steps == round(b * 100)
    assert (u[edge] > 1.0).any() and (u[edge] <= 1.0).any()
    d, kernel = make_dataset(x, y), Kernel(kind)
    assert_matches(
        density_estimate(d, points, b, kernel).values,
        reference.block_density(x, points, b, kind),
    )
    assert_matches(nw_mean(d, points, b, kernel).values, reference.block_ratio(x, y, points, b, kind))
    assert sum(moment_points) > 0


@pytest.mark.parametrize("kind", ["epanechnikov", "triangular"])
def test_mass_only_at_the_support_edge(kind, moment_points):
    # 100 copies of one covariate at |u| just below 1 for the points at 0:
    # their mass lands just above WEIGHT_FLOOR for one offset and below it for
    # the other, and the moment sums cancel almost all of it.
    b = 1.0
    near = {"epanechnikov": (2.0**-47, 2.0**-48), "triangular": (2.0**-46, 2.0**-47)}[kind]
    x = np.concatenate(
        [np.full(100, -1.0 + near[0]), np.full(100, 9.0 + near[1]), np.arange(40.0, 80.0)]
    )
    y = np.random.default_rng(5).normal(size=x.size)
    points = np.concatenate([[0.0, 10.0], np.arange(40.0, 80.0, 0.5)])
    expected = reference.block_ratio(x, y, points, b, kind)
    masses = reference.block_sums(x, y, points, b, kind)[0][:2]
    assert masses[0] >= estimators.WEIGHT_FLOOR > masses[1] > 0
    assert_matches(nw_mean(make_dataset(x, y), points, b, Kernel(kind)).values, expected)
    assert sum(moment_points) > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("b", [0.05, 0.5])
def test_duplicate_covariates(kind, b, moment_points):
    x, y = normal_sample(1500, seed=6)
    x = np.round(x, 1)
    d, kernel = make_dataset(x, y), Kernel(kind)
    residuals = reference.block_residuals(x, y, b, kind)
    assert_matches(jackknife_residuals(d, b, kernel), residuals)
    points = np.unique(np.concatenate([x[:300], GRID]))
    assert_matches(
        variance_estimate(d, points, b, b, kernel, residuals=residuals).values,
        reference.block_variance(x, residuals, points, b, kind),
    )
    assert (sum(moment_points) > 0) == reaches_moment_path(x, x, b)


@pytest.mark.parametrize("kind", KINDS)
def test_joint_shift_is_bit_exact_on_the_moment_path(kind, moment_points):
    # Covariates, points and shift are distinct multiples of 1/64, so every
    # p - x and x - a is the same float after the shift; the moment tables
    # are anchored at observations, so every sum repeats bit for bit.
    rng = np.random.default_rng(10)
    x = rng.choice(np.arange(-192, 193), size=300, replace=False) / 64.0
    y = rng.normal(size=x.size)
    points = np.arange(-160, 161, 4) / 64.0
    shift = 1000 / 64.0
    kernel = Kernel(kind)
    for b in (0.5, 1.0):
        base, moved = make_dataset(x, y), make_dataset(x + shift, y)
        for estimate in (density_estimate, nw_mean, jackknife_mean):
            np.testing.assert_array_equal(
                estimate(moved, points + shift, b, kernel).values,
                estimate(base, points, b, kernel).values,
            )
        np.testing.assert_array_equal(
            jackknife_residuals(moved, b, kernel), jackknife_residuals(base, b, kernel)
        )
    assert sum(moment_points) > 0


def test_dei_matches_pairwise_distances():
    rng = np.random.default_rng(7)
    sites = rng.uniform(0.0, 30.0, size=(2000, 2))
    got = dei_metrics(sites)
    expected = reference.block_dei(sites)
    assert got.max_nearest_distance == pytest.approx(expected[0], rel=1e-15)
    assert got.min_farthest_distance == pytest.approx(expected[1], rel=1e-15)
    # Collinear sites have no convex hull; every site is compared.
    t = rng.permutation(50).astype(float)
    line = np.column_stack([t, 2.0 * t + 1.0])
    got = dei_metrics(line)
    assert (got.max_nearest_distance, got.min_farthest_distance) == reference.block_dei(line)


@pytest.mark.parametrize("what", ["jackknife_residuals", "dei_metrics"])
def test_memory_stays_linear_at_n5000(what):
    # The dense n x n versions peaked at 596 MB (residuals) and 954 MB (DEI).
    x, y = normal_sample(5000, seed=8)
    locations = np.random.default_rng(9).uniform(0.0, 100.0, size=(5000, 2))
    d = SpatialDataset(locations, x, y)
    tracemalloc.start()
    try:
        if what == "jackknife_residuals":
            jackknife_residuals(d, 0.5)
        else:
            dei_metrics(d.locations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"{what} peaked at {peak / 2**20:.1f} MB"
