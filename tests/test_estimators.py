"""Estimator values against hand computations and the naive references."""

import math

import numpy as np
import pytest

import reference
from conftest import make_dataset
from spatreg import (
    DegenerateVarianceError,
    EmptyIntervalError,
    density_estimate,
    jackknife_mean,
    jackknife_residuals,
    nw_mean,
    v4_estimate,
    variance_estimate,
)


class TestDensityEstimate:
    def test_two_points_at_origin(self):
        d = make_dataset([0.0, 0.0], [1.0, 1.0])
        est = density_estimate(d, [0.0], 1.0)
        assert est.values[0] == pytest.approx(0.75, abs=1e-15)

    def test_symmetric_pair(self):
        d = make_dataset([-0.5, 0.5], [1.0, 1.0])
        est = density_estimate(d, [0.0], 1.0)
        assert est.values[0] == pytest.approx(0.5625, abs=1e-15)

    def test_empty_support_is_zero(self):
        d = make_dataset([10.0, 11.0], [1.0, 1.0])
        est = density_estimate(d, [0.0], 1.0)
        assert est.values[0] == 0.0

    def test_nonnegative_everywhere(self, rng):
        d = make_dataset(rng.normal(size=40), rng.normal(size=40))
        est = density_estimate(d, np.linspace(-4, 4, 81), 0.3)
        assert (est.values >= 0).all()

    def test_integrates_to_one(self, rng):
        b = 0.4
        d = make_dataset(rng.normal(size=200), rng.normal(size=200))
        grid = np.linspace(d.x.min() - b, d.x.max() + b, 2001)
        est = density_estimate(d, grid, b)
        mass = np.trapezoid(est.values, grid)
        assert mass == pytest.approx(1.0, abs=0.01)


class TestNwMean:
    def test_constant_response(self, rng):
        x = rng.normal(size=20)
        d = make_dataset(x, np.full(20, 3.25))
        est = nw_mean(d, [float(np.median(x))], 1.0)
        assert est.values[0] == pytest.approx(3.25, rel=1e-15)

    def test_equal_weights(self):
        d = make_dataset([-0.5, 0.5], [1.0, 3.0])
        est = nw_mean(d, [0.0], 1.0)
        assert est.values[0] == pytest.approx(2.0, abs=1e-15)

    def test_support_edge_kills_weight(self):
        d = make_dataset([-0.5, 0.5], [1.0, 3.0])
        est = nw_mean(d, [0.5], 1.0)
        assert est.values[0] == pytest.approx(3.0, abs=1e-15)

    def test_degenerate_point_is_nan(self):
        d = make_dataset([-0.5, 0.5], [1.0, 3.0])
        est = nw_mean(d, [5.0], 1.0)
        assert np.isnan(est.values[0])
        assert est.degenerate_mask[0]

    def test_affine_equivariance(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        points = np.linspace(-1, 1, 7)
        base = nw_mean(make_dataset(x, y), points, 0.8).values
        mapped = nw_mean(make_dataset(x, 2.5 * y - 1.25), points, 0.8).values
        np.testing.assert_allclose(mapped, 2.5 * base - 1.25, rtol=1e-12)


class TestJackknifeMean:
    def test_constant_response(self, rng):
        x = rng.normal(size=15)
        d = make_dataset(x, np.full(15, -2.0))
        est = jackknife_mean(d, [0.0], 0.7)
        assert est.values[0] == pytest.approx(-2.0, rel=1e-15)

    def test_symmetric_pair(self):
        d = make_dataset([-0.5, 0.5], [1.0, 3.0])
        est = jackknife_mean(d, [0.0], 1.0)
        assert est.values[0] == pytest.approx(2.0, abs=1e-12)

    def test_identity_against_constituents(self, rng):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        d = make_dataset(x, y)
        points = np.linspace(-0.8, 0.8, 5)
        combined = jackknife_mean(d, points, 0.5).values
        narrow = nw_mean(d, points, 0.5).values
        wide = nw_mean(d, points, math.sqrt(2.0) * 0.5).values
        np.testing.assert_array_equal(combined, 2.0 * narrow - wide)

    def test_degenerate_propagates(self):
        d = make_dataset([-0.5, 0.5], [1.0, 3.0])
        est = jackknife_mean(d, [9.0], 1.0)
        assert np.isnan(est.values[0])


class TestVarianceEstimate:
    def test_exactly_zero_residuals(self, rng):
        x = rng.normal(size=20)
        d = make_dataset(x, np.full(20, 4.0))
        est = variance_estimate(d, [0.0], 0.8, 0.8, residuals=np.zeros(20))
        assert est.values[0] == 0.0
        assert est.n_excluded == 0

    def test_constant_response_residuals_vanish(self, rng):
        # The fitted mean of a constant response differs from the constant
        # only by summation-order rounding, so the variance curve is zero up
        # to that noise.
        x = rng.normal(size=20)
        d = make_dataset(x, np.full(20, 4.0))
        est = variance_estimate(d, [0.0], 0.8, 0.8)
        assert abs(est.values[0]) < 1e-20

    def test_injected_unit_residuals(self):
        d = make_dataset([-0.5, 0.5], [0.0, 0.0])
        est = variance_estimate(d, [0.0], 1.0, 1.0, residuals=np.array([1.0, -1.0]))
        assert est.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_single_in_support_residual(self):
        d = make_dataset([0.0, 5.0], [0.0, 0.0])
        est = variance_estimate(d, [0.0], 1.0, 1.0, residuals=np.array([2.0, 7.0]))
        assert est.values[0] == pytest.approx(4.0, abs=1e-15)

    def test_nan_residuals_excluded_and_counted(self):
        d = make_dataset([-0.5, 0.0, 0.5], [0.0, 0.0, 0.0])
        residuals = np.array([1.0, np.nan, -1.0])
        est = variance_estimate(d, [0.0], 1.0, 1.0, residuals=residuals)
        assert est.n_excluded == 1
        assert est.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        points = np.linspace(-0.5, 0.5, 5)
        base = variance_estimate(make_dataset(x, y), points, 0.6, 0.4).values
        shifted = variance_estimate(make_dataset(x, y + 11.0), points, 0.6, 0.4).values
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)

    def test_nonnegative(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        est = variance_estimate(make_dataset(x, y), np.linspace(-1, 1, 9), 0.5, 0.5)
        ok = np.isfinite(est.values)
        assert (est.values[ok] >= 0).all()


class TestV4Estimate:
    def test_unit_standardized_residuals(self):
        d = make_dataset([-0.2, 0.2], [0.0, 0.0])
        value = v4_estimate(
            d,
            (-1.0, 1.0),
            0.5,
            0.5,
            residuals=np.array([1.0, 1.0]),
            variance_at_observations=np.array([1.0, 1.0]),
        )
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_sign_flips_cancel(self):
        d = make_dataset([-0.2, 0.2], [0.0, 0.0])
        value = v4_estimate(
            d,
            (-1.0, 1.0),
            0.5,
            0.5,
            residuals=np.array([1.0, -1.0]),
            variance_at_observations=np.array([1.0, 1.0]),
        )
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_population_value_with_oracle_truth(self):
        # With the true mean and variance plugged in, the standardized
        # residuals are exact standard normals, so the statistic estimates
        # the population excess fourth moment 2 (Monte Carlo se ~ 0.03).
        rng = np.random.default_rng(7)
        n = 100_000
        x = rng.normal(size=n) * 1.4
        noise = rng.standard_normal(n)
        mean = 0.1 + 0.3 * x
        sigma2 = 0.2 + 0.05 * x + 0.3 * x * x
        y = mean + np.sqrt(sigma2) * noise
        locations = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        from spatreg import SpatialDataset

        d = SpatialDataset(locations, x, y)
        value = v4_estimate(
            d,
            (-0.5, 0.5),
            0.5,
            0.5,
            residuals=y - mean,
            variance_at_observations=sigma2,
        )
        assert value == pytest.approx(2.0, abs=0.15)

    def test_empty_interval(self):
        d = make_dataset([-0.5, 0.5], [1.0, 2.0])
        with pytest.raises(EmptyIntervalError):
            v4_estimate(d, (5.0, 6.0), 0.5, 0.5)

    def test_all_below_variance_floor(self):
        d = make_dataset([-0.2, 0.2], [0.0, 0.0])
        with pytest.raises(DegenerateVarianceError):
            v4_estimate(
                d,
                (-1.0, 1.0),
                0.5,
                0.5,
                residuals=np.array([1.0, -1.0]),
                variance_at_observations=np.array([1e-12, 1e-12]),
            )

    def test_estimated_pipeline_matches_reference(self, rng):
        x = rng.normal(size=60)
        y = 0.5 * x + rng.normal(size=60)
        d = make_dataset(x, y)
        value = v4_estimate(d, (-1.0, 1.0), 0.6, 0.6)
        ref = reference.v4_ref(list(x), list(y), -1.0, 1.0, 0.6, 0.6)
        assert reference.matches(value, ref)


class TestOracleEquivalence:
    """Random instances against the naive double-loop references."""

    @pytest.mark.parametrize("instance", range(40))
    def test_all_estimators(self, instance):
        rng = np.random.default_rng(900 + instance)
        n = int(rng.integers(2, 51))
        x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        y = rng.normal(size=n) + 0.4 * x
        b = float(rng.uniform(0.2, 1.5))
        h = float(rng.uniform(0.2, 1.5))
        points = np.unique(rng.uniform(-2.5, 2.5, size=int(rng.integers(2, 8))))
        d = make_dataset(x, y)
        xs, ys = list(x), list(y)

        for got, ref in [
            (density_estimate(d, points, b).values, reference.density_ref(xs, points, b)),
            (nw_mean(d, points, b).values, reference.nw_ref(xs, ys, points, b)),
            (jackknife_mean(d, points, b).values, reference.jackknife_ref(xs, ys, points, b)),
            (
                variance_estimate(d, points, h, b).values,
                reference.variance_ref(xs, ys, points, h, b),
            ),
        ]:
            for value, expected in zip(got, ref):
                assert reference.matches(value, expected), (value, expected)

        lo, hi = float(np.quantile(x, 0.25)), float(np.quantile(x, 0.75))
        try:
            got_v4 = v4_estimate(d, (lo, hi), b, h)
        except (EmptyIntervalError, DegenerateVarianceError):
            got_v4 = None
        ref_v4 = reference.v4_ref(xs, ys, lo, hi, b, h)
        if got_v4 is None:
            assert ref_v4 is None
        else:
            assert reference.matches(got_v4, ref_v4)

    def test_residuals_match_reference(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        got = jackknife_residuals(make_dataset(x, y), 0.5)
        ref = reference.residuals_ref(list(x), list(y), 0.5)
        for value, expected in zip(got, ref):
            assert reference.matches(value, expected)
