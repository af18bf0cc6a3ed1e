"""Quantiles, score normalizations, and joint confidence bands."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import reference
from conftest import make_dataset
from spatreg import (
    DegenerateDensityError,
    NonpositiveV4Error,
    confidence_band,
    density_estimate,
    kernel_constants,
    max_abs_normal_quantile,
    normalize_density,
    normalize_mean,
    normalize_variance,
    nw_mean,
    variance_estimate,
)
from spatreg.dgp import DEFAULT_MA, DEFAULT_REGRESSION
from spatreg.inference import band_table
from spatreg.kernels import EPANECHNIKOV, Kernel

CONSTANTS = kernel_constants(EPANECHNIKOV)


class TestMaxAbsNormalQuantile:
    def test_single_point_05(self):
        assert max_abs_normal_quantile(1, 0.05) == pytest.approx(1.959964, abs=1e-6)

    def test_inverse_of_unit_tail(self):
        tau = 2.0 * (1.0 - norm.cdf(1.0))
        assert max_abs_normal_quantile(1, tau) == pytest.approx(1.0, abs=1e-9)

    def test_eleven_points_05(self):
        assert max_abs_normal_quantile(11, 0.05) == pytest.approx(2.830, abs=1e-3)

    def test_against_simulation(self):
        # Small-scale version of the full simulation agreement check.
        for n_points, tau in [(1, 0.05), (11, 0.15)]:
            simulated = reference.max_abs_normal_quantile_mc(
                n_points, tau, draws=400_000, seed=5
            )
            assert max_abs_normal_quantile(n_points, tau) == pytest.approx(
                simulated, abs=0.01
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            max_abs_normal_quantile(0, 0.05)
        with pytest.raises(ValueError):
            max_abs_normal_quantile(5, 0.0)
        with pytest.raises(ValueError):
            max_abs_normal_quantile(5, 1.0)

    def test_monotone_in_tau(self):
        taus = [0.01, 0.05, 0.15, 0.5, 0.9]
        values = [max_abs_normal_quantile(7, t) for t in taus]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_n(self):
        counts = [1, 2, 5, 11, 50]
        values = [max_abs_normal_quantile(n, 0.05) for n in counts]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestNormalizers:
    def test_density_scores_vanish_at_truth(self):
        d = make_dataset([-0.3, 0.0, 0.3], [1.0, 2.0, 3.0])
        points = np.array([-0.1, 0.0, 0.1])
        fhat = density_estimate(d, points, 1.0).values
        scores = normalize_density(d, points, 1.0, fhat, CONSTANTS)
        np.testing.assert_array_equal(scores.scores, 0.0)

    def test_density_unit_factors(self):
        # n * b equals the squared kernel norm, truth density is one, and the
        # dataset is arranged so the estimate exceeds the truth by exactly one.
        b = 0.3
        offset = 0.3 * math.sqrt(0.4)  # profile value 0.45 at this offset
        d = make_dataset([0.0, offset], [0.0, 0.0])
        est = density_estimate(d, [0.0], b).values[0]
        assert est == pytest.approx(2.0, abs=1e-12)
        scores = normalize_density(d, np.array([0.0]), b, np.array([1.0]), CONSTANTS)
        assert scores.scores[0] == pytest.approx(1.0, abs=1e-9)

    def test_mean_scores_vanish_at_truth(self):
        d = make_dataset([-0.3, 0.0, 0.3], [1.0, 2.0, 3.0])
        points = np.array([-0.1, 0.1])
        muhat = nw_mean(d, points, 1.0).values
        scores = normalize_mean(
            d, points, 1.0, muhat, np.ones(2), np.ones(2), CONSTANTS
        )
        np.testing.assert_array_equal(scores.scores, 0.0)

    def test_mean_unit_factors(self):
        # Constant response c with truth mean c - 0.5, unit truth density and
        # variance, and n * b = |K|^2 make the score exactly 0.5.
        b = 0.3
        d = make_dataset([-0.1, 0.1], [2.0, 2.0])
        scores = normalize_mean(
            d, np.array([0.0]), b, np.array([1.5]), np.ones(1), np.ones(1), CONSTANTS
        )
        assert scores.scores[0] == pytest.approx(0.5, abs=1e-12)

    def test_variance_v4_scaling(self, rng):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        d = make_dataset(x, y)
        points = np.array([-0.2, 0.2])
        truth_var = np.array([1.0, 1.0])
        truth_f = np.array([0.4, 0.4])
        one = normalize_variance(d, points, 0.5, 0.5, truth_var, truth_f, 1.0, CONSTANTS)
        two = normalize_variance(d, points, 0.5, 0.5, truth_var, truth_f, 2.0, CONSTANTS)
        np.testing.assert_allclose(two.scores, one.scores / math.sqrt(2.0), rtol=1e-12)

    def test_mean_scale_linearity(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        d = make_dataset(x, y)
        points = np.array([0.0])
        truth_f = np.array([0.5])
        base = normalize_mean(d, points, 0.6, np.zeros(1), np.ones(1), truth_f, CONSTANTS)
        shrunk = normalize_mean(
            d, points, 0.6, np.zeros(1), np.ones(1) / 4.0, truth_f, CONSTANTS
        )
        np.testing.assert_allclose(shrunk.scores, 2.0 * base.scores, rtol=1e-12)

    def test_positive_truth_required(self):
        d = make_dataset([-0.3, 0.3], [1.0, 2.0])
        with pytest.raises(ValueError, match="strictly positive"):
            normalize_density(d, np.array([0.0]), 1.0, np.array([0.0]), CONSTANTS)

    def test_nonpositive_v4_rejected(self):
        d = make_dataset([-0.3, 0.3], [1.0, 2.0])
        with pytest.raises(ValueError, match="excess_fourth_moment"):
            normalize_variance(
                d, np.array([0.0]), 1.0, 1.0, np.ones(1), np.ones(1), 0.0, CONSTANTS
            )

    def test_degenerate_point_raises_with_location(self):
        d = make_dataset([-0.3, 0.3], [1.0, 2.0])
        with pytest.raises(DegenerateDensityError) as err:
            normalize_mean(
                d, np.array([9.0]), 1.0, np.zeros(1), np.ones(1), np.ones(1), CONSTANTS
            )
        assert err.value.points == [9.0]


class TestLeadingBias:
    """reference.leading_bias against the exact bias of the smoothed truth."""

    @staticmethod
    def _smoothed_truth_bias(kind, coefficients, x, h, var_x):
        # int K((x-u)/h) g(u) f(u) du / int K((x-u)/h) f(u) du - g(x), with
        # g(x) moved inside the numerator so no O(1) terms cancel.
        def g(u):
            return math.fsum(c * u**k for k, c in enumerate(coefficients))

        def weight(u):
            return reference.kernel_scalar(kind, (x - u) / h) / h * math.exp(-u * u / (2.0 * var_x))

        options = dict(points=[x], epsabs=1e-13, epsrel=1e-10, limit=200)
        num, _ = integrate.quad(lambda u: weight(u) * (g(u) - g(x)), x - h, x + h, **options)
        den, _ = integrate.quad(weight, x - h, x + h, **options)
        return num / den

    @pytest.mark.parametrize("kind", ["epanechnikov", "uniform", "triangular"])
    @pytest.mark.parametrize("target", ["mean", "variance"])
    def test_matches_quadrature_at_small_bandwidth(self, kind, target):
        # The remainder is O(h^4), about 2e-5 h^2 at h = 0.05, against a
        # leading term of at least 6e-3 h^2 wherever it is nonzero.
        h = 0.05
        coefficients = getattr(DEFAULT_REGRESSION, target).coefficients
        c_k = kernel_constants(Kernel(kind)).c_k
        var_x = DEFAULT_MA.marginal_variance
        for x in (-0.5, -0.25, 0.0, 0.25, 0.5):
            exact = self._smoothed_truth_bias(kind, coefficients, x, h, var_x)
            leading = reference.leading_bias(coefficients, x, h, c_k, var_x)
            assert abs(exact - leading) <= 1e-4 * h * h, (x, exact, leading)


def _band_dataset(rng, n=300):
    x = rng.normal(size=n)
    y = 0.1 + 0.3 * x + rng.normal(size=n) * 0.5
    return make_dataset(x, y)


class TestConfidenceBand:
    def test_single_point_half_width_is_quantile_times_core(self, rng):
        d = _band_dataset(rng)
        band = confidence_band(d, [0.0], "mean", 0.5, 0.5, 0.05)
        assert band.q_tau == pytest.approx(1.959964, abs=1e-6)
        sigma2 = variance_estimate(d, [0.0], 0.5, 0.5).values[0]
        fhat = density_estimate(d, [0.0], 0.5).values[0]
        core = math.sqrt(sigma2) * math.sqrt(CONSTANTS.l2_norm_sq) / math.sqrt(fhat)
        expected = core * band.q_tau / math.sqrt(d.n * 0.5)
        assert band.half_widths[0] == pytest.approx(expected, rel=1e-12)

    def test_width_vanishes_as_tau_approaches_one(self, rng):
        d = _band_dataset(rng)
        wide = confidence_band(d, [0.0], "mean", 0.5, 0.5, 0.05)
        narrow = confidence_band(d, [0.0], "mean", 0.5, 0.5, 0.9999)
        assert narrow.half_widths[0] < 1e-3 * wide.half_widths[0]

    def test_monotone_in_tau(self, rng):
        d = _band_dataset(rng)
        points = np.linspace(-0.5, 0.5, 11)
        tight = confidence_band(d, points, "mean", 0.5, 0.5, 0.15)
        loose = confidence_band(d, points, "mean", 0.5, 0.5, 0.05)
        assert loose.q_tau > tight.q_tau
        assert (loose.half_widths > tight.half_widths).all()

    @pytest.mark.parametrize("target", ["density", "mean", "variance"])
    def test_targets_build(self, rng, target):
        d = _band_dataset(rng)
        points = np.linspace(-0.5, 0.5, 11)
        band = confidence_band(d, points, target, 0.5, 0.5, 0.05)
        assert band.target == target
        assert (band.half_widths >= 0).all()
        assert np.isfinite(band.centers).all()
        np.testing.assert_array_equal(band.lower, band.centers - band.half_widths)
        np.testing.assert_array_equal(band.upper, band.centers + band.half_widths)

    def test_band_score_duality(self, rng):
        # Containment at every point is equivalent to every plug-in
        # normalized score staying at or below the quantile.
        d = _band_dataset(rng)
        points = np.linspace(-0.4, 0.4, 5)
        band = confidence_band(d, points, "mean", 0.5, 0.5, 0.05)
        for wiggle in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0):
            truth = band.centers + wiggle * band.half_widths
            scores = band.q_tau * np.abs(truth - band.centers) / band.half_widths
            assert band.contains(truth) == bool((scores <= band.q_tau).all())

    def test_rate_bandwidth_convention(self, rng):
        d = _band_dataset(rng)
        points = np.linspace(-0.3, 0.3, 5)
        own = confidence_band(d, points, "mean", 0.8, 0.2, 0.05)
        shared = confidence_band(
            d, points, "mean", 0.8, 0.2, 0.05, shared_rate_bandwidth=True
        )
        assert own.rate_bandwidth == 0.8
        assert shared.rate_bandwidth == 0.2
        np.testing.assert_allclose(
            shared.half_widths, own.half_widths * math.sqrt(0.8 / 0.2), rtol=1e-12
        )

    def test_degenerate_point_aborts_with_location(self, rng):
        d = _band_dataset(rng)
        with pytest.raises(DegenerateDensityError) as err:
            confidence_band(d, [0.0, 25.0], "mean", 0.5, 0.5, 0.05)
        assert 25.0 in err.value.points

    def test_nonpositive_v4_aborts_variance_band(self):
        # Two observations at the same covariate with opposite responses give
        # standardized residuals of exactly +-1, so the trimmed excess fourth
        # moment is exactly zero.
        d = make_dataset([0.0, 0.0], [1.0, -1.0])
        with pytest.raises(NonpositiveV4Error):
            confidence_band(d, [-0.1, 0.0, 0.1], "variance", 1.0, 1.0, 0.05)

    def test_csv_writer_columns(self, rng):
        d = _band_dataset(rng)
        band = confidence_band(d, np.linspace(-0.5, 0.5, 11), "mean", 0.5, 0.5, 0.05)
        columns, rows = band_table(band)
        assert columns == ["x", "center", "lo", "hi", "target", "tau", "q_tau", "bandwidth"]
        assert len(rows) == 11
        first = rows[0]
        assert first[2] <= first[1] <= first[3]
