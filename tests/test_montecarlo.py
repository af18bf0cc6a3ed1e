"""Replication harness: determinism, score aggregation, coverage, losses."""

import numpy as np
import pytest
from scipy import stats

from spatreg import (
    BandwidthGrid,
    McConfig,
    ks_normal_statistic,
    max_abs_normal_quantile,
    run_clt_experiment,
    run_coverage_experiment,
    run_loss_curves,
)
from spatreg import montecarlo
from spatreg.dgp import Polynomial, RegressionSpec
from spatreg.montecarlo import (
    coverage_table,
    losses_table,
    scores_table,
    summary_json_dict,
    truth_functions,
)

SMALL = McConfig(replications=6, n=150, base_seed=77)


class TestKsStatistic:
    def test_exact_normal_draws_below_critical_value(self):
        # 5% critical value for n = 250 is 1.36 / sqrt(250) ~ 0.086.
        sample = np.random.default_rng(123).standard_normal(250)
        assert ks_normal_statistic(sample) < 0.086

    def test_agrees_with_scipy(self, rng):
        for size in (10, 101, 500):
            sample = rng.normal(size=size) * 1.3 + 0.2
            mine = ks_normal_statistic(sample)
            theirs = stats.kstest(sample, "norm").statistic
            assert mine == pytest.approx(theirs, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_normal_statistic([])

    def test_shifted_sample_has_large_statistic(self, rng):
        sample = rng.normal(size=400) + 3.0
        assert ks_normal_statistic(sample) > 0.8


class TestTruthFunctions:
    def test_default_truths(self):
        density, mean_fn, variance_fn, v4, provenance = truth_functions(SMALL)
        xs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(
            density(xs), stats.norm.pdf(xs, scale=np.sqrt(1.96)), rtol=1e-12
        )
        np.testing.assert_allclose(mean_fn(xs), 0.1 + 0.3 * xs, rtol=1e-12)
        np.testing.assert_allclose(
            variance_fn(xs), 0.2 + 0.05 * xs + 0.3 * xs**2, rtol=1e-12
        )
        assert v4 == 2.0
        assert "analytic" in provenance


class TestCltExperiment:
    def test_shapes_and_reproducibility(self):
        first = run_clt_experiment(SMALL)
        second = run_clt_experiment(SMALL)
        assert first.replications_used == 6
        assert first.degeneracies == 0
        for target in ("mean", "variance"):
            assert first.scores[target].shape == (6, 3)
            np.testing.assert_array_equal(first.scores[target], second.scores[target])
            assert first.score_stats[target] == second.score_stats[target]

    def test_worker_count_invariance(self):
        serial = run_clt_experiment(SMALL, workers=1)
        parallel = run_clt_experiment(SMALL, workers=3)
        for target in ("mean", "variance"):
            np.testing.assert_array_equal(
                serial.scores[target], parallel.scores[target]
            )
        assert serial.score_stats == parallel.score_stats

    def test_noise_free_linear_mean_error_is_smoothing_only(self):
        # Noise-free affine response: the mean estimator's error is pure
        # smoothing error and stays small in absolute terms. (The score
        # normalization itself divides by sigma and so requires positive
        # noise; the noise-free check therefore runs on raw sup-loss.)
        config = McConfig(
            replications=3,
            n=1200,
            base_seed=5,
            design_points=tuple(np.linspace(-0.5, 0.5, 11)),
            regression=RegressionSpec(variance=Polynomial((0.0,))),
        )
        summary = run_loss_curves(config, BandwidthGrid(0.5, 2))
        assert np.nanmax(summary.losses["mean"]) < 0.05
        assert np.nanmax(summary.losses["jackknife_mean"]) < 0.05

    def test_summary_json_round(self):
        summary = run_clt_experiment(SMALL)
        payload = summary_json_dict(summary)
        assert payload["kind"] == "clt"
        assert payload["config"]["n"] == 150
        assert len(payload["score_stats"]["mean"]) == 3

    def test_scores_csv(self):
        summary = run_clt_experiment(SMALL)
        columns, rows = scores_table(summary)
        assert columns == ["replication", "design_point", "target", "score"]
        assert len(rows) == 6 * 3 * 2
        assert rows[0] == [0, -0.25, "mean", float(summary.scores["mean"][0, 0])]


class TestCoverageExperiment:
    def test_small_run_counts(self):
        config = McConfig(
            replications=10, n=200, tau_list=(0.05, 0.2), base_seed=3,
            design_points=tuple(np.linspace(-0.5, 0.5, 11)),
        )
        summary = run_coverage_experiment(config)
        for target in ("mean", "variance"):
            for tau in (0.05, 0.2):
                cell = summary.coverage[target][tau]
                assert cell["covered"] + (cell["total"] - cell["covered"]) == cell["total"]
                assert cell["total"] + cell["failures"] == 10

    def test_extreme_tau_kills_coverage(self):
        config = McConfig(
            replications=20, n=300, tau_list=(0.9999,), base_seed=9,
            design_points=tuple(np.linspace(-0.5, 0.5, 11)),
        )
        summary = run_coverage_experiment(config)
        assert summary.coverage["mean"][0.9999]["rate"] <= 0.1

    def test_worker_count_invariance(self):
        config = McConfig(
            replications=8, n=150, base_seed=1,
            design_points=tuple(np.linspace(-0.4, 0.4, 5)),
        )
        serial = run_coverage_experiment(config, workers=1)
        parallel = run_coverage_experiment(config, workers=2)
        assert serial.coverage == parallel.coverage

    def test_max_quantile_calibration(self, rng):
        # Harness self-test: exact standard normal scores against the
        # closed-form quantile reproduce the nominal joint level.
        n_points, tau, reps = 5, 0.1, 4000
        q = max_abs_normal_quantile(n_points, tau)
        draws = rng.standard_normal((reps, n_points))
        frac = float(np.mean(np.abs(draws).max(axis=1) <= q))
        assert frac == pytest.approx(1.0 - tau, abs=0.02)

    def test_coverage_matches_band_score_duality(self):
        # Recompute each replication's containment through the plug-in score
        # route and compare with the harness's band-containment route.
        from spatreg import confidence_band, simulate_dataset

        config = McConfig(
            replications=6, n=200, base_seed=31,
            design_points=tuple(np.linspace(-0.4, 0.4, 7)),
        )
        summary = run_coverage_experiment(config)
        density, mean_fn, variance_fn, _, _ = truth_functions(config)
        xs = np.asarray(config.design_points)
        covered = 0
        for r in range(config.replications):
            dataset = simulate_dataset(
                config.n, seed=config.replication_seed(r),
                lattice=config.lattice_config(),
            )
            band = confidence_band(dataset, xs, "mean", config.b, config.h, 0.05)
            scores = band.q_tau * np.abs(mean_fn(xs) - band.centers) / band.half_widths
            covered += bool((scores <= band.q_tau).all())
        assert summary.coverage["mean"][0.05]["covered"] == covered

    def test_coverage_csv(self):
        config = McConfig(replications=4, n=150, base_seed=2)
        summary = run_coverage_experiment(config)
        columns, rows = coverage_table(summary)
        assert columns == ["target", "tau", "covered", "total", "failures", "rate"]
        assert [row[:2] for row in rows] == [["mean", 0.05], ["variance", 0.05]]


class TestLossCurves:
    def test_noise_free_constant_mean_losses_vanish(self):
        config = McConfig(
            replications=2,
            n=120,
            base_seed=4,
            design_points=tuple(np.linspace(-0.5, 0.5, 11)),
            regression=RegressionSpec(
                mean=Polynomial((0.1,)), variance=Polynomial((0.0,))
            ),
        )
        summary = run_loss_curves(config, BandwidthGrid(1.0, 5))
        for target in ("mean", "jackknife_mean", "variance"):
            assert np.nanmax(summary.losses[target]) < 1e-12

    def test_noisy_losses_positive(self):
        summary = run_loss_curves(SMALL, BandwidthGrid(1.0, 5))
        for target in ("mean", "jackknife_mean", "variance"):
            finite = summary.losses[target][np.isfinite(summary.losses[target])]
            assert (finite > 0).all()

    def test_shapes_and_determinism(self):
        grid = BandwidthGrid(1.0, 6)
        first = run_loss_curves(SMALL, grid)
        second = run_loss_curves(SMALL, grid, workers=2)
        for target in ("mean", "jackknife_mean", "variance"):
            assert first.losses[target].shape == (6, 6)
            assert first.adjacent[target].shape == (6, 5)
            np.testing.assert_array_equal(first.losses[target], second.losses[target])
            np.testing.assert_array_equal(
                first.adjacent[target], second.adjacent[target]
            )

    def test_losses_csv(self):
        grid = BandwidthGrid(1.0, 4)
        summary = run_loss_curves(SMALL, grid)
        columns, rows = losses_table(summary)
        assert columns == ["replication", "target", "bandwidth", "sup_loss", "adjacent_distance"]
        assert len(rows) == 3 * 6 * 4
        # The first grid entry has no previous bandwidth to step from.
        assert [row[4] is None for row in rows[:4]] == [True, False, False, False]


class TestWorkerCap:
    """The pool never gets more workers than replications or CPUs."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        return sizes

    @pytest.mark.parametrize(
        "workers, replications, expected",
        [(64, 3, [3]), (64, 20, [4]), (3, 20, [3]), (1, 20, []), (64, 1, [])],
    )
    def test_pool_size(self, pool_sizes, workers, replications, expected):
        config = McConfig(replications=replications)
        squares = montecarlo._map_replications(lambda r: r * r, config, workers)
        assert squares == [r * r for r in range(replications)]
        assert pool_sizes == expected

    def test_capped_run_matches_serial(self, pool_sizes):
        serial = run_clt_experiment(SMALL, workers=1)
        capped = run_clt_experiment(SMALL, workers=64)
        assert pool_sizes == [4]
        for target in ("mean", "variance"):
            np.testing.assert_array_equal(serial.scores[target], capped.scores[target])


class TestConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(ValueError):
            McConfig(replications=2, tau_list=(1.5,))

    def test_bad_points(self):
        with pytest.raises(ValueError):
            McConfig(replications=2, design_points=(0.5, 0.5))

    def test_round_trip_dict(self):
        config = McConfig(replications=3, n=99, base_seed=17)
        back = McConfig.from_dict(config.as_dict())
        assert back.as_dict() == config.as_dict()
