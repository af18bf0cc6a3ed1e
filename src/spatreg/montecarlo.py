"""Seeded replication experiments over the synthetic spatial sample.

Three experiments: distributions of limit-law normalized scores, joint
coverage of the confidence bands, and sup-loss curves across a bandwidth
grid. Replication r always runs on the generator seeded by
[base_seed, r], so serial and parallel executions agree bit for bit, and
aggregation uses exact summation in replication order so the worker count
cannot change any output value.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr

from .bandwidth import BandwidthGrid, adjacent_distances
from .dgp import (
    DEFAULT_MA,
    DEFAULT_REGRESSION,
    LatticeConfig,
    MaCoefficients,
    Polynomial,
    RegressionSpec,
    simulate_dataset,
)
from .errors import AllDegenerateError, DegenerateDensityError, NonpositiveV4Error
from .estimators import jackknife_mean, jackknife_residuals, nw_mean, variance_estimate
from .inference import confidence_band, normalize_mean, normalize_variance
from .kernels import kernel_by_name, kernel_constants

__all__ = [
    "McConfig",
    "McSummary",
    "ScoreSummary",
    "ks_normal_statistic",
    "truth_functions",
    "run_clt_experiment",
    "run_coverage_experiment",
    "run_loss_curves",
    "scores_table",
    "coverage_table",
    "losses_table",
    "summary_json_dict",
]

SCORE_TARGETS = ("mean", "variance")
LOSS_TARGETS = ("mean", "jackknife_mean", "variance")


@dataclass(frozen=True)
class McConfig:
    """Everything a replication experiment needs, in picklable form.

    design_points and tau_list are stored as tuples so the config stays
    hashable and JSON-serializable; lattice defaults to a side = n lattice
    when left as None.
    """

    replications: int
    n: int = 750
    b: float = 0.5
    h: float = 0.5
    design_points: tuple[float, ...] = (-0.25, 0.0, 0.25)
    tau_list: tuple[float, ...] = (0.05,)
    base_seed: int = 0
    lattice: LatticeConfig | None = None
    ma: MaCoefficients = DEFAULT_MA
    regression: RegressionSpec = DEFAULT_REGRESSION
    kernel: str = "epanechnikov"

    def __post_init__(self):
        object.__setattr__(self, "design_points", tuple(float(p) for p in self.design_points))
        object.__setattr__(self, "tau_list", tuple(float(t) for t in self.tau_list))
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not all(0.0 < t < 1.0 for t in self.tau_list):
            raise ValueError("every tau must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(self.design_points, self.design_points[1:])):
            raise ValueError("design points must be strictly increasing")

    def lattice_config(self) -> LatticeConfig:
        return self.lattice if self.lattice is not None else LatticeConfig(side=self.n)

    def replication_seed(self, r: int) -> list[int]:
        return [self.base_seed, r]

    def as_dict(self) -> dict:
        lattice = self.lattice_config()
        return {
            "replications": self.replications,
            "n": self.n,
            "b": self.b,
            "h": self.h,
            "design_points": list(self.design_points),
            "tau_list": list(self.tau_list),
            "base_seed": self.base_seed,
            "lattice": {
                "side": lattice.side,
                "spacing": lattice.spacing,
                "u0": lattice.u0,
                "v0": lattice.v0,
            },
            "ma": [list(row) for row in self.ma.rows],
            "regression": {
                "mean": list(self.regression.mean.coefficients),
                "variance": list(self.regression.variance.coefficients),
                "noise": self.regression.noise,
            },
            "kernel": self.kernel,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "McConfig":
        lat = payload["lattice"]
        reg = payload["regression"]
        return cls(
            replications=int(payload["replications"]),
            n=int(payload["n"]),
            b=float(payload["b"]),
            h=float(payload["h"]),
            design_points=tuple(payload["design_points"]),
            tau_list=tuple(payload["tau_list"]),
            base_seed=int(payload["base_seed"]),
            lattice=LatticeConfig(
                side=int(lat["side"]),
                spacing=float(lat["spacing"]),
                u0=float(lat["u0"]),
                v0=float(lat["v0"]),
            ),
            ma=MaCoefficients(tuple(tuple(float(c) for c in row) for row in payload["ma"])),
            regression=RegressionSpec(
                mean=Polynomial(tuple(float(c) for c in reg["mean"])),
                variance=Polynomial(tuple(float(c) for c in reg["variance"])),
                noise=reg["noise"],
            ),
            kernel=payload["kernel"],
        )


def truth_functions(config: McConfig):
    """Analytic truths implied by the generating process.

    The covariate field is a fixed linear combination of standard normals,
    so its marginal is exactly normal with variance equal to the stencil's
    squared mass; standard normal noise pins the excess fourth moment at 2.
    Returns (density, mean, variance, excess_fourth_moment, provenance).
    """
    var_x = config.ma.marginal_variance

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x**2) / (2.0 * var_x)) / math.sqrt(2.0 * math.pi * var_x)

    if config.regression.noise != "std_normal":
        raise ValueError(f"no analytic fourth moment for noise {config.regression.noise!r}")
    provenance = (
        f"analytic: normal covariate marginal with variance {var_x:.6g}; "
        "standard normal noise, excess fourth moment 2"
    )
    return density, config.regression.mean, config.regression.variance, 2.0, provenance


@dataclass(frozen=True)
class ScoreSummary:
    """Per-design-point summary of normalized scores across replications."""

    design_point: float
    mean: float
    sd: float
    ks_statistic: float
    count: int


@dataclass
class McSummary:
    """Result of one replication experiment; unused sections stay None."""

    kind: str
    config: dict
    replications_used: int
    degeneracies: int
    truth_provenance: str
    score_stats: dict[str, list[ScoreSummary]] | None = None
    scores: dict[str, np.ndarray] | None = None
    score_replications: list[int] | None = None
    coverage: dict[str, dict[float, dict[str, float]]] | None = None
    loss_bandwidths: np.ndarray | None = None
    losses: dict[str, np.ndarray] | None = None
    adjacent: dict[str, np.ndarray] | None = None
    loss_replications: list[int] | None = None
    notes: tuple[str, ...] = ()


def ks_normal_statistic(sample) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal CDF.

    No parameters are estimated from the sample (the limit law is pinned),
    so no small-sample CDF correction applies.
    """
    z = np.sort(np.asarray(sample, dtype=float))
    if z.size == 0:
        raise ValueError("need at least one score")
    n = z.size
    cdf = ndtr(z)
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))


def _exact_mean_sd(values: np.ndarray) -> tuple[float, float]:
    # math.fsum keeps aggregation independent of accumulation order.
    n = values.size
    mean = math.fsum(values) / n
    if n < 2:
        return mean, float("nan")
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def _map_replications(worker, config: McConfig, workers: int):
    reps = range(config.replications)
    workers = min(workers, config.replications, os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, config.replications // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, reps, chunksize=chunk))
    return [worker(r) for r in reps]


def _replication_dataset(config: McConfig, r: int):
    return simulate_dataset(
        config.n,
        seed=config.replication_seed(r),
        lattice=config.lattice_config(),
        coefficients=config.ma,
        regression=config.regression,
    )


def _clt_replication(config: McConfig, r: int) -> dict:
    dataset = _replication_dataset(config, r)
    kernel = kernel_by_name(config.kernel)
    constants = kernel_constants(kernel)
    density, mean_fn, variance_fn, v4, _ = truth_functions(config)
    xs = np.asarray(config.design_points)
    try:
        mean_scores = normalize_mean(
            dataset, xs, config.b, mean_fn(xs), variance_fn(xs), density(xs), constants, kernel
        ).scores
        variance_scores = normalize_variance(
            dataset, xs, config.h, config.b, variance_fn(xs), density(xs), v4, constants, kernel
        ).scores
    except DegenerateDensityError as exc:
        return {"replication": r, "error": str(exc)}
    return {"replication": r, "mean": mean_scores, "variance": variance_scores}


def run_clt_experiment(config: McConfig, workers: int = 1) -> McSummary:
    """Normalized-score distributions of the mean and variance estimators.

    Per replication the scores are computed against the analytic truths;
    the summary reports mean, sample sd, and the KS distance to the
    standard normal per design point. Degenerate replications are excluded
    from the statistics but counted, never silently dropped.
    """
    payloads = _map_replications(partial(_clt_replication, config), config, workers)
    good = [p for p in payloads if "error" not in p]
    n_points = len(config.design_points)
    scores = {
        target: np.asarray([p[target] for p in good]).reshape(len(good), n_points)
        for target in SCORE_TARGETS
    }
    _, _, _, _, provenance = truth_functions(config)
    stats: dict[str, list[ScoreSummary]] = {}
    for target in SCORE_TARGETS:
        per_point = []
        for j, point in enumerate(config.design_points):
            column = scores[target][:, j] if good else np.empty(0)
            mean, sd = _exact_mean_sd(column) if column.size else (float("nan"),) * 2
            ks = ks_normal_statistic(column) if column.size else float("nan")
            per_point.append(ScoreSummary(point, mean, sd, ks, column.size))
        stats[target] = per_point
    return McSummary(
        kind="clt",
        config=config.as_dict(),
        replications_used=len(good),
        degeneracies=len(payloads) - len(good),
        truth_provenance=provenance,
        score_stats=stats,
        scores=scores,
        score_replications=[p["replication"] for p in good],
    )


def _coverage_replication(config: McConfig, r: int) -> dict:
    dataset = _replication_dataset(config, r)
    kernel = kernel_by_name(config.kernel)
    density, mean_fn, variance_fn, _, _ = truth_functions(config)
    xs = np.asarray(config.design_points)
    truths = {"mean": mean_fn(xs), "variance": variance_fn(xs)}
    cells = {}
    for tau in config.tau_list:
        for target in SCORE_TARGETS:
            try:
                band = confidence_band(dataset, xs, target, config.b, config.h, tau, kernel)
                cells[(target, tau)] = bool(band.contains(truths[target]))
            except (DegenerateDensityError, NonpositiveV4Error):
                cells[(target, tau)] = None
    return {"replication": r, "cells": cells}


def run_coverage_experiment(config: McConfig, workers: int = 1) -> McSummary:
    """Joint coverage rates of the mean and variance bands per tau.

    A replication covers when the true curve lies inside the band at every
    design point simultaneously; band failures (degenerate points,
    non-positive fourth moment) are excluded from the denominator and
    reported as failures.
    """
    payloads = _map_replications(partial(_coverage_replication, config), config, workers)
    coverage: dict[str, dict[float, dict[str, float]]] = {}
    degeneracies = 0
    for target in SCORE_TARGETS:
        coverage[target] = {}
        for tau in config.tau_list:
            outcomes = [p["cells"][(target, tau)] for p in payloads]
            valid = [o for o in outcomes if o is not None]
            failures = len(outcomes) - len(valid)
            degeneracies += failures
            covered = sum(valid)
            coverage[target][tau] = {
                "covered": covered,
                "total": len(valid),
                "rate": covered / len(valid) if valid else float("nan"),
                "failures": failures,
            }
    _, _, _, _, provenance = truth_functions(config)
    return McSummary(
        kind="coverage",
        config=config.as_dict(),
        replications_used=config.replications,
        degeneracies=degeneracies,
        truth_provenance=provenance,
        coverage=coverage,
        notes=(
            "joint coverage estimated by replication frequency; "
            "each band is built from a fresh seeded draw",
        ),
    )


def _sup_loss(values: np.ndarray, truth: np.ndarray) -> float:
    err = np.abs(values - truth)
    finite = np.isfinite(err)
    if not finite.any():
        return float("nan")
    return float(err[finite].max())


def _loss_replication(config: McConfig, grid: BandwidthGrid, r: int) -> dict:
    dataset = _replication_dataset(config, r)
    kernel = kernel_by_name(config.kernel)
    density, mean_fn, variance_fn, _, _ = truth_functions(config)
    xs = np.asarray(config.design_points)
    truths = {
        "mean": mean_fn(xs),
        "jackknife_mean": mean_fn(xs),
        "variance": variance_fn(xs),
    }
    # Residuals for the variance sweep stay fixed at the configured mean
    # bandwidth; only the outer smoothing bandwidth walks the grid.
    residuals = jackknife_residuals(dataset, config.b, kernel)
    curves = {target: [] for target in LOSS_TARGETS}
    for bw in grid.values:
        curves["mean"].append(nw_mean(dataset, xs, bw, kernel))
        curves["jackknife_mean"].append(jackknife_mean(dataset, xs, bw, kernel))
        curves["variance"].append(
            variance_estimate(dataset, xs, bw, config.b, kernel, residuals=residuals)
        )
    losses = {
        target: np.asarray([_sup_loss(c.values, truths[target]) for c in curves[target]])
        for target in LOSS_TARGETS
    }
    adjacent = {}
    for target in LOSS_TARGETS:
        try:
            adjacent[target] = adjacent_distances(curves[target])
        except AllDegenerateError:
            adjacent[target] = np.full(grid.count - 1, np.nan)
    return {"replication": r, "losses": losses, "adjacent": adjacent}


def run_loss_curves(config: McConfig, grid: BandwidthGrid, workers: int = 1) -> McSummary:
    """Sup-loss of the mean, bias-corrected mean, and variance estimators
    across the bandwidth grid, one curve per replication, plus the adjacent
    sup-distances between consecutive curves."""
    payloads = _map_replications(partial(_loss_replication, config, grid), config, workers)
    losses = {
        target: np.asarray([p["losses"][target] for p in payloads])
        for target in LOSS_TARGETS
    }
    adjacent = {
        target: np.asarray([p["adjacent"][target] for p in payloads])
        for target in LOSS_TARGETS
    }
    degeneracies = int(
        sum(np.isnan(losses[target]).sum() for target in LOSS_TARGETS)
    )
    _, _, _, _, provenance = truth_functions(config)
    return McSummary(
        kind="loss_curves",
        config=config.as_dict(),
        replications_used=config.replications,
        degeneracies=degeneracies,
        truth_provenance=provenance,
        loss_bandwidths=grid.values,
        losses=losses,
        adjacent=adjacent,
        loss_replications=[p["replication"] for p in payloads],
    )


def scores_table(summary: McSummary) -> tuple[list[str], list[list]]:
    """Column names and rows of the scores table: replication, design_point, target, score."""
    points = summary.config["design_points"]
    rows = [
        [r, point, target, float(score)]
        for target in SCORE_TARGETS
        for block_row, r in zip(summary.scores[target], summary.score_replications)
        for point, score in zip(points, block_row)
    ]
    return ["replication", "design_point", "target", "score"], rows


def coverage_table(summary: McSummary) -> tuple[list[str], list[list]]:
    """Column names and rows of the coverage table: target, tau, covered, total, failures, rate."""
    rows = [
        [target, tau, cell["covered"], cell["total"], cell["failures"], cell["rate"]]
        for target, per_tau in summary.coverage.items()
        for tau, cell in per_tau.items()
    ]
    return ["target", "tau", "covered", "total", "failures", "rate"], rows


def losses_table(summary: McSummary) -> tuple[list[str], list[list]]:
    """Column names and rows of the losses table:
    replication, target, bandwidth, sup_loss, adjacent_distance.

    The adjacent distance refers to the step from the previous grid
    bandwidth and is None on the first grid entry.
    """
    rows = []
    for target in LOSS_TARGETS:
        for i, r in enumerate(summary.loss_replications):
            for l, bw in enumerate(summary.loss_bandwidths):
                adjacent = None if l == 0 else float(summary.adjacent[target][i, l - 1])
                rows.append([r, target, float(bw), float(summary.losses[target][i, l]), adjacent])
    return ["replication", "target", "bandwidth", "sup_loss", "adjacent_distance"], rows


def summary_json_dict(summary: McSummary) -> dict:
    """JSON view: config echo, statistics, degeneracy counts, notes.

    Undefined statistics stay NaN here; the file writer stores them as null.
    """
    payload = {
        "kind": summary.kind,
        "config": summary.config,
        "replications_used": summary.replications_used,
        "degeneracies": summary.degeneracies,
        "truth_provenance": summary.truth_provenance,
        "notes": list(summary.notes),
    }
    if summary.score_stats is not None:
        payload["score_stats"] = {
            target: [
                {
                    "design_point": s.design_point,
                    "mean": s.mean,
                    "sd": s.sd,
                    "ks_statistic": s.ks_statistic,
                    "count": s.count,
                }
                for s in stats
            ]
            for target, stats in summary.score_stats.items()
        }
    if summary.coverage is not None:
        payload["coverage"] = {
            target: {repr(tau): cell for tau, cell in per_tau.items()}
            for target, per_tau in summary.coverage.items()
        }
    if summary.losses is not None:
        payload["loss_bandwidths"] = [float(b) for b in summary.loss_bandwidths]
        mean_losses = {}
        for target in LOSS_TARGETS:
            block = summary.losses[target]
            columns = []
            for j in range(block.shape[1]):
                col = block[:, j]
                finite = col[np.isfinite(col)]
                columns.append(float(finite.mean()) if finite.size else None)
            mean_losses[target] = columns
        payload["mean_sup_loss"] = mean_losses
    return payload
