"""Nonparametric estimation and inference for heteroscedastic spatial regression.

The package covers the full desk-scale workflow: simulate irregularly
sampled spatial data with a moving-average covariate field, estimate the
covariate density and the conditional mean and variance functions by kernel
smoothing (with a bias-corrected mean combination), normalize estimation
errors by their limit-law scales, build joint confidence bands calibrated by
the maximum of independent normals, select bandwidths from adjacent-curve
distances, and verify the whole stack with seeded replication experiments.
"""

from .bandwidth import (
    BandwidthGrid,
    SelectionTrace,
    TwoStageSelection,
    adjacent_distances,
    select_bandwidth,
    select_two_stage,
)
from .data import (
    CurveEstimate,
    SpatialDataset,
    read_dataset_csv,
    write_dataset_csv,
)
from .dgp import (
    DeiMetrics,
    LatticeConfig,
    MaCoefficients,
    Polynomial,
    RegressionSpec,
    dei_metrics,
    gen_regression,
    sample_locations,
    simulate_dataset,
    spatial_ma,
)
from .errors import (
    AllDegenerateError,
    DatasetFormatError,
    DegenerateDensityError,
    DegenerateVarianceError,
    DuplicateLocationError,
    EmptyIntervalError,
    NegativeVarianceError,
    NonpositiveV4Error,
    SpatregError,
    TooManySitesError,
)
from .estimators import (
    density_estimate,
    jackknife_mean,
    jackknife_residuals,
    nw_mean,
    v4_estimate,
    variance_estimate,
)
from .inference import (
    ConfidenceBand,
    NormalizedScores,
    confidence_band,
    max_abs_normal_quantile,
    normalize_density,
    normalize_mean,
    normalize_variance,
)
from .kernels import (
    EPANECHNIKOV,
    TRIANGULAR,
    UNIFORM,
    Kernel,
    KernelConstants,
    eval_kernel,
    kernel_by_name,
    kernel_constants,
)
from .montecarlo import (
    McConfig,
    McSummary,
    ks_normal_statistic,
    run_clt_experiment,
    run_coverage_experiment,
    run_loss_curves,
)

__version__ = "0.1.0"
