"""Property tests: the estimators under transformations of the sample.

Each property draws small samples with hypothesis. The search is
derandomized and short, so every run checks the same few dozen examples and
the module stays within a few seconds. Where a transformation changes the
order or the rounding of a sum, values are compared to a relative 1e-12 of
the magnitudes involved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import make_dataset
from spatreg import (
    density_estimate,
    jackknife_mean,
    jackknife_residuals,
    nw_mean,
    variance_estimate,
)
from spatreg.kernels import EPANECHNIKOV, TRIANGULAR, UNIFORM, eval_kernel

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
RTOL = 1e-12

kernels = st.sampled_from([EPANECHNIKOV, UNIFORM, TRIANGULAR])
bandwidths = st.floats(0.1, 2.0)
values = st.floats(-3.0, 3.0, allow_nan=False)
design_points = st.lists(st.floats(-3.5, 3.5), min_size=1, max_size=6, unique=True).map(sorted)


@st.composite
def samples(draw, min_n=2, max_n=25):
    n = draw(st.integers(min_n, max_n))
    x = np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    y = np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    return x, y


def _curves(x, y, points, b, kernel):
    """Every curve estimator plus the residuals, on one sample."""
    d = make_dataset(x, y)
    return {
        "density": density_estimate(d, points, b, kernel).values,
        "mean": nw_mean(d, points, b, kernel).values,
        "jackknife": jackknife_mean(d, points, b, kernel).values,
        "variance": variance_estimate(d, points, b, b, kernel).values,
        "residuals": jackknife_residuals(d, b, kernel),
    }


@PROPERTY
@given(samples(), design_points, bandwidths, kernels, st.randoms(use_true_random=False))
def test_permutation_invariance(sample, points, b, kernel, random):
    x, y = sample
    order = list(range(x.size))
    random.shuffle(order)
    base = _curves(x, y, points, b, kernel)
    permuted = _curves(x[order], y[order], points, b, kernel)
    base["residuals"] = base["residuals"][order]
    scale = 1.0 + np.abs(y).max()
    for name, got in permuted.items():
        atol = RTOL * (scale**2 if name == "variance" else scale)
        np.testing.assert_allclose(got, base[name], rtol=RTOL, atol=atol, err_msg=name)


@PROPERTY
@given(
    st.integers(3, 20).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-192, 192), min_size=n, max_size=n),
            st.lists(values, min_size=n, max_size=n),
        )
    ),
    st.lists(st.integers(-224, 224), min_size=1, max_size=6, unique=True).map(sorted),
    st.integers(-256, 256),
    bandwidths,
    kernels,
)
def test_joint_shift_equivariance(sample, grid, shift, b, kernel):
    # Covariates, points and shift are multiples of 1/64, so p - x is the
    # same float before and after the shift and the estimates agree exactly.
    x = np.asarray(sample[0]) / 64.0
    y = np.asarray(sample[1])
    points = np.asarray(grid) / 64.0
    base = _curves(x, y, points, b, kernel)
    shifted = _curves(x + shift / 64.0, y, points + shift / 64.0, b, kernel)
    for name, got in shifted.items():
        np.testing.assert_array_equal(got, base[name], err_msg=name)


@PROPERTY
@given(
    samples(),
    design_points,
    bandwidths,
    kernels,
    st.floats(-5.0, 5.0),
    st.floats(0.1, 5.0),
    st.booleans(),
)
def test_affine_response(sample, points, b, kernel, a, c, negate):
    # Mean of a + c y is a + c m; variance of a + c y is c^2 s2.
    x, y = sample
    c = -c if negate else c
    base = _curves(x, y, points, b, kernel)
    mapped = _curves(x, a + c * y, points, b, kernel)
    scale = abs(a) + abs(c) * (1.0 + np.abs(y).max())
    for name in ("mean", "jackknife"):
        np.testing.assert_allclose(
            mapped[name], a + c * base[name], rtol=RTOL, atol=RTOL * scale, err_msg=name
        )
    np.testing.assert_allclose(
        mapped["variance"], c * c * base["variance"], rtol=RTOL, atol=RTOL * scale**2
    )


@PROPERTY
@given(samples(), st.integers(1, 5), kernels, st.booleans())
def test_tiny_bandwidth_outside_data_is_degenerate(sample, count, kernel, below):
    x, y = sample
    offsets = 1.0 + np.arange(count, dtype=float)
    points = np.sort(x.min() - offsets) if below else x.max() + offsets
    curves = _curves(x, y, points, 1e-3, kernel)
    for name in ("mean", "jackknife", "variance"):
        assert np.isnan(curves[name]).all(), name
    np.testing.assert_array_equal(curves["density"], 0.0)


@PROPERTY
@given(samples(), design_points, kernels)
def test_huge_bandwidth_gives_global_averages(sample, points, kernel):
    # At b = 1e15 every weight equals K(0) to within 1e-14 of itself.
    x, y = sample
    b = 1e15
    curves = _curves(x, y, points, b, kernel)
    mean = np.mean(y)
    scale = 1.0 + np.abs(y).max()
    for name in ("mean", "jackknife"):
        np.testing.assert_allclose(curves[name], mean, rtol=RTOL, atol=RTOL * scale, err_msg=name)
    np.testing.assert_allclose(
        curves["variance"], np.mean((y - mean) ** 2), rtol=RTOL, atol=RTOL * scale**2
    )
    np.testing.assert_allclose(curves["density"], float(eval_kernel(kernel, 0.0)) / b, rtol=RTOL)


@PROPERTY
@given(samples(min_n=2, max_n=2), design_points, bandwidths, bandwidths, kernels)
def test_two_observations_match_reference(sample, points, b, h, kernel):
    x, y = sample
    d = make_dataset(x, y)
    xs, ys, kind = list(x), list(y), kernel.kind
    cases = [
        (density_estimate(d, points, b, kernel).values, reference.density_ref(xs, points, b, kind)),
        (nw_mean(d, points, b, kernel).values, reference.nw_ref(xs, ys, points, b, kind)),
        (jackknife_mean(d, points, b, kernel).values, reference.jackknife_ref(xs, ys, points, b, kind)),
        (
            variance_estimate(d, points, h, b, kernel).values,
            reference.variance_ref(xs, ys, points, h, b, kind),
        ),
    ]
    for got, expected in cases:
        for value, ref in zip(got, expected):
            assert reference.matches(value, ref, rtol=RTOL), (value, ref)
