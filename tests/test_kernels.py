"""Kernel evaluation and integral constants."""

import numpy as np
import pytest
from scipy import integrate

from spatreg.kernels import (
    EPANECHNIKOV,
    TRIANGULAR,
    UNIFORM,
    Kernel,
    eval_kernel,
    kernel_by_name,
    kernel_constants,
)

ALL_KERNELS = [EPANECHNIKOV, UNIFORM, TRIANGULAR]

# Closed-form (l2_norm_sq, c_k) per kernel, written out independently of the
# package's own table.
ANALYTIC_CONSTANTS = {
    "epanechnikov": (0.6, 0.2),
    "uniform": (0.5, 1.0 / 3.0),
    "triangular": (2.0 / 3.0, 1.0 / 6.0),
}


class TestEvalKernel:
    def test_epanechnikov_at_zero(self):
        assert float(eval_kernel(EPANECHNIKOV, 0.0)) == 0.75

    def test_epanechnikov_outside_support(self):
        assert float(eval_kernel(EPANECHNIKOV, 1.5)) == 0.0

    def test_epanechnikov_at_half(self):
        assert float(eval_kernel(EPANECHNIKOV, 0.5)) == pytest.approx(0.5625, abs=1e-15)

    def test_uniform_inside_support(self):
        np.testing.assert_array_equal(eval_kernel(UNIFORM, np.array([-0.9, 0.0, 0.9])), 0.5)

    def test_triangular_shape(self):
        assert float(eval_kernel(TRIANGULAR, 0.25)) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_symmetry_on_grid(self, kernel):
        z = np.linspace(0.0, 2.0, 1000)
        np.testing.assert_array_equal(eval_kernel(kernel, z), eval_kernel(kernel, -z))

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_compact_support_pointwise(self, kernel):
        z = np.linspace(1.0 + 1e-12, 5.0, 1000)
        np.testing.assert_array_equal(eval_kernel(kernel, z), 0.0)
        np.testing.assert_array_equal(eval_kernel(kernel, -z), 0.0)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_nonnegative(self, kernel):
        z = np.linspace(-2, 2, 501)
        assert (eval_kernel(kernel, z) >= 0).all()

    def test_callable_matches_eval(self):
        z = np.linspace(-1, 1, 11)
        np.testing.assert_array_equal(EPANECHNIKOV(z), eval_kernel(EPANECHNIKOV, z))


class TestKernelConstants:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_analytic_values(self, kernel):
        expected_l2, expected_ck = ANALYTIC_CONSTANTS[kernel.kind]
        constants = kernel_constants(kernel)
        assert constants.l2_norm_sq == pytest.approx(expected_l2, rel=1e-15)
        assert constants.c_k == pytest.approx(expected_ck, rel=1e-15)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_quadrature_oracle(self, kernel):
        # Adaptive quadrature of eval_kernel as an independent check on the
        # closed forms.
        l2, _ = integrate.quad(lambda z: float(eval_kernel(kernel, z)) ** 2, -1, 1)
        ck, _ = integrate.quad(lambda z: z * z * float(eval_kernel(kernel, z)), -1, 1)
        constants = kernel_constants(kernel)
        assert constants.l2_norm_sq == pytest.approx(l2, abs=1e-8)
        assert constants.c_k == pytest.approx(ck, abs=1e-8)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_unit_mass(self, kernel):
        mass, _ = integrate.quad(lambda z: float(eval_kernel(kernel, z)), -1, 1)
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_strictly_positive(self, kernel):
        constants = kernel_constants(kernel)
        assert constants.l2_norm_sq > 0
        assert constants.c_k > 0


class TestKernelByName:
    def test_known_names(self):
        for kernel in ALL_KERNELS:
            assert kernel_by_name(kernel.kind) == kernel

    def test_case_insensitive(self):
        assert kernel_by_name(" Epanechnikov ") == EPANECHNIKOV

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_by_name("gaussian")


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Kernel("cosine")
