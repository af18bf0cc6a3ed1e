"""Compactly supported kernel functions and their integral constants.

Every estimator weighs observations through one of these kernels, and the
limit-law normalizations and band widths consume the two integral constants:
the squared L2 norm (integral of K^2) and the second moment (integral of
z^2 K(z) dz).

Only kernels with bounded support are offered so that support checks stay
exact; the Gaussian kernel is deliberately absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Kernel",
    "KernelConstants",
    "EPANECHNIKOV",
    "UNIFORM",
    "TRIANGULAR",
    "eval_kernel",
    "kernel_constants",
    "kernel_by_name",
]


def _epanechnikov_profile(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _uniform_profile(u):
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


def _triangular_profile(u):
    return np.where(np.abs(u) <= 1.0, 1.0 - np.abs(u), 0.0)


_PROFILES = {
    "epanechnikov": _epanechnikov_profile,
    "uniform": _uniform_profile,
    "triangular": _triangular_profile,
}

# (integral of K^2, integral of z^2 K) by direct integration of each profile.
_CONSTANTS = {
    "epanechnikov": (3.0 / 5.0, 1.0 / 5.0),
    "uniform": (1.0 / 2.0, 1.0 / 3.0),
    "triangular": (2.0 / 3.0, 1.0 / 6.0),
}


@dataclass(frozen=True)
class Kernel:
    """Symmetric kernel with unit mass, vanishing outside [-1, 1].

    A wider or narrower kernel is the same kernel at a rescaled bandwidth.
    Instances are immutable values; evaluation is a pure function, safe to
    call from any number of concurrent workers.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _PROFILES:
            raise ValueError(
                f"unknown kernel {self.kind!r}; choose one of {sorted(_PROFILES)}"
            )

    def __call__(self, z):
        return eval_kernel(self, z)


@dataclass(frozen=True)
class KernelConstants:
    """Integral constants of a kernel.

    l2_norm_sq is the integral of K(z)^2 over the support and c_k the
    integral of z^2 K(z); both are strictly positive for the built-ins.
    """

    l2_norm_sq: float
    c_k: float


EPANECHNIKOV = Kernel("epanechnikov")
UNIFORM = Kernel("uniform")
TRIANGULAR = Kernel("triangular")


def eval_kernel(kernel: Kernel, z) -> np.ndarray:
    """Evaluate the kernel at z, exactly zero outside [-1, 1]."""
    return _PROFILES[kernel.kind](np.asarray(z, dtype=float))


@lru_cache(maxsize=None)
def kernel_constants(kernel: Kernel) -> KernelConstants:
    """Closed-form (integral of K^2, integral of z^2 K) of the kernel."""
    return KernelConstants(*_CONSTANTS[kernel.kind])


def kernel_by_name(name: str) -> Kernel:
    """Look up a built-in kernel by name, ignoring case and outer spaces."""
    return Kernel(name.strip().lower())
