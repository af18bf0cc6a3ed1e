"""Observed-sample containers and the CSV interchange format."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, DuplicateLocationError

__all__ = [
    "SpatialDataset",
    "CurveEstimate",
    "DATASET_HEADER",
    "read_dataset_csv",
    "write_dataset_csv",
]

DATASET_HEADER = ("u", "v", "x", "y")

ESTIMATOR_TAGS = ("density", "mean", "jackknife_mean", "variance")


@dataclass
class SpatialDataset:
    """A spatial sample: planar locations plus covariate and response values.

    Locations must be pairwise distinct (otherwise nearest-neighbor distances
    collapse to zero); covariate values may coincide. The dataset is treated
    as read-only by every estimator.
    """

    locations: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.locations.ndim != 2 or self.locations.shape[1] != 2:
            raise ValueError("locations must have shape (n, 2)")
        n = self.locations.shape[0]
        if self.x.shape != (n,) or self.y.shape != (n,):
            raise ValueError("locations, x, and y must have one entry per observation")
        if n < 2:
            raise ValueError("a spatial dataset needs at least two observations")
        if not (
            np.isfinite(self.locations).all()
            and np.isfinite(self.x).all()
            and np.isfinite(self.y).all()
        ):
            raise ValueError("dataset entries must be finite")
        if np.unique(self.locations, axis=0).shape[0] != n:
            raise DuplicateLocationError("locations are not pairwise distinct")

    @property
    def n(self) -> int:
        return self.locations.shape[0]


@dataclass
class CurveEstimate:
    """Estimator values over a strictly increasing grid of design points.

    Degenerate design points (kernel mass below the floor) carry NaN values;
    n_excluded counts observations that were dropped while forming residuals.
    """

    design_points: np.ndarray
    values: np.ndarray
    bandwidth: float
    estimator_tag: str
    n_excluded: int = 0

    def __post_init__(self):
        self.design_points = np.asarray(self.design_points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.design_points.ndim != 1 or self.design_points.shape != self.values.shape:
            raise ValueError("design_points and values must be 1-d arrays of equal length")
        if self.design_points.size == 0:
            raise ValueError("at least one design point is required")
        if not np.all(np.diff(self.design_points) > 0):
            raise ValueError("design points must be strictly increasing")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if self.estimator_tag not in ESTIMATOR_TAGS:
            raise ValueError(f"estimator_tag must be one of {ESTIMATOR_TAGS}")

    @property
    def degenerate_mask(self) -> np.ndarray:
        return ~np.isfinite(self.values)


def read_dataset_csv(path) -> SpatialDataset:
    """Read a dataset from a CSV file with header u,v,x,y.

    Malformed rows, including non-finite cells such as nan or inf, are
    rejected with the offending 1-based line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = _numeric_rows(reader)
        except csv.Error as exc:
            raise DatasetFormatError(reader.line_num, str(exc)) from None
    if len(rows) < 2:
        raise DatasetFormatError(len(rows) + 1, "need at least two data rows")
    arr = np.asarray(rows, dtype=float)
    return SpatialDataset(arr[:, :2], arr[:, 2], arr[:, 3])


def _numeric_rows(reader) -> list[list[float]]:
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError(1, "empty file") from None
    if tuple(c.strip().lower() for c in header) != DATASET_HEADER:
        raise DatasetFormatError(1, f"expected header u,v,x,y, got {','.join(header)}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DatasetFormatError(lineno, f"expected 4 fields, got {len(row)}")
        rows.append([_finite_float(cell, lineno) for cell in row])
    return rows


def _finite_float(cell: str, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetFormatError(lineno, f"non-numeric field {cell!r}") from None
    if not math.isfinite(value):
        raise DatasetFormatError(lineno, f"non-finite field {cell!r}")
    return value


def write_dataset_csv(dataset: SpatialDataset, path) -> None:
    """Write a dataset as CSV with header u,v,x,y, one row per observation."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for (u, v), x, y in zip(dataset.locations, dataset.x, dataset.y):
            writer.writerow([repr(float(u)), repr(float(v)), repr(float(x)), repr(float(y))])
