"""Exception types shared across the package."""


class SpatregError(Exception):
    """Base class for every package-specific error."""


class DatasetFormatError(SpatregError):
    """A dataset file could not be parsed; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateLocationError(SpatregError):
    """Two observations share the same spatial location."""


class DegenerateDensityError(SpatregError):
    """A quantity (`what`) came out non-finite at one or more design points."""

    def __init__(self, what, points):
        self.points = [float(p) for p in points]
        super().__init__(
            f"{what} degenerate at design points " + ", ".join(f"{p:g}" for p in self.points)
        )


class EmptyIntervalError(SpatregError):
    """No observed covariate falls inside the requested interval."""


class DegenerateVarianceError(SpatregError):
    """Every candidate observation has a below-floor variance estimate."""


class NonpositiveV4Error(SpatregError):
    """The trimmed excess fourth moment came out non-positive."""


class NegativeVarianceError(SpatregError):
    """The variance function is negative at a generated covariate."""


class TooManySitesError(SpatregError):
    """More sites were requested than the lattice contains."""


class AllDegenerateError(SpatregError):
    """A curve in a bandwidth sweep has no valid design point."""
