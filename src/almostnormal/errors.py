"""Domain errors shared across the package.

These signal violated mathematical preconditions, as opposed to malformed
arguments (ValueError).  The command line maps them to exit code 3.
"""

from __future__ import annotations


def _shown(points) -> str:
    """The first five points, then ", ..." when there are more."""
    shown = ", ".join(f"{z:.6g}" for z in points[:5])
    return shown + ", ..." if len(points) > 5 else shown


class DomainError(Exception):
    """Base class for violated mathematical preconditions."""


class NotNormal(DomainError):
    """Raised when an operation requires a normal matrix and the input is not.

    Carries the measured normality defect ||[A*, A]|| (operator norm) and,
    when a spectral decomposition was tried, the best residual
    ||A - U diag(l) U*|| it reached; tolerance bounds the last of the two.
    """

    def __init__(self, defect: float, tolerance: float | None = None, residual: float | None = None):
        self.defect = float(defect)
        self.tolerance = tolerance
        self.residual = residual
        msg = f"matrix is not normal: defect ||[A*,A]|| = {self.defect:.6g}"
        if residual is not None:
            msg += f", best residual ||A - U diag(l) U*|| = {residual:.6g}"
        if tolerance is not None:
            msg += f" exceeds tolerance {tolerance:.6g}"
        super().__init__(msg)


class UncoveredSpectrum(DomainError):
    """Raised when an eigenvalue lies outside every region of a cover."""

    def __init__(self, points):
        self.points = list(points)
        super().__init__(f"spectrum points not covered by any region: {_shown(self.points)}")


class SpectrumOffContour(DomainError):
    """Raised when spectrum inside a disc strays off the prescribed chord."""

    def __init__(self, points, tolerance: float):
        self.points = list(points)
        self.tolerance = float(tolerance)
        super().__init__(
            f"eigenvalues in the disc lie farther than {tolerance:.3g} "
            f"from the chord: {_shown(self.points)}"
        )


class EmptyTruncation(DomainError):
    """Raised when a spectral truncation keeps no basis vectors."""

    def __init__(self, lam: float):
        self.lam = float(lam)
        super().__init__(f"truncation at lambda = {lam:.6g} is empty")
