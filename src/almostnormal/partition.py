"""Plane regions, covers of the spectrum, and finite-spectrum approximants.

A cover of the spectrum induces a resolution of identity (mutually
orthogonal spectral projections summing to I) by assigning every eigenvalue
to the first region containing it.  Collapsing each region to a single
label produces a normal approximant T = sum_j z_j P_j whose error is
controlled by sqrt(multiplicity) * max diameter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SpectralDecomp, SpectrumMove, adjoint
from .errors import UncoveredSpectrum


@dataclass(frozen=True)
class OpenDisc:
    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"disc radius must be positive, got {self.radius}")

    def contains(self, z):
        return np.abs(np.asarray(z, dtype=complex) - self.center) < self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class OpenSquare:
    """Axis-aligned open square given by its center and side length."""

    center: complex
    side: float

    def __post_init__(self):
        if not (self.side > 0 and math.isfinite(self.side)):
            raise ValueError(f"square side must be positive, got {self.side}")

    def contains(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        h = self.side / 2.0
        return (np.abs(w.real) < h) & (np.abs(w.imag) < h)

    def diameter(self) -> float:
        return self.side * math.sqrt(2.0)


Region = OpenDisc | OpenSquare


@dataclass(frozen=True)
class Cover:
    """Ordered tuple of regions; order matters for first-hit assignment."""

    regions: tuple

    def __post_init__(self):
        if len(self.regions) == 0:
            raise ValueError("cover must contain at least one region")

    def __len__(self) -> int:
        return len(self.regions)

    def membership(self, points) -> np.ndarray:
        """Boolean table, shape (len(points), len(regions))."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        return np.stack([r.contains(pts) for r in self.regions], axis=1)

    def max_diameter(self) -> float:
        return max(r.diameter() for r in self.regions)


def square_cover(points, side: float) -> Cover:
    """Cover of the given points by open squares centered on the (side/2) lattice.

    Lattice squares of side s centered at (s/2) * (j, k) cover the plane with
    multiplicity at most 4 (at most two choices of j and of k per point).
    Only squares containing at least one input point are kept, ordered by
    lattice index (j, k) lexicographically.
    """
    if not (side > 0 and math.isfinite(side)):
        raise ValueError(f"side must be positive, got {side}")
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if pts.size == 0:
        raise ValueError("square_cover needs at least one point")
    half = side / 2.0
    found = set()
    for z in pts:
        jx0 = math.floor(z.real / half)
        jy0 = math.floor(z.imag / half)
        for jx in (jx0, jx0 + 1):
            for jy in (jy0, jy0 + 1):
                if abs(z.real - jx * half) < half and abs(z.imag - jy * half) < half:
                    found.add((jx, jy))
    regions = tuple(
        OpenSquare(center=complex(jx * half, jy * half), side=side)
        for jx, jy in sorted(found)
    )
    return Cover(regions=regions)


@dataclass(frozen=True)
class ResolutionOfIdentity:
    """Mutually orthogonal projections summing to I, one per region.

    labels[j] is a point of region j (the centroid of its assigned
    eigenvalues, or the region's center when nothing was assigned).
    assignment[k] is the index of the region that claimed eigenvalue k, and
    multiplicity the most regions containing any one eigenvalue.
    The dense projections are built from the decomposition on first read.
    """

    labels: np.ndarray
    assignment: np.ndarray
    multiplicity: int
    cover: Cover
    decomposition: SpectralDecomp

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.assignment.setflags(write=False)

    @functools.cached_property
    def projections(self) -> tuple:
        """P_j onto the eigenvectors assigned to region j (zero when none)."""
        u = self.decomposition.basis
        cols = (u[:, self.assignment == j] for j in range(len(self.cover)))
        return tuple(c @ adjoint(c) for c in cols)

    @property
    def ranks(self) -> np.ndarray:
        """rank P_j: the number of eigenvalues assigned to region j."""
        return np.bincount(self.assignment, minlength=len(self.cover))


def _clamp_into(region: Region, z: complex) -> complex:
    """Nudge z into the open region (pure rounding guard; centroids of
    points of a convex open region already lie inside it)."""
    if bool(region.contains(z)):
        return z
    c = region.center
    if isinstance(region, OpenDisc):
        d = z - c
        return c + d * ((1 - 1e-12) * region.radius / abs(d))
    h = region.side / 2.0 * (1 - 1e-12)
    re = min(max(z.real, c.real - h), c.real + h)
    im = min(max(z.imag, c.imag - h), c.imag + h)
    return complex(re, im)


def resolution_of_identity(dec: SpectralDecomp, cover: Cover) -> ResolutionOfIdentity:
    """First-hit disjointification of a cover against a spectral decomposition.

    Every eigenvalue must lie in at least one region (UncoveredSpectrum
    otherwise); it is assigned to the first region of the cover containing
    it.  Empty regions keep a zero projection and are labeled by their
    center.
    """
    lam = dec.eigenvalues
    table = cover.membership(lam)
    hits = table.sum(axis=1)
    if not hits.all():
        raise UncoveredSpectrum(lam[hits == 0])
    assignment = np.argmax(table, axis=1)

    labels = np.empty(len(cover), dtype=complex)
    for j, region in enumerate(cover.regions):
        mask = assignment == j
        if mask.any():
            labels[j] = _clamp_into(region, complex(lam[mask].mean()))
        else:
            labels[j] = region.center
    return ResolutionOfIdentity(
        labels=labels, assignment=assignment, multiplicity=int(hits.max()), cover=cover,
        decomposition=dec,
    )


@dataclass(frozen=True)
class FiniteSpectrumApprox(SpectrumMove):
    """Normal approximant with finitely many distinct eigenvalues, and the
    resolution of identity it collapses."""

    resolution: ResolutionOfIdentity


def finite_spectrum_approx(dec: SpectralDecomp, cover: Cover) -> FiniteSpectrumApprox:
    """T = sum_j z_j P_j from the resolution of identity of the cover.

    Each eigenvalue moves to the label of its region.  The bound is
    sqrt(multiplicity on the spectrum) * max region diameter.
    """
    roi = resolution_of_identity(dec, cover)
    bound = math.sqrt(roi.multiplicity) * cover.max_diameter()
    return FiniteSpectrumApprox.of(dec, roi.labels[roi.assignment], bound, resolution=roi)
