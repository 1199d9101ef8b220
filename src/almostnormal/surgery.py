"""Spectrum surgery: move eigenvalues of a normal matrix by plane maps.

Applying a map phi to the eigenvalues while keeping the eigenbasis gives
A -> U diag(phi(lambda)) U*.  Everything here is built on that device:
clearing a disc by pushing its spectrum to the boundary, snapping a chord's
spectrum to its endpoints, pressing the whole spectrum onto the graph of an
oscillating function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpectralDecomp, SpectrumMove
from .errors import SpectrumOffContour
from .partition import OpenDisc

CHORD_TOL_FACTOR = 1e-9
BOUNDARY_TOL_FACTOR = 1e-9


def _as_points(z) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    return arr, np.ndim(z) == 0


def _unwrap(res: np.ndarray, scalar: bool):
    return complex(res[0]) if scalar else res


@dataclass(frozen=True)
class RadialCollapse:
    """Identity inside the disc; everything outside lands on the boundary."""

    disc: OpenDisc

    def __call__(self, z):
        z, scalar = _as_points(z)
        c, r = self.disc.center, self.disc.radius
        w = z - c
        a = np.abs(w)
        out = a >= r
        res = z.copy()
        res[out] = c + r * w[out] / a[out]
        return _unwrap(res, scalar)


@dataclass(frozen=True)
class Affine:
    """z -> a*z + b with a != 0."""

    a: complex
    b: complex

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("affine map requires a != 0")

    def __call__(self, z):
        return self.a * np.asarray(z, dtype=complex) + self.b


@dataclass(frozen=True)
class BoundaryPush:
    """Project the disc interior onto its boundary along rays from an anchor.

    Points outside the open disc are fixed.  The anchor itself goes to
    center + radius (the boundary point in the +real direction).
    """

    disc: OpenDisc
    anchor: complex

    def __post_init__(self):
        if not bool(self.disc.contains(self.anchor)):
            raise ValueError("anchor must lie strictly inside the disc")

    def __call__(self, z):
        z, scalar = _as_points(z)
        c, r = self.disc.center, self.disc.radius
        res = z.copy()
        inside = self.disc.contains(z)
        w = z[inside] - self.anchor
        d = self.anchor - c
        # |d + t w| = r has exactly one positive root when |d| < r
        ww = np.abs(w) ** 2
        cross = (np.conj(d) * w).real
        disc2 = np.maximum(cross ** 2 + ww * (r * r - abs(d) ** 2), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (-cross + np.sqrt(disc2)) / ww
        target = self.anchor + t * w
        target[ww == 0] = c + r  # the anchor itself
        # rounding can leave the landing a few ulps strictly interior, which
        # would defeat "the disc is cleared"; inflate radially past that
        off = target - c
        target = c + off * ((1.0 + 1e-15) * r / np.abs(off))
        res[inside] = target
        return _unwrap(res, scalar)


@dataclass(frozen=True)
class ChordSnap:
    """Send the disc interior to the nearer endpoint of a boundary chord.

    Ties go to e_plus.  Points outside the open disc are fixed.
    """

    disc: OpenDisc
    e_minus: complex
    e_plus: complex

    def __post_init__(self):
        c, r = self.disc.center, self.disc.radius
        for e in (self.e_minus, self.e_plus):
            if abs(abs(e - c) - r) > BOUNDARY_TOL_FACTOR * r:
                raise ValueError(f"chord endpoint {e} is not on the disc boundary")

    def __call__(self, z):
        z, scalar = _as_points(z)
        res = z.copy()
        inside = self.disc.contains(z)
        zi = z[inside]
        take_plus = np.abs(zi - self.e_plus) <= np.abs(zi - self.e_minus)
        res[inside] = np.where(take_plus, self.e_plus, self.e_minus)
        return _unwrap(res, scalar)


def transport(dec: SpectralDecomp, phi) -> SpectrumMove:
    """U diag(phi(lambda)) U* for any vectorized plane map phi.

    A general map has no a priori bound, so bound is inf.
    """
    return SpectrumMove.of(dec, phi(dec.eigenvalues), math.inf)


def remove_region(dec: SpectralDecomp, disc: OpenDisc, mu: complex) -> SpectrumMove:
    """Clear the open disc of spectrum by pushing it to the boundary from mu.

    Eigenvalues outside the disc, and their eigenprojections, are untouched;
    each eigenvalue inside moves along the ray from mu through it onto the
    boundary circle (an eigenvalue exactly at mu goes to center + radius).
    The perturbation never exceeds 2 * radius.
    """
    push = BoundaryPush(disc=disc, anchor=complex(mu))
    return SpectrumMove.of(dec, push(dec.eigenvalues), 2.0 * disc.radius)


def remove_arc(
    dec: SpectralDecomp, disc: OpenDisc, e_minus: complex, e_plus: complex
) -> SpectrumMove:
    """Snap the spectrum inside the disc to the endpoints of a chord.

    Requires every eigenvalue inside the disc to sit on the chord segment
    [e_minus, e_plus] within 1e-9 * diam; raises SpectrumOffContour
    otherwise.  Nothing outside the disc moves.
    """
    snap = ChordSnap(disc=disc, e_minus=complex(e_minus), e_plus=complex(e_plus))
    lam = dec.eigenvalues
    inside = lam[disc.contains(lam)]
    tol = CHORD_TOL_FACTOR * disc.diameter()
    d = _dist_to_segment(inside, snap.e_minus, snap.e_plus)
    if (d > tol).any():
        raise SpectrumOffContour(inside[d > tol], tol)
    return SpectrumMove.of(dec, snap(lam), 2.0 * disc.radius)


def _dist_to_segment(z: np.ndarray, a: complex, b: complex) -> np.ndarray:
    seg = b - a
    denom = abs(seg) ** 2
    if denom == 0:
        return np.abs(z - a)
    t = np.clip(((z - a) * np.conj(seg)).real / denom, 0.0, 1.0)
    return np.abs(z - (a + t * seg))


@dataclass(frozen=True)
class Oscillator:
    """f(x) = (r + eps) * cos(2*pi*x / eps) on [-(r+eps), r+eps].

    The level set {f = y} meets every vertical slice of the amplitude disc
    with gaps at most eps/2, so the graph can absorb any spectrum point by a
    horizontal shift of at most eps/2.
    """

    eps: float
    r: float

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (self.r >= 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be nonnegative, got {self.r}")

    @property
    def amplitude(self) -> float:
        return self.r + self.eps

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.cos(2.0 * math.pi * x / self.eps)


def graph_normal_approx(dec: SpectralDecomp, eps: float) -> SpectrumMove:
    """Press the spectrum onto the scaled graph of the oscillator.

    Each eigenvalue x + iy is shifted horizontally by the smallest amount
    whose landing point satisfies f(x + shift) = y (f the oscillator with
    r = ||A||), then the whole matrix is scaled by r / (r + eps).  The
    output is normal, has norm at most ||A||, and differs from A by at most
    2*eps + eps*(1 + ||A||); details holds eps, r, scale and the largest
    shift (max_shift).  Raises ArithmeticError where rounding breaks that
    bound taken for 2^-k A at 2^-k eps, k >= 0 the exponent of ||A|| (no
    larger, and finite where eps*||A|| overflows): f's slope, about
    2*pi*||A|| / eps, magnifies the rounding of each landing point.
    """
    lam = dec.eigenvalues
    r = float(np.abs(lam).max())
    f = Oscillator(eps=eps, r=r)
    amp = f.amplitude
    scale = r / amp

    x = lam.real
    y = np.clip(lam.imag, -amp, amp)
    shifts = _smallest_level_shift(f, x, y)
    landed = x + shifts
    bound = 2.0 * eps + eps * (1.0 + r)
    details = dict(eps=float(eps), r=r, scale=scale, max_shift=float(np.abs(shifts).max()))
    res = SpectrumMove.of(dec, scale * (landed + 1j * f(landed)), bound, details=details)
    k = max(math.frexp(r)[1], 0)  # the check runs in units of 2^-k
    eps_k, r_k = math.ldexp(eps, -k), math.ldexp(r, -k)
    if math.ldexp(res.perturbation_norm, -k) > 2.0 * eps_k + eps_k * (1.0 + r_k):
        raise ArithmeticError(
            f"graph approximation at eps = {eps:.6g} with ||A|| = {r:.6g} moved the "
            f"spectrum by {res.perturbation_norm:.6g}, over its bound {2.0 * eps + eps * (1.0 + r_k):.6g}"
        )
    return res


def _smallest_level_shift(f: Oscillator, x0: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Smallest-magnitude shifts s with f(x0 + s) = y, ties to positive s.

    With w = 2*pi/eps and alpha = arccos(y/amp) the level set is
    x = (+-alpha + 2*pi*k)/w for integers k; on each branch the nearest root
    has k = round((w*x0 -+ alpha)/(2*pi)), and its neighbors k -+ 1 are kept
    as candidates against rounding.
    """
    w = 2.0 * math.pi / f.eps
    alpha = np.arccos(y / f.amplitude)
    cands = []
    for branch in (alpha, -alpha):
        k0 = np.round((w * x0 - branch) / (2.0 * math.pi))
        for k in (k0 - 1.0, k0, k0 + 1.0):
            cands.append((branch + 2.0 * math.pi * k) / w - x0)
    s = np.stack(cands)
    mag = np.abs(s)
    return np.where(mag == mag.min(axis=0), s, -np.inf).max(axis=0)
