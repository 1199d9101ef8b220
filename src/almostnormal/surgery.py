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

from .core import SpectralDecomp, adjoint, operator_norm
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


def transport(dec: SpectralDecomp, phi) -> np.ndarray:
    """U diag(phi(lambda)) U* for any vectorized plane map phi."""
    lam = np.asarray(phi(dec.eigenvalues), dtype=complex)
    if lam.shape != dec.eigenvalues.shape:
        raise ValueError("plane map must return one value per eigenvalue")
    u = dec.basis
    return (u * lam) @ adjoint(u)


@dataclass(frozen=True)
class SurgeryResult:
    output: np.ndarray
    decomp: SpectralDecomp
    moved_count: int
    perturbation_norm: float
    bound: float


def _rebuild(dec: SpectralDecomp, new_eigs: np.ndarray) -> tuple[np.ndarray, SpectralDecomp]:
    u = dec.basis
    out = (u * new_eigs) @ adjoint(u)
    return out, SpectralDecomp(eigenvalues=new_eigs, basis=u)


def remove_region(dec: SpectralDecomp, disc: OpenDisc, mu: complex) -> SurgeryResult:
    """Clear the open disc of spectrum by pushing it to the boundary from mu.

    Eigenvalues outside the disc, and their eigenprojections, are untouched;
    each eigenvalue inside moves along the ray from mu through it onto the
    boundary circle (an eigenvalue exactly at mu goes to center + radius).
    The perturbation never exceeds 2 * radius.
    """
    push = BoundaryPush(disc=disc, anchor=complex(mu))
    lam = dec.eigenvalues
    inside = disc.contains(lam)
    new_eigs = lam.copy()
    if inside.any():
        new_eigs[inside] = push(lam[inside])
    out, out_dec = _rebuild(dec, new_eigs)
    moved = int(inside.sum())
    pert = float(np.abs(lam - new_eigs).max()) if moved else 0.0
    return SurgeryResult(
        output=out,
        decomp=out_dec,
        moved_count=moved,
        perturbation_norm=pert,
        bound=2.0 * disc.radius,
    )


def remove_arc(
    dec: SpectralDecomp, disc: OpenDisc, e_minus: complex, e_plus: complex
) -> SurgeryResult:
    """Snap the spectrum inside the disc to the endpoints of a chord.

    Requires every eigenvalue inside the disc to sit on the chord segment
    [e_minus, e_plus] within 1e-9 * diam; raises SpectrumOffContour
    otherwise.  Nothing outside the disc moves.
    """
    snap = ChordSnap(disc=disc, e_minus=complex(e_minus), e_plus=complex(e_plus))
    lam = dec.eigenvalues
    inside = disc.contains(lam)
    tol = CHORD_TOL_FACTOR * disc.diameter()
    if inside.any():
        d = _dist_to_segment(lam[inside], snap.e_minus, snap.e_plus)
        if (d > tol).any():
            raise SpectrumOffContour(lam[inside][d > tol], tol)
    new_eigs = lam.copy()
    if inside.any():
        new_eigs[inside] = snap(lam[inside])
    out, out_dec = _rebuild(dec, new_eigs)
    moved = int(inside.sum())
    pert = float(np.abs(lam - new_eigs).max()) if moved else 0.0
    return SurgeryResult(
        output=out,
        decomp=out_dec,
        moved_count=moved,
        perturbation_norm=pert,
        bound=2.0 * disc.radius,
    )


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

    @property
    def domain(self) -> tuple[float, float]:
        return (-self.amplitude, self.amplitude)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.cos(2.0 * math.pi * x / self.eps)


def oscillator(eps: float, r: float) -> Oscillator:
    return Oscillator(eps=eps, r=r)


def check_oscillator(f, eps: float, r: float) -> float:
    """Smallest eps' such that {x : f(x) = y} is an eps'-net of the disc slice
    at height y, for every y on a grid of step eps/100 over [-(r+eps), r+eps].

    Returns math.inf when the estimate is >= eps (the function cannot
    certify the net condition) or when some level has no solutions at all.
    Level sets are located by sign-change bisection on a grid of step
    eps/128, plus near-tangency minima of |f - y| (peaks of f touch extreme
    levels without a sign change).
    """
    if not (eps > 0 and math.isfinite(eps)) or not (r >= 0 and math.isfinite(r)):
        raise ValueError("need eps > 0 and r >= 0")
    big = r + eps
    n_y = int(round(200.0 * big / eps)) + 1
    ys = np.linspace(-big, big, n_y)
    n_x = int(round(256.0 * big / eps)) + 1
    xs = np.linspace(-big, big, n_x)
    fx = np.asarray(f(xs), dtype=float)
    if fx.shape != xs.shape:
        fx = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape).copy()
    tangent_tol = 1e-4 * max(np.abs(fx).max(), big)

    worst = 0.0
    for y in ys:
        roots = _level_points(xs, fx, f, y, tangent_tol)
        a = math.sqrt(max(big * big - y * y, 0.0))
        if roots.size == 0:
            return math.inf
        cands = [-a, a]
        mids = (roots[1:] + roots[:-1]) / 2.0
        cands.extend(mids[(mids > -a) & (mids < a)])
        cands = np.asarray(cands)
        dist = np.abs(cands[:, None] - roots[None, :]).min(axis=1)
        worst = max(worst, float(dist.max()))
    return worst if worst < eps else math.inf


def _level_points(xs, fx, f, y, tangent_tol) -> np.ndarray:
    """Solutions of f(x) = y on the sampled interval, sorted."""
    g = fx - y
    roots = list(xs[g == 0.0])
    sign_flip = np.nonzero(g[:-1] * g[1:] < 0)[0]
    lo = xs[sign_flip]
    hi = xs[sign_flip + 1]
    glo = g[sign_flip]
    for _ in range(48):
        mid = (lo + hi) / 2.0
        gm = np.asarray(f(mid), dtype=float) - y
        left = (glo * gm) > 0
        lo = np.where(left, mid, lo)
        glo = np.where(left, gm, glo)
        hi = np.where(left, hi, mid)
    roots.extend((lo + hi) / 2.0)

    # tangency: local minima of |g| that nearly reach zero without crossing
    ag = np.abs(g)
    interior = np.nonzero((ag[1:-1] <= ag[:-2]) & (ag[1:-1] <= ag[2:]))[0] + 1
    for i in interior:
        if g[i] == 0.0:
            continue  # exact roots were collected already
        if g[i - 1] * g[i] < 0 or g[i] * g[i + 1] < 0:
            continue  # transversal crossing, bisection owns it
        # the nearest sample can sit half a step off the touch point, so the
        # coarse gate must allow one curvature quantum before refining
        curv = abs(g[i - 1] - 2.0 * g[i] + g[i + 1])
        if ag[i] > tangent_tol + curv:
            continue
        x0 = _refine_abs_min(f, y, xs[i - 1], xs[i + 1])
        if abs(float(np.asarray(f(x0)).reshape(())) - y) <= tangent_tol:
            roots.append(x0)
    return np.sort(np.asarray(roots, dtype=float))


def _refine_abs_min(f, y, lo, hi) -> float:
    """Golden-section minimization of |f(x) - y| on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = abs(float(np.asarray(f(c)).reshape(())) - y)
    fd = abs(float(np.asarray(f(d)).reshape(())) - y)
    for _ in range(60):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = abs(float(np.asarray(f(c)).reshape(())) - y)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = abs(float(np.asarray(f(d)).reshape(())) - y)
    return (a + b) / 2.0


@dataclass(frozen=True)
class GraphReport:
    eps: float
    r: float
    scale: float
    max_shift: float
    perturbation_norm: float
    bound: float


def graph_normal_approx(dec: SpectralDecomp, eps: float) -> tuple[np.ndarray, GraphReport]:
    """Press the spectrum onto the scaled graph of the oscillator.

    Each eigenvalue x + iy is shifted horizontally by the smallest amount
    whose landing point satisfies f(x + shift) = y (f the oscillator with
    r = ||A||), then the whole matrix is scaled by r / (r + eps).  The
    output is normal, has norm at most ||A||, and differs from A by at most
    2*eps + eps*(1 + ||A||).
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps}")
    lam = dec.eigenvalues
    r = float(np.abs(lam).max())
    f = oscillator(eps, r)
    amp = f.amplitude
    scale = r / amp

    x = lam.real
    y = np.clip(lam.imag, -amp, amp)
    shifts = _smallest_level_shift(f, x, y)
    landed = x + shifts
    w = landed + 1j * f(landed)

    u = dec.basis
    new_eigs = scale * w
    out = (u * new_eigs) @ adjoint(u)
    pert = float(np.abs(lam - new_eigs).max())
    report = GraphReport(
        eps=float(eps),
        r=r,
        scale=scale,
        max_shift=float(np.abs(shifts).max()),
        perturbation_norm=pert,
        bound=2.0 * eps + eps * (1.0 + r),
    )
    return out, report


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
