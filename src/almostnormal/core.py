"""Dense complex matrix substrate: norms, commutators, spectral factorizations.

Everything downstream (partitions, surgery, optimization) is built on the
handful of operations here.  Matrices are plain complex numpy arrays; a
value is accepted as a matrix iff it is square with finite entries.

Tolerances are relative to the operator norm scale of the input:
  reconstruct_tol  ||A - U diag(l) U*||   <= 1e-9 * ||A||
  normal_tol       ||[A*, A]||            <= 1e-8 * ||A||^2 to admit A as normal
  cluster_tol      eigenvalue clustering width, 1e-8 * ||A||

Entry points that square the input scale it first by a power of two
(_pow2_scaled) and scale the results back; both steps are exact in binary
floating point, so they hold across the whole double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import NotNormal

RECONSTRUCT_TOL = 1e-9
NORMAL_TOL = 1e-8
CLUSTER_TOL = 1e-8


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting anything else."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _pow2_scaled(a):
    """(2^-e A, e) with the largest real or imaginary part of an entry in
    [1/2, 1); the zero matrix comes back as (A, 0)."""
    a = as_cmatrix(a)
    top = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
    e = math.frexp(top)[1]
    return (_ldexp(a, -e), e) if e else (a, 0)


def _ldexp(m: np.ndarray, e: int) -> np.ndarray:
    """2^e m for a complex array, exact unless it over- or underflows."""
    out = np.empty_like(m)
    out.real = np.ldexp(m.real, e)
    out.imag = np.ldexp(m.imag, e)
    return out


def _scale(v: float, e: int) -> float:
    """2^e v, with inf where it overflows (squared norms can)."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + adjoint(a)) / 2


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(npl.norm(a, 2))


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """XY - YX.

    When x == y* exactly the result is Hermitian in exact arithmetic, so it
    is replaced by its Hermitian part to remove rounding skew.
    """
    x = as_cmatrix(x)
    y = as_cmatrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    c = x @ y - y @ x
    if np.array_equal(x, adjoint(y)):
        c = hermitian_part(c)
    return c


def self_commutator(a: np.ndarray) -> np.ndarray:
    """[A*, A], symmetrized."""
    a = as_cmatrix(a)
    return commutator(adjoint(a), a)


def normality_defect(a: np.ndarray) -> float:
    """||[A*, A]|| in operator norm.  Zero iff A is normal."""
    return operator_norm(self_commutator(a))


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    p may be any real >= 1 or math.inf (operator norm).  p = 1 is the trace
    norm, p = 2 the Frobenius norm.
    """
    a = as_cmatrix(a)
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError(f"Schatten index must satisfy p >= 1, got {p}")
    s = npl.svd(a, compute_uv=False)
    if math.isinf(p):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SpectralDecomp:
    """A = basis @ diag(eigenvalues) @ basis*, with basis unitary.

    Only defined for (numerically) normal matrices.  eigenvalues are complex,
    ordered by ascending real part with ties broken by ascending imaginary
    part inside each real-part cluster.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        u = self.basis
        return (u * self.eigenvalues) @ adjoint(u)

    def projection(self, mask: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the eigenvectors selected by mask."""
        cols = self.basis[:, np.asarray(mask, dtype=bool)]
        return cols @ adjoint(cols)


def _cluster_edges(values: np.ndarray, width: float) -> list[tuple[int, int]]:
    """Half-open index ranges of consecutive values closer than width."""
    edges = []
    start = 0
    for k in range(1, values.size):
        if values[k] - values[k - 1] > width:
            edges.append((start, k))
            start = k
    edges.append((start, values.size))
    return edges


def normal_spectral_decomp(a: np.ndarray, cluster_tol: float | None = None) -> SpectralDecomp:
    """Unitary diagonalization of a normal matrix.

    Writes A = X + iY with X, Y Hermitian, diagonalizes X, then diagonalizes
    Y restricted to each eigenvalue cluster of X (cluster width
    cluster_tol, default 1e-8 * ||A||).  Raises NotNormal when
    ||[A*, A]|| exceeds 1e-8 * ||A||^2.

    The work runs on 2^-e A (see _pow2_scaled), so the eigenvalues of
    2^k A are 2^k times those of A and the basis is the same.
    """
    a, e = _pow2_scaled(a)
    scale = operator_norm(a)
    defect = normality_defect(a)
    tol = NORMAL_TOL * scale ** 2
    if defect > tol:
        raise NotNormal(_scale(defect, 2 * e), _scale(tol, 2 * e))
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL * scale
    else:
        cluster_tol = _scale(cluster_tol, -e)

    x = hermitian_part(a)
    y = (a - adjoint(a)) / 2j
    xw, u = npl.eigh(x)
    u = u.copy()
    for lo, hi in _cluster_edges(xw, cluster_tol):
        if hi - lo < 2:
            continue
        block = u[:, lo:hi]
        yb = hermitian_part(adjoint(block) @ y @ block)
        _, w = npl.eigh(yb)
        u[:, lo:hi] = block @ w

    # diag(U* A U); a three-operand einsum would run as a naive n^3 loop
    lam = np.einsum("ij,ij->j", u.conj(), a @ u)
    dec = SpectralDecomp(eigenvalues=lam, basis=u)
    residual = operator_norm(a - dec.reconstruct())
    if residual > RECONSTRUCT_TOL * max(scale, 1e-300):
        raise ArithmeticError(
            f"spectral factorization residual {residual:.3g} exceeds "
            f"{RECONSTRUCT_TOL:.0e} * ||A||; eigenvalue clusters too tangled"
        )
    return SpectralDecomp(eigenvalues=_ldexp(lam, e), basis=u) if e else dec


@dataclass(frozen=True)
class NormReport:
    """Norm panel for one matrix."""

    operator_norm: float
    frobenius: float
    schatten: dict
    normality_defect: float


def norm_report(a: np.ndarray, p_list=(1, 2, math.inf)) -> NormReport:
    a = as_cmatrix(a)
    schatten = {p: schatten_norm(a, p) for p in p_list}
    return NormReport(
        operator_norm=operator_norm(a),
        frobenius=float(npl.norm(a)),
        schatten=schatten,
        normality_defect=normality_defect(a),
    )
