"""Dense complex matrix substrate: norms, commutators, spectral factorizations.

Everything downstream (partitions, surgery, optimization) is built on the
handful of operations here.  Matrices are plain complex numpy arrays; a
value is accepted as a matrix iff it is square with finite entries.

Tolerances are relative to the operator norm scale of the input:
  unitary_tol      ||U*U - I||            <= 1e-9
  reconstruct_tol  ||A - U diag(l) U*||   <= 1e-9 * ||A||
  normal_tol       ||[A*, A]||            <= 1e-8 * ||A||^2 to admit A as normal
  cluster_tol      eigenvalue clustering width, 1e-8 * ||A||
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import NotNormal

UNITARY_TOL = 1e-9
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
    """
    a = as_cmatrix(a)
    scale = operator_norm(a)
    defect = normality_defect(a)
    tol = NORMAL_TOL * scale ** 2
    if defect > tol:
        raise NotNormal(defect, tol)
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL * scale

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

    lam = np.einsum("ij,jk,ki->i", adjoint(u), a, u)
    dec = SpectralDecomp(eigenvalues=lam, basis=u)
    residual = operator_norm(a - dec.reconstruct())
    if residual > RECONSTRUCT_TOL * max(scale, 1e-300):
        raise ArithmeticError(
            f"spectral factorization residual {residual:.3g} exceeds "
            f"{RECONSTRUCT_TOL:.0e} * ||A||; eigenvalue clusters too tangled"
        )
    return dec


@dataclass(frozen=True)
class PolarDecomp:
    """A = unitary @ positive, with positive = (A*A)^(1/2)."""

    unitary: np.ndarray
    positive: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.unitary @ self.positive


def polar_decomp(a: np.ndarray) -> PolarDecomp:
    """Polar factorization via SVD; the unitary factor is total (works at rank loss)."""
    a = as_cmatrix(a)
    u, s, wh = npl.svd(a)
    v = u @ wh
    p = hermitian_part(adjoint(wh) @ (s[:, None] * wh))
    return PolarDecomp(unitary=v, positive=p)


def svd_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values (descending) with unitaries (s, u, w): A = u @ diag(s) @ w*."""
    a = as_cmatrix(a)
    u, s, wh = npl.svd(a)
    return s, u, adjoint(wh)


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
