"""Dense complex matrix substrate: norms, self-commutator, spectral factorizations.

Everything downstream (partitions, surgery, optimization) is built on the
handful of operations here.  Matrices are plain complex numpy arrays; a
value is accepted as a matrix iff it is square with finite entries.

Tolerances are relative to the operator norm scale of the input:
  RECONSTRUCT_TOL  ||A - U diag(l) U*||   <= 1e-9 * ||A|| to admit A as normal
  CLUSTER_TOL      eigenvalue clustering width, 1e-8 * ||A||
A normality defect ||[A*, A]|| over 4 * RECONSTRUCT_TOL * ||A||^2 rejects A
before any eigensolver runs: no basis can reconstruct it there.  These tests
run the SVD of A only where max_j ||A e_j|| <= ||A|| <= ||A||_F cannot decide.

Entry points that square the input scale it first by a power of two
(_pow2_scaled) and scale the results back; both steps are exact in binary
floating point, so they hold across the whole double range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .errors import NotNormal

RECONSTRUCT_TOL = 1e-9
CLUSTER_TOL = 1e-8
# angles t of the splits cos t X + sin t Y tried in turn; t > 0 separates
# eigenvalues whose real parts sit just over the cluster width
SPLIT_ANGLES = (0.0, 0.3, 1.0)
# ||M|| <= ||M||_F, so a Frobenius norm under this fraction of a tolerance
# clears it without an SVD; the margin covers the rounding of both norms
FRO_PRETEST = 1.0 - 1e-10


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


def self_commutator(a: np.ndarray) -> np.ndarray:
    """[A*, A], replaced by its Hermitian part to remove rounding skew."""
    a = as_cmatrix(a)
    return hermitian_part(adjoint(a) @ a - a @ adjoint(a))


def normality_defect(a: np.ndarray) -> float:
    """||[A*, A]|| in operator norm, from 2^-e A scaled back by 4^e (see
    _pow2_scaled).  Zero iff A is normal."""
    a, e = _pow2_scaled(a)
    return _scale(operator_norm(self_commutator(a)), 2 * e)


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    p may be any real >= 1 or math.inf (operator norm).  p = 1 is the trace
    norm, p = 2 the Frobenius norm.
    """
    return schatten_norms(a, (p,))[p]


def schatten_norms(a: np.ndarray, p_list) -> dict:
    """{p: Schatten p-norm of A} for every p in p_list, from one SVD."""
    a = as_cmatrix(a)
    qs = [float(p) for p in p_list]
    for q in qs:
        if math.isnan(q) or q < 1:
            raise ValueError(f"Schatten index must satisfy p >= 1, got {q}")
    s = npl.svd(a, compute_uv=False)
    return {
        p: (float(s[0]) if s.size else 0.0) if math.isinf(q) else float(np.sum(s ** q) ** (1.0 / q))
        for p, q in zip(p_list, qs)
    }


@dataclass(frozen=True)
class SpectralDecomp:
    """A = basis @ diag(eigenvalues) @ basis*, with basis unitary.

    Only defined for (numerically) normal matrices.  eigenvalues are complex,
    ordered by ascending Re(exp(-it) l) with ties broken by ascending
    Im(exp(-it) l) inside each cluster, t the first of SPLIT_ANGLES whose
    basis reconstructs A.  Mostly t = 0: real part, then imaginary part.
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


@dataclass(frozen=True)
class SpectrumMove:
    """A normal matrix whose eigenvalues moved while its eigenbasis stayed.

    decomp holds the basis U and the new eigenvalues; perturbation_norm is
    max |new - old|, moved_count the number of eigenvalues that changed and
    bound the move's a priori bound on perturbation_norm.  details holds the
    numbers one kind of move reports beside these.  The output
    U diag(new) U* is built on first read.  Because U is kept,
    perturbation_norm is exactly ||U diag(new) U* - U diag(old) U*||, which
    is within the decomposition's residual (at most 1e-9 * ||A||) of
    ||output - A||.
    """

    decomp: SpectralDecomp
    perturbation_norm: float
    moved_count: int
    bound: float
    details: dict = field(default_factory=dict, kw_only=True)

    @classmethod
    def of(cls, dec: SpectralDecomp, new_eigs, bound: float, **extra) -> SpectrumMove:
        """The move of dec's eigenvalues to new_eigs, one per eigenvalue."""
        lam = dec.eigenvalues
        new = np.array(new_eigs, dtype=complex)
        if new.shape != lam.shape:
            raise ValueError("plane map must return one value per eigenvalue")
        return cls(
            SpectralDecomp(eigenvalues=new, basis=dec.basis),
            float(np.abs(new - lam).max(initial=0.0)),
            int(np.count_nonzero(new != lam)),
            bound,
            **extra,
        )

    @functools.cached_property
    def output(self) -> np.ndarray:
        return self.decomp.reconstruct()


def _operator_norm_over(m: np.ndarray, tol: float) -> float | None:
    """||M|| when it exceeds tol, else None; the SVD runs only when the
    Frobenius norm does not already clear tol."""
    if npl.norm(m) <= FRO_PRETEST * tol:
        return None
    nrm = operator_norm(m)
    return nrm if nrm > tol else None


def normal_spectral_decomp(a: np.ndarray) -> SpectralDecomp:
    """Unitary diagonalization of a normal matrix.

    Writes A = X + iY with X, Y Hermitian.  For each angle t of
    SPLIT_ANGLES in turn, diagonalizes cos t X + sin t Y, then
    diagonalizes -sin t X + cos t Y restricted to each eigenvalue cluster
    of the first (cluster width 1e-8 * ||A||); t = 0 uses X and Y
    themselves.  The first basis U with ||A - U diag(l) U*|| at most
    1e-9 * ||A|| is returned, l = diag(U* A U).  Raises NotNormal when no
    angle gives such a basis, or at once when ||[A*, A]|| exceeds
    4e-9 * ||A||^2, where no basis can.

    Each test bounds ||A|| by max_j ||A e_j|| <= ||A|| <= ||A||_F, O(n^2),
    and runs the SVD of A, once, only where that cannot decide it: every
    decision is the one the exact ||A|| gives.  The work runs on 2^-e A (see
    _pow2_scaled), so the eigenvalues of 2^k A are 2^k times those of A and
    the basis is the same.  Beside the input it holds about five n x n
    arrays at once: 2^-e A, U and the products of one step.  [A*, A] is
    dropped after its pre-test (and rebuilt for the final NotNormal), X and
    Y are rebuilt for each angle and dropped once diagonalized, and Y is
    built at t = 0 only when a cluster of two or more eigenvalues needs it.
    """
    a, e = _pow2_scaled(a)
    # the bracket, widened by 1e-12: far over the rounding of either bound or the SVD
    sq = np.einsum("ij,ij->j", a.real, a.real) + np.einsum("ij,ij->j", a.imag, a.imag)
    col, fro = math.sqrt(sq.max()) * (1 - 1e-12), math.sqrt(sq.sum()) * (1 + 1e-12)
    scale = functools.cache(lambda: operator_norm(a))

    def over(m, c, k):
        """||M|| when it exceeds c * RECONSTRUCT_TOL * ||A||^k, else None."""
        if npl.norm(m) <= FRO_PRETEST * (c * RECONSTRUCT_TOL * col ** k):
            return None
        return _operator_norm_over(m, c * RECONSTRUCT_TOL * scale() ** k)

    # T = U diag(l) U* is normal with ||T|| <= ||A||, so the paper's
    # inequality gives ||[A*, A]|| <= 4 ||A|| ||A - T|| for every basis
    defect = over(self_commutator(a), 4, 2)
    if defect is not None:
        raise NotNormal(_scale(defect, 2 * e), _scale(4 * RECONSTRUCT_TOL * scale() ** 2, 2 * e))

    best = math.inf
    for t in SPLIT_ANGLES:
        c, s = math.cos(t), math.sin(t)
        first, second = hermitian_part(a), None
        if t:
            y = (a - adjoint(a)) / 2j
            first, second = c * first + s * y, c * y - s * first
            del y
        vals, u = npl.eigh(first)
        del first
        # clusters: runs of consecutive eigenvalues closer than the width
        # (gaps all over it at fro >= ||A|| cut as they would at ||A||)
        gaps = np.diff(vals)
        width = fro if (gaps > CLUSTER_TOL * fro).all() else scale()
        cuts = [0, *(np.flatnonzero(gaps > CLUSTER_TOL * width) + 1), vals.size]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo < 2:
                continue
            if second is None:
                second = (a - adjoint(a)) / 2j
            block = u[:, lo:hi]
            yb = hermitian_part(adjoint(block) @ second @ block)
            _, w = npl.eigh(yb)
            u[:, lo:hi] = block @ w
        del second
        # diag(U* A U); a three-operand einsum would run as a naive n^3 loop
        lam = np.einsum("ij,ij->j", u.conj(), a @ u)
        prod = (u * lam) @ adjoint(u)
        residual = over(np.subtract(a, prod, out=prod), 1, 1)
        if residual is None:
            return SpectralDecomp(eigenvalues=_ldexp(lam, e), basis=u)
        best = min(best, residual)
        del prod
    defect = operator_norm(self_commutator(a))
    raise NotNormal(_scale(defect, 2 * e), _scale(RECONSTRUCT_TOL * scale(), e), _scale(best, e))
