"""Certified distance from normality via diagonal maximization.

For a fixed orthonormal basis u_1..u_n the best normal matrix sharing that
eigenbasis is T = sum_j (A u_j, u_j) u_j u_j*, and

    ||A - T||_F^2 = ||A||_F^2 - sum_j |(A u_j, u_j)|^2.

Maximizing sum_j |(U*AU)_jj|^2 over unitaries U therefore computes the
exact Frobenius distance from A to the normal matrices (the optimal T also
satisfies ||T|| <= ||A||).  The maximization runs cyclic Jacobi-style
sweeps: each (i, j) plane is optimized exactly over 2x2 unitaries by a
closed form (the numerical radius of the traceless 2x2 block, from the
elliptical range theorem), and a rotation is applied only when it strictly
improves the objective, so the objective history is monotone.

The matching lower bound ||[A*, A]||_p / (4 ||A||) holds for every
Schatten index p in [1, inf] against any normal T with ||T|| <= ||A||.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .core import adjoint, as_cmatrix, operator_norm, schatten_norm, self_commutator
from .gallery import _haar


def _best_plane_rotation(a: complex, b: complex, c: complex, d: complex, floor: float = 0.0):
    """Optimal 2x2 unitary for the block [[a, b], [c, d]].

    Returns (gain, G) where gain is the exact increase of |d11|^2 + |d22|^2
    under G* block G and G the 2x2 unitary, or None when the gain does not
    exceed `floor`.  The trace is invariant, so the pivot maximizes |g* B g|
    over unit vectors g for the traceless part B = [[p, b], [c, -p]],
    p = (a - d)/2.  By the elliptical range theorem the numerical range of B
    is an ellipse centered at 0 with foci +-lam, lam^2 = p^2 + bc, and its
    farthest points lie along lam, where the top eigenvector of the
    Hermitian part of conj(lam/|lam|) B attains them.
    """
    if b == 0 and c == 0:
        return None
    # numpy scalars pay ~10x per arithmetic op
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    p = 0.5 * (a - d)
    lam = cmath.sqrt(p * p + b * c)
    gain = 0.5 * (abs(b) ** 2 + abs(c) ** 2) + abs(lam) ** 2 - abs(p) ** 2
    if gain <= floor:
        return None
    # any unit phase is optimal when lam = 0: the range is then a disc
    e = lam.conjugate() / abs(lam) if lam != 0 else 1.0
    # Hermitian part of e*B is [[h, k], [conj(k), -h]], eigenvalues +-rho
    h = (e * p).real
    k = 0.5 * (e * b + (e * c).conjugate())
    rho = math.hypot(h, abs(k))
    # two forms of the same top eigenvector; take the one without cancellation
    if h >= 0.0:
        x, y = complex(rho + h), k.conjugate()
    else:
        x, y = k, complex(rho - h)
    nrm = math.sqrt(2.0 * rho * (rho + abs(h)))
    x, y = x / nrm, y / nrm
    g = np.array([[x, -y.conjugate()], [y, x.conjugate()]], dtype=complex)
    return gain, g


@dataclass(frozen=True)
class SweepOutcome:
    basis: np.ndarray
    rotated: np.ndarray
    objective: float
    history: tuple
    sweeps: int
    converged: bool


def _diag_objective(b: np.ndarray) -> float:
    d = np.diagonal(b)
    return float(np.sum(d.real ** 2 + d.imag ** 2))


def _run_sweeps(a, u0, max_sweeps: int, obj_tol: float, fro2: float) -> SweepOutcome:
    n = a.shape[0]
    u = u0.copy()
    b = adjoint(u) @ a @ u
    obj = _diag_objective(b)
    history = [obj]
    converged = False
    sweeps = 0
    # pivots below this gain cannot matter: even if every pivot of a sweep
    # forgoes the floor, the total stays two orders under the stop threshold
    floor = 0.02 * obj_tol * fro2 / max(1, n * (n - 1) // 2)
    for _ in range(max_sweeps):
        for i in range(n - 1):
            for j in range(i + 1, n):
                found = _best_plane_rotation(
                    b[i, i], b[i, j], b[j, i], b[j, j], floor
                )
                if found is None:
                    continue
                _, g = found
                block = np.array([[b[i, i], b[i, j]], [b[j, i], b[j, j]]])
                new_block = adjoint(g) @ block @ g
                old_local = (
                    abs(b[i, i]) ** 2 + abs(b[j, j]) ** 2
                )
                new_local = abs(new_block[0, 0]) ** 2 + abs(new_block[1, 1]) ** 2
                if not new_local > old_local:
                    continue
                idx = [i, j]
                b[idx, :] = adjoint(g) @ b[idx, :]
                b[:, idx] = b[:, idx] @ g
                b[np.ix_(idx, idx)] = new_block
                u[:, idx] = u[:, idx] @ g
        sweeps += 1
        obj = _diag_objective(b)
        history.append(obj)
        if obj - history[-2] < obj_tol * fro2:
            converged = True
            break
    return SweepOutcome(
        basis=u,
        rotated=b,
        objective=history[-1],
        history=tuple(history),
        sweeps=sweeps,
        converged=converged,
    )


def _optimize(a, seed, restarts, max_sweeps, obj_tol) -> SweepOutcome:
    a = as_cmatrix(a)
    if seed is None:
        raise ValueError("a seed is required; all randomness flows from it")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n = a.shape[0]
    fro2 = float(npl.norm(a) ** 2)
    if fro2 == 0.0:
        fro2 = 1.0
    best = None
    for k in range(restarts):
        if k == 0:
            u0 = np.eye(n, dtype=complex)
        else:
            u0 = _haar(n, np.random.default_rng([int(seed), k]))
        out = _run_sweeps(a, u0, max_sweeps, obj_tol, fro2)
        if best is None or out.objective > best.objective:
            best = out
    return best


def maximize_diagonal(
    a, *, seed: int, restarts: int = 4, max_sweeps: int = 200, obj_tol: float = 1e-12
) -> np.ndarray:
    """Unitary u maximizing sum_j |(u* A u)_jj|^2 by monotone plane sweeps.

    The first start is the identity basis; the remaining restarts use
    seeded Haar-random bases, and the best run is returned.
    """
    return _optimize(a, seed, restarts, max_sweeps, obj_tol).basis


def commutator_lower_bound(a, p) -> float:
    """||[A*, A]||_p / (4 ||A||); a floor under the distance to any normal
    matrix T with ||T|| <= ||A||.  Zero for the zero matrix."""
    a = as_cmatrix(a)
    nrm = operator_norm(a)
    if nrm == 0.0:
        return 0.0
    return schatten_norm(self_commutator(a), p) / (4.0 * nrm)


@dataclass(frozen=True)
class DistanceReport:
    witness: np.ndarray
    basis: np.ndarray
    distances: dict
    frobenius_exact: float
    lower_bounds: dict
    objective: float
    objective_history: tuple
    sweeps: int
    converged: bool


def nearest_normal(
    a,
    p_list=(1, 2, math.inf),
    *,
    seed: int,
    restarts: int = 4,
    max_sweeps: int = 200,
    obj_tol: float = 1e-12,
) -> DistanceReport:
    """Normal witness T from the maximizing basis, with distance panel.

    frobenius_exact = sqrt(||A||_F^2 - objective) is the certified
    Frobenius distance for the achieved objective; distances[p] measures
    the witness in each requested Schatten norm and always dominates the
    commutator lower bound.
    """
    a = as_cmatrix(a)
    out = _optimize(a, seed, restarts, max_sweeps, obj_tol)
    u = out.basis
    diag = np.diagonal(out.rotated).copy()
    witness = (u * diag) @ adjoint(u)
    fro2 = float(npl.norm(a) ** 2)
    frob_exact = math.sqrt(max(fro2 - out.objective, 0.0))
    diff = a - witness
    distances = {p: schatten_norm(diff, p) for p in p_list}
    lower = {p: commutator_lower_bound(a, p) for p in p_list}
    return DistanceReport(
        witness=witness,
        basis=u,
        distances=distances,
        frobenius_exact=frob_exact,
        lower_bounds=lower,
        objective=out.objective,
        objective_history=out.history,
        sweeps=out.sweeps,
        converged=out.converged,
    )
