"""Certified distance from normality via diagonal maximization.

For a fixed orthonormal basis u_1..u_n the best normal matrix sharing that
eigenbasis is T = sum_j (A u_j, u_j) u_j u_j*, and

    ||A - T||_F^2 = ||A||_F^2 - sum_j |(A u_j, u_j)|^2.

Maximizing sum_j |(U*AU)_jj|^2 over unitaries U therefore computes the
exact Frobenius distance from A to the normal matrices (the optimal T also
satisfies ||T|| <= ||A||).  The maximization runs Jacobi-style sweeps in
round-robin rounds of disjoint closed-form pivots: each sweep visits every
(i, j) plane once, in n - 1 rounds (n rounds for odd n) of floor(n/2)
disjoint pairs.  Each plane is optimized exactly over 2x2 unitaries by a
closed form (the numerical radius of the traceless 2x2 block, from the
elliptical range theorem), and a rotation is applied only when it strictly
improves the objective.  Disjoint pivots change disjoint diagonal entries,
so the gains of a round add exactly and the objective history is monotone.

The starts (the identity, then seeded Haar bases) run together through one
round kernel: each round gathers and rotates the 2x2 blocks of every start
that has not yet stopped.  The arithmetic is elementwise, so each start's
result is bitwise what it gives when run alone.

The matching lower bound ||[A*, A]||_p / (4 ||A||) holds for every
Schatten index p in [1, inf] against any normal T with ||T|| <= ||A||.

Every entry point scales its input by a power of two so that the largest
real or imaginary part of an entry lies in [1/2, 1), computes on that
matrix, and scales the results back.  Both steps are exact in binary
floating point, so the distance for 2^k A is bitwise 2^k times the
distance for A across the whole double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .core import (
    _ldexp,
    _pow2_scaled,
    _scale,
    adjoint,
    operator_norm,
    schatten_norm,
    self_commutator,
)
from .gallery import _haar


def _round_robin(n: int) -> list:
    """One sweep's rounds as (I, J) index arrays, I < J elementwise.

    Circle method: index 0 stays put while the others rotate one place per
    round; odd n is padded with a dummy index n whose pairs are dropped.
    Every unordered pair appears exactly once, and the pairs of a round are
    disjoint.
    """
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        order = [0] + ring
        pairs = [
            (min(p, q), max(p, q))
            for p, q in zip(order[: m // 2], order[::-1])
            if max(p, q) < n
        ]
        if pairs:
            i, j = zip(*pairs)
            rounds.append((np.array(i), np.array(j)))
        ring = ring[-1:] + ring[:-1]
    return rounds


def _plane_rotations(a, b, c, d, floor: float):
    """Optimal 2x2 unitaries for the blocks [[a, b], [c, d]], elementwise.

    Returns (keep, gain, x, y): keep marks the blocks whose exact gain,
    the increase of |d11|^2 + |d22|^2 under G* block G, exceeds `floor`
    (a block with zero off-diagonal never does), and
    G = [[x, -conj(y)], [y, conj(x)]] is the optimal unitary.  The
    trace is invariant, so the pivot maximizes |g* B g| over unit vectors g
    for the traceless part B = [[p, b], [c, -p]], p = (a - d)/2.  By the
    elliptical range theorem the numerical range of B is an ellipse
    centered at 0 with foci +-lam, lam^2 = p^2 + bc, and its farthest
    points lie along lam, where the top eigenvector of the Hermitian part
    of conj(lam/|lam|) B attains them.
    """
    p = (a - d) * 0.5
    lam = np.sqrt(p * p + b * c)
    ab, ac, al, ap = np.abs(b), np.abs(c), np.abs(lam), np.abs(p)
    gain = (ab * ab + ac * ac) * 0.5 + (al - ap) * (al + ap)
    keep = (gain > floor) & (ab + ac > 0.0)
    # any unit phase is optimal when lam = 0: the range is then a disc
    zero = al == 0.0
    e = (lam.conj() + zero) / (al + zero)
    # Hermitian part of e*B is [[h, k], [conj(k), -h]], eigenvalues +-rho
    h = (e * p).real
    k = (e * b + (e * c).conj()) * 0.5
    ah = np.abs(h)
    rho = np.hypot(ah, np.abs(k))
    # two forms of the same top eigenvector; take the one without cancellation
    t = rho + ah
    pos = h >= 0.0
    x = np.where(pos, t, k)
    y = np.where(pos, k.conj(), t)
    nrm = np.sqrt(2.0 * rho * t) + (rho == 0.0)
    return keep, gain, x / nrm, y / nrm


@dataclass(frozen=True)
class SweepOutcome:
    basis: np.ndarray
    rotated: np.ndarray
    objective: float
    history: tuple
    sweeps: int
    pivots: int
    converged: bool


def _diag_objective(b: np.ndarray) -> float:
    d = np.diagonal(b)
    return float(np.sum(d.real ** 2 + d.imag ** 2))


def _round_tables(active, rounds, n: int) -> list:
    """Per round, the flat and row indices of every active start's pivots.

    Entry (s, i, j) addresses b[s, i, j] of the (r, 2n, n) stack w at
    flat index (s*2n + i)*n + j, and row i of b[s] at row s*2n + i of
    w.reshape(r*2n, n).  Entries run start-major within a round.
    """
    tables = []
    for i, j in rounds:
        s = np.repeat(active, i.size)
        i, j = np.tile(i, active.size), np.tile(j, active.size)
        row_i, row_j = s * (2 * n) + i, s * (2 * n) + j
        tables.append((s, i, j, row_i, row_j, row_i * n + i, row_i * n + j,
                       row_j * n + i, row_j * n + j))
    return tables


def _run_sweeps(w, max_sweeps: int, obj_tol: float, fro2: float) -> list:
    """Round-robin sweeps over every start at once; one SweepOutcome each.

    w is the C-contiguous (r, 2n, n) stack of [U*AU; U] per start, so one
    column update rotates both, and it is rotated in place.  Each round
    gathers the 2x2 blocks of every active start in one go and rotates
    them together; the arithmetic is elementwise, so every start gets
    bitwise the result it gets alone.  A start that meets the stop rule
    drops out of the round tables.
    """
    r, n = w.shape[0], w.shape[2]
    flat, rows, cols = w.reshape(-1), w.reshape(r * 2 * n, n), w.transpose(0, 2, 1)
    rounds = _round_robin(n)
    history = [[_diag_objective(w[k, :n])] for k in range(r)]
    pivots = np.zeros(r, dtype=np.int64)
    converged = [False] * r
    # pivots below this gain cannot matter: even if every pivot of a sweep
    # forgoes the floor, the total stays two orders under the stop threshold
    floor = 0.02 * obj_tol * fro2 / max(1, n * (n - 1) // 2)
    active = np.arange(r)
    tables = _round_tables(active, rounds, n)
    for _ in range(max_sweeps):
        for s, i, j, row_i, row_j, ii, ij, ji, jj in tables:
            bii, bij, bji, bjj = flat[ii], flat[ij], flat[ji], flat[jj]
            keep, _, x, y = _plane_rotations(bii, bij, bji, bjj, floor)
            # realized-gain guard: the rotated diagonal of G* block G, whose
            # trace is that of the block
            new_ii = x.conj() * (bii * x + bij * y) + y.conj() * (bji * x + bjj * y)
            new_jj = (bii + bjj) - new_ii
            new_local = np.abs(new_ii) ** 2 + np.abs(new_jj) ** 2
            keep &= new_local > np.abs(bii) ** 2 + np.abs(bjj) ** 2
            if not keep.all():
                idx = np.flatnonzero(keep)
                if idx.size == 0:
                    continue
                s, i, j, row_i, row_j, ii, jj, x, y, new_ii, new_jj = (
                    v[idx] for v in (s, i, j, row_i, row_j, ii, jj, x, y, new_ii, new_jj)
                )
            xc, yc = x.conj()[:, None], y.conj()[:, None]
            x, y = x[:, None], y[:, None]
            ri, rj = rows[row_i], rows[row_j]
            rows[row_i] = xc * ri + yc * rj
            rows[row_j] = x * rj - y * ri
            ci, cj = cols[s, i], cols[s, j]
            cols[s, i] = ci * x + cj * y
            cols[s, j] = cj * xc - ci * yc
            flat[ii] = new_ii
            flat[jj] = new_jj
            pivots += np.bincount(s, minlength=r)
        for k in active:
            h = history[k]
            h.append(_diag_objective(w[k, :n]))
            converged[k] = h[-1] - h[-2] < obj_tol * fro2
        if any(converged[k] for k in active):
            active = np.flatnonzero(np.logical_not(converged))
            if active.size == 0:
                break
            tables = _round_tables(active, rounds, n)
    return [
        SweepOutcome(
            basis=w[k, n:],
            rotated=w[k, :n],
            objective=history[k][-1],
            history=tuple(history[k]),
            sweeps=len(history[k]) - 1,
            pivots=int(pivots[k]),
            converged=converged[k],
        )
        for k in range(r)
    ]


def _starts(a, seed, restarts) -> np.ndarray:
    """The (restarts, 2n, n) stack of [U*AU; U]: the identity, then seeded
    Haar bases, each start's product taken on its own."""
    n = a.shape[0]
    w = np.empty((restarts, 2 * n, n), dtype=complex)
    for k in range(restarts):
        if k == 0:
            u0 = np.eye(n, dtype=complex)
        else:
            u0 = _haar(n, np.random.default_rng([int(seed), k]))
        w[k, :n] = adjoint(u0) @ a @ u0
        w[k, n:] = u0
    return w


def _optimize(a, seed, restarts, max_sweeps, obj_tol) -> list:
    """One SweepOutcome per start: the identity, then seeded Haar bases."""
    if seed is None:
        raise ValueError("a seed is required; all randomness flows from it")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    fro2 = float(npl.norm(a) ** 2)
    if fro2 == 0.0:
        fro2 = 1.0
    return _run_sweeps(_starts(a, seed, restarts), max_sweeps, obj_tol, fro2)


def _best(runs) -> SweepOutcome:
    # the earliest start wins a tie
    return max(runs, key=lambda r: r.objective)


def commutator_lower_bound(a, p) -> float:
    """||[A*, A]||_p / (4 ||A||); a floor under the distance to any normal
    matrix T with ||T|| <= ||A||.  Zero for the zero matrix."""
    a, e = _pow2_scaled(a)
    nrm = operator_norm(a)
    if nrm == 0.0:
        return 0.0
    return _scale(schatten_norm(self_commutator(a), p) / (4.0 * nrm), e)


@dataclass(frozen=True)
class DistanceReport:
    witness: np.ndarray
    basis: np.ndarray
    distances: dict
    # ||A - witness||_F: an upper bound on the distance to the normal
    # matrices, equal to it only at a global maximum of the objective
    # (up to the ~1e-8 ||A||_F rounding of its difference of squares)
    frobenius_exact: float
    lower_bounds: dict
    objective: float
    objective_history: tuple
    sweeps: int
    converged: bool
    # one entry per start, in start order; pivots count applied rotations
    restart_objectives: tuple
    restart_sweeps: tuple
    restart_pivots: tuple


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

    frobenius_exact = sqrt(||A||_F^2 - objective) is the Frobenius
    distance from A to the witness, so it is an upper bound on the distance
    to the normal matrices, equal to it only when the objective is the
    global maximum.  As a difference of squares it carries a rounding
    error of about 1e-8 ||A||_F.  distances[p] measures the witness in each
    requested Schatten norm and always dominates the commutator lower
    bound.  The objectives are squared norms, so they overflow to inf for
    entries past about 2^511 while every distance and bound stays finite.
    """
    a, e = _pow2_scaled(a)
    runs = _optimize(a, seed, restarts, max_sweeps, obj_tol)
    out = _best(runs)
    u = out.basis
    diag = np.diagonal(out.rotated).copy()
    witness = (u * diag) @ adjoint(u)
    fro2 = float(npl.norm(a) ** 2)
    frob_exact = math.sqrt(max(fro2 - out.objective, 0.0))
    diff = a - witness
    distances = {p: _scale(schatten_norm(diff, p), e) for p in p_list}
    lower = {p: _scale(commutator_lower_bound(a, p), e) for p in p_list}
    return DistanceReport(
        witness=_ldexp(witness, e),
        basis=u,
        distances=distances,
        frobenius_exact=_scale(frob_exact, e),
        lower_bounds=lower,
        objective=_scale(out.objective, 2 * e),
        objective_history=tuple(_scale(h, 2 * e) for h in out.history),
        sweeps=out.sweeps,
        converged=out.converged,
        restart_objectives=tuple(_scale(r.objective, 2 * e) for r in runs),
        restart_sweeps=tuple(r.sweeps for r in runs),
        restart_pivots=tuple(r.pivots for r in runs),
    )
