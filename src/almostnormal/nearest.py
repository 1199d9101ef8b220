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
that has not yet stopped.  The starts of several matrices share it too, each
zero-padded to the largest dimension and taking its own matrix's rounds, so
the scatter and truncation tables run one kernel for all their members.
Pivots never touch the padding and the arithmetic is elementwise, so each
start's result is bitwise what it gives when run alone.  One base seed s
drives every start: Haar start j of member k draws from
default_rng([s + k, j]), so member k of a table is bitwise
nearest_normal(member, seed=s + k).

Near a maximum with small curvature the sweeps gain linearly and slowly.  A
start whose sweep gains turn small and shrink by less than a factor 4 per
sweep leaves the rounds for a Riemannian trust-region finish (Absil, Mahony
& Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 7):
truncated-CG Newton steps on the analytic gradient and Hessian, each
retracted as U <- U e^X with B = U*AU recomputed from A, and taken only
when the objective strictly rises.  The finish runs per start, so each
start stays bitwise what it gives alone.  A start stops by "tolerance"
when its last sweep gained, or its next trust-region step would gain, less
than obj_tol * ||A||_F^2, and by "cap" after max_sweeps sweeps and steps.

The matching lower bound ||[A*, A]||_p / (4 ||A||) holds for every
Schatten index p in [1, inf] against any normal T with ||T|| <= ||A||.

Every entry point scales its input by a power of two so that the largest
real or imaginary part of an entry lies in [1/2, 1), computes on that
matrix, and scales the results back.  Both steps are exact in binary
floating point, so the distance for 2^k A is bitwise 2^k times the
distance for A across the whole double range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .core import (
    MAX_SWEEPS,
    OBJ_TOL,
    _ldexp,
    _pow2_scaled,
    _scale,
    adjoint,
    operator_norm,
    schatten_norms,
    self_commutator,
)
from .gallery import _check_seed, _haar

# A start leaves the rounds for the trust-region finish once a sweep gains
# less than SWITCH_GAIN * ||A||_F^2 and more than 1/SWITCH_RATIO of the sweep
# before it: the Jacobi tail has turned linear.  Quadratically converging
# starts shrink their gain faster than that and finish in the rounds.  On
# complex Gaussian n = 32 inputs the tail is linear from the second sweep,
# so SWITCH_GAIN alone sets the switch.  A lower value only adds linear
# sweeps (9-14 at 1e-3, 29-111 at 1e-6) before a finish that reaches the
# same maximum; from 3e-3 up the finish starts far enough out to reach a
# different, sometimes lower, local maximum.
SWITCH_GAIN = 1e-3
SWITCH_RATIO = 4.0
# rounding allowance in the trust-region ratio, relative to ||A||_F^2
RHO_REG = 1e3 * np.finfo(float).eps
# plane-block eigenvalues below this fraction of the largest are raised to it
PRECOND_FLOOR = 1e-2
# the first trust region, in preconditioned gradient steps
FIRST_RADIUS = 4.0


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


@functools.cache
def _pairs(n: int) -> tuple:
    """np.triu_indices(n, 1) as (j, k), and the n x n map that lays [v, w, 0]
    out as a table: v_i at (j_i, k_i), w_i at (k_i, j_i), 0 on the diagonal."""
    j, k = np.triu_indices(n, 1)
    at = np.full((n, n), 2 * j.size)
    at[j, k], at[k, j] = np.arange(j.size), np.arange(j.size, 2 * j.size)
    return j, k, at


@dataclass(frozen=True)
class SweepOutcome:
    basis: np.ndarray
    rotated: np.ndarray
    # one entry before the first sweep, then one per sweep or trust-region step
    history: tuple
    pivots: int
    # "tolerance" or "cap"
    stop_reason: str
    # ||grad|| / ||A||_F^2 at the returned basis
    stationarity: float

    @property
    def objective(self) -> float:
        return self.history[-1]

    @property
    def sweeps(self) -> int:
        return len(self.history) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


def _diag_objective(b: np.ndarray) -> float:
    d = np.diagonal(b)
    return float(np.sum(d.real ** 2 + d.imag ** 2))


def _horizontal(z: np.ndarray) -> np.ndarray:
    """(Z - Z*)/2 with the diagonal zeroed: the tangent directions that move
    the objective (the phases iE_jj leave every |b_jj| fixed)."""
    x = (z - z.conj().T) * 0.5
    np.fill_diagonal(x, 0.0)
    return x


def _gradient(b: np.ndarray) -> np.ndarray:
    """Riemannian gradient of sum_j |b_jj|^2 at B = U*AU, for the step
    U e^X and the inner product Re tr(X*Y): P(2 (D'B - BD')*) with
    D' = conj(diag B), entrywise 2 (conj(d_j) - conj(d_k)) B_jk."""
    dc = np.diagonal(b).conj()
    return _horizontal((dc[None, :] - dc[:, None]) * b * 2.0)


class _Hessian:
    """Riemannian Hessian of the objective at B, applied to horizontal X.

    With C = diag [B, X] and D' = conj(diag B),
    Hess[X] = P(2 (C'B - BC')* + K*) where C' = conj(C) and
    K = D'BX + XD'B - 2BXD' - 2D'XB + BD'X + XBD', from the expansion
    f(U e^X) = f + 2 Re tr(D'[B,X]) + |diag [B,X]|^2 + Re tr(D'[[B,X],X]) + O(|X|^3).
    Each product costs two matrix products against stacked factors (and
    P(Z*) = -P(Z) spares the transposes).  precondition() inverts the
    Hessian's 2x2 blocks on the planes (j, k), for truncated CG.

    numpy's complex multiply fuses a multiply and an add, so a*b and b*a can
    differ in the last bit: every product here keeps its formula's operand order.
    """

    def __init__(self, b: np.ndarray):
        self.b = b
        self.dc = np.diagonal(b).conj().copy()
        n = b.shape[0]
        self.left = np.concatenate([b, b * self.dc])             # [B; BD']
        self.right = np.concatenate([b, self.dc[:, None] * b], 1)  # [B, D'B]
        self.n = n
        # a product's workspace: [BX; BXD'], [XB, XD'B] and two n x n sums
        self.work = [np.empty(shape, complex) for shape in ((2 * n, n), (n, 2 * n), (n, n), (n, n))]
        # The block of -Hess on the plane (j, k), X_jk = z = -conj(X_kj),
        # is z -> p z + s conj(z) with p = 2(|d_j - d_k|^2 - |b_jk|^2 - |b_kj|^2)
        # and s = -4 b_jk conj(b_kj): eigenvalues p +- |s| along
        # e^{i arg(s)/2} and i e^{i arg(s)/2}.  Floored, they precondition CG.
        j, k, at = _pairs(n)
        bjk, bkj = b[j, k], b[k, j]
        p = 2.0 * (np.abs(self.dc[j] - self.dc[k]) ** 2 - np.abs(bjk) ** 2 - np.abs(bkj) ** 2)
        s = -4.0 * bjk * bkj.conj()
        top = p + np.abs(s)
        # the blocks' scale, never under ||B||_F^2 / n
        self.scale = max(top.max(initial=0.0), np.vdot(b, b).real / n)
        floor = PRECOND_FLOOR * self.scale or 1.0
        # n x n tables: plane (j, k) at (j, k) and (k, j), its phase conjugated at (k, j)
        phase = np.exp(0.5j * np.angle(s))
        self.phase = np.concatenate((phase, phase.conj(), [0.0]))[at]
        self.phase_conj = self.phase.conj()
        inv_top, inv_low = 1.0 / np.maximum(top, floor), 1.0 / np.maximum(p - np.abs(s), floor)
        self.inv_top = np.concatenate((inv_top, inv_top, [0.0]))[at]
        self.inv_low = np.concatenate((inv_low, inv_low, [0.0]))[at]

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The inverse of the floored plane blocks of -Hess, applied to horizontal r."""
        t = r * self.phase_conj
        return self.phase * (t.real * self.inv_top + 1j * (t.imag * self.inv_low))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n, b, dc = self.n, self.b, self.dc
        bx_e2x, xb_xe1, k, y = self.work
        np.matmul(self.left, x, bx_e2x)
        np.matmul(x, self.right, xb_xe1)
        bx, xb = bx_e2x[:n], xb_xe1[:, :n]
        cc = (bx.diagonal() - xb.diagonal()).conj()
        # y = (cc[:, None] - cc[None, :]) * b * 2.0 + k, with
        # k = dc[:, None] * (bx - 2.0 * xb) + (xb - 2.0 * bx) * dc + xb_xe1[:, n:] + bx_e2x[n:]
        np.multiply(dc[:, None], np.subtract(bx, np.multiply(2.0, xb, k), k), k)
        k += np.multiply(np.subtract(xb, np.multiply(2.0, bx, y), y), dc, y)
        k += xb_xe1[:, n:]
        k += bx_e2x[n:]
        np.multiply(np.multiply(np.subtract(cc[:, None], cc, y), b, y), 2.0, y)
        y += k
        return -_horizontal(y)


def _round_tables(rounds, floors, n: int) -> list:
    """Per round, the flat and row indices of every start's pivots, and each
    pivot's gain floor.

    Round t takes start s's own round t of rounds[s] while it has one.
    Entry (s, i, j) addresses b[s, i, j] of the (r, 2n, n) stack w at
    flat index (s*2n + i)*n + j, and row i of b[s] at row s*2n + i of
    w.reshape(r*2n, n).  Entries run start-major within a round.
    """
    tables = []
    for t in range(max(map(len, rounds), default=0)):
        live = [k for k, rk in enumerate(rounds) if t < len(rk)]
        i = np.concatenate([rounds[k][t][0] for k in live])
        j = np.concatenate([rounds[k][t][1] for k in live])
        s = np.repeat(live, [rounds[k][t][0].size for k in live])
        row_i, row_j = s * (2 * n) + i, s * (2 * n) + j
        tables.append((s, i, j, row_i, row_j, row_i * n + i, row_i * n + j,
                       row_j * n + i, row_j * n + j, floors[s]))
    return tables


def _run_sweeps(w, dims, max_sweeps: int, obj_tol: float, fro2) -> tuple:
    """Round-robin sweeps over every start at once; returns per start the
    objective history, the rotations applied and the stop reason.

    w is the C-contiguous (r, 2n, n) stack of [U*AU; U] per start, start k
    holding its dims[k] x dims[k] blocks at the top left of each half and
    zeros elsewhere, so one column update rotates both; it is rotated in
    place.  A sweep runs as many rounds as the largest active start needs,
    and each round gathers the 2x2 blocks of every active start in one go,
    start k taking its own round of _round_robin(dims[k]).  Pivots never
    touch the padding and the arithmetic is elementwise, so every start
    gets bitwise the result it gets alone.  A start drops out of the round
    tables when its sweep gain falls under obj_tol * fro2[k] (stop reason
    "tolerance") or when its tail turns slow and linear (stop reason
    "switch", for the trust-region finish); starts still in the rounds
    after max_sweeps stop at the "cap".
    """
    r, n = w.shape[0], w.shape[2]
    flat, rows, cols = w.reshape(-1), w.reshape(r * 2 * n, n), w.transpose(0, 2, 1)
    by_dim = {m: _round_robin(m) for m in set(dims)}
    # (start, objective) per group of equal dimension: each start sums its own
    # diagonal, one row of an array, as trailing zeros change pairwise sums
    groups = [(m, np.flatnonzero(np.equal(dims, m))) for m in by_dim]
    diag = w.diagonal(0, 1, 2)

    def objectives():
        q = diag.real ** 2 + diag.imag ** 2
        return [kf for m, ks in groups for kf in zip(ks.tolist(), q[ks, :m].sum(axis=1).tolist())]

    history = [[f] for _, f in sorted(objectives())]
    pivots = np.zeros(r, dtype=np.int64)
    stop = [None] * r
    # pivots below this gain cannot matter: even if every pivot of a sweep
    # forgoes the floor, the total stays two orders under the stop threshold
    floors = np.array([0.02 * obj_tol * f / max(1, m * (m - 1) // 2) for m, f in zip(dims, fro2)])
    # built once; a start that stops is filtered out of them
    tables = _round_tables([by_dim[m] for m in dims], floors, n)
    for _ in range(max_sweeps):
        for s, i, j, row_i, row_j, ii, ij, ji, jj, floor in tables:
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
        objs = objectives()
        for k, f in objs:
            h = history[k]
            h.append(f)
            gain = h[-1] - h[-2]
            if gain < obj_tol * fro2[k]:
                stop[k] = "tolerance"
            elif (len(h) > 2 and gain < SWITCH_GAIN * fro2[k]
                  and gain * SWITCH_RATIO > h[-2] - h[-3]):
                stop[k] = "switch"
        if any(stop[k] for k, _ in objs):
            live = np.array([reason is None for reason in stop])
            if not live.any():
                break
            groups = [(m, ks[live[ks]]) for m, ks in groups if live[ks].any()]
            tables = [tuple(v[on] for v in t) for t in tables if (on := live[t[0]]).any()]
    return history, pivots.tolist(), [reason or "cap" for reason in stop]


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    return np.vdot(x, y).real


def _tcg(grad, hess, radius: float, max_inner: int):
    """Steihaug-Toint truncated CG for max <g, X> + <X, Hess X>/2 over
    horizontal X with ||X||_M <= radius, preconditioned by M, the floored
    plane blocks of -Hess (Absil, Mahony & Sepulchre, 2008, ch. 7).

    Works on the minimization of the negated model.  Returns (X, Hess X,
    ||X||_M, on_boundary).  CG stops at nonpositive curvature or at the
    boundary, where it steps out to the radius, at the residual target, or
    after max_inner products.
    """
    eta = np.zeros_like(grad)
    h_eta = np.zeros_like(grad)
    r = -grad
    z = hess.precondition(r)
    z_r = _inner(z, r)
    if z_r <= 0.0:
        return eta, h_eta, 0.0, False
    d = -z
    # <eta, M eta>, <eta, M d> and <d, M d>, by recurrence
    e_pe, e_pd, d_pd = 0.0, 0.0, z_r
    r0 = math.sqrt(_inner(r, r))
    target = r0 * min(r0, 0.1)
    for _ in range(max_inner):
        h_d = hess(d)
        d_hd = -_inner(d, h_d)
        alpha = z_r / d_hd if d_hd > 0.0 else math.inf
        e_pe_new = e_pe + 2.0 * alpha * e_pd + alpha * alpha * d_pd
        if d_hd <= 0.0 or e_pe_new >= radius * radius:
            tau = (math.sqrt(e_pd * e_pd + d_pd * (radius * radius - e_pe)) - e_pd) / d_pd
            return eta + tau * d, h_eta + tau * h_d, radius, True
        e_pe = e_pe_new
        eta, h_eta = eta + alpha * d, h_eta + alpha * h_d
        r = r - alpha * h_d
        if math.sqrt(_inner(r, r)) <= target:
            break
        z = hess.precondition(r)
        z_r, z_r_old = _inner(z, r), z_r
        beta = z_r / z_r_old
        d = beta * d - z
        e_pd = beta * (e_pd + alpha * d_pd)
        d_pd = z_r + beta * beta * d_pd
    return eta, h_eta, math.sqrt(e_pe), False


def _retract(u: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """U e^eta for horizontal (skew-Hermitian) eta, from eigh of i eta."""
    lam, v = npl.eigh(1j * eta)
    return u @ ((v * np.exp(-1j * lam)) @ adjoint(v))


def _finish(a, u, b, history: list, max_sweeps: int, obj_tol: float, fro2: float) -> tuple:
    """Riemannian trust-region finish for a start that left the rounds at
    basis u with b = u*Au: extends its history and returns (U, B, stop
    reason), never writing into u or b.

    Each step maximizes the second-order model over the trust region by
    truncated CG, retracts U <- U e^eta and recomputes B = U*AU from A, so
    the rotated matrix stays the witness's own.  A step is taken only when
    the objective strictly rises; every step, taken or not, appends the
    objective to the history and counts against max_sweeps.  The start
    stops by "tolerance" after a step whose model gain was under
    obj_tol * fro2, unless that step reached the boundary of a region
    that then grew: a wider region may hold more.
    """
    if len(history) > max_sweeps:  # switched on its last sweep: no step to take
        return u, b, "cap"
    n = a.shape[0]
    f = history[-1]
    reg = RHO_REG * fro2
    grad, hess = _gradient(b), _Hessian(b)
    # the first region holds a few preconditioned gradient steps; the widest
    # holds every step of Frobenius norm up to pi sqrt(n), as M <= hess.scale
    max_radius = math.pi * math.sqrt(n * hess.scale)
    radius = min(max_radius, FIRST_RADIUS * math.sqrt(_inner(grad, hess.precondition(grad))))
    while True:
        eta, h_eta, eta_norm, on_boundary = _tcg(grad, hess, radius, 2 * n)
        predicted = _inner(grad, eta) + 0.5 * _inner(eta, h_eta)
        u_new = _retract(u, eta)
        b_new = adjoint(u_new) @ a @ u_new
        f_new = _diag_objective(b_new)
        rho = (f_new - f + reg) / (predicted + reg)
        accept = rho > 0.1 and f_new > f
        grows = False
        if rho < 0.25 or not accept:
            radius = 0.25 * eta_norm
        elif rho > 0.75 and on_boundary and radius < max_radius:
            radius, grows = min(2.0 * radius, max_radius), True
        if accept:
            u, b, f = u_new, b_new, f_new
        history.append(f)
        if predicted < obj_tol * fro2 and not grows:
            return u, b, "tolerance"
        if len(history) > max_sweeps:
            return u, b, "cap"
        # built only for a step still to come
        if accept:
            grad, hess = _gradient(b), _Hessian(b)


def _solve(mats, w, max_sweeps: int, obj_tol: float) -> list:
    """The rounds for every start of the stack w, mats[k] the matrix of
    start k, then the trust-region finish for each start that switched;
    one SweepOutcome per start."""
    big, dims = w.shape[2], [a.shape[0] for a in mats]
    fro2 = [float(npl.norm(a) ** 2) or 1.0 for a in mats]
    runs = []
    for k, (history, pivots, reason) in enumerate(zip(*_run_sweeps(w, dims, max_sweeps, obj_tol, fro2))):
        n = dims[k]
        u, b = w[k, big:big + n, :n], w[k, :n, :n]
        if n < big:
            # a padded start's blocks are copied out of the shared stack
            u, b = u.copy(), b.copy()
        if reason == "switch":
            u, b, reason = _finish(mats[k], u, b, history, max_sweeps, obj_tol, fro2[k])
        runs.append(SweepOutcome(
            basis=u,
            rotated=b,
            history=tuple(history),
            pivots=pivots,
            stop_reason=reason,
            stationarity=float(npl.norm(_gradient(b))) / fro2[k],
        ))
    return runs


def _starts(mats, seed, restarts) -> np.ndarray:
    """The zero-padded (len(mats) * restarts, 2N, N) stack of [U*AU; U], N
    the largest dimension, member by member: the identity, then Haar bases
    seeded by [seed + member, start], each start's product taken on its own."""
    big = max((a.shape[0] for a in mats), default=0)
    w = np.zeros((len(mats) * restarts, 2 * big, big), dtype=complex)
    for k in range(w.shape[0]):
        a, start = mats[k // restarts], k % restarts
        n = a.shape[0]
        if start == 0:
            u0 = np.eye(n, dtype=complex)
        else:
            u0 = _haar(n, np.random.default_rng([seed + k // restarts, start]))
        w[k, :n, :n] = adjoint(u0) @ a @ u0
        w[k, big:big + n, :n] = u0
    return w


def _commutator_floors(a, p_list) -> dict:
    """{p: ||[A*, A]||_p / (4 ||A||)} for a power-of-two scaled A, from one
    SVD of A and one of [A*, A].  Zero for the zero matrix, whose p are
    checked all the same."""
    nrm = operator_norm(a)
    norms = schatten_norms(self_commutator(a), p_list)
    return {p: v / (4.0 * nrm) if nrm else 0.0 for p, v in norms.items()}


def commutator_lower_bound(a, p) -> float:
    """||[A*, A]||_p / (4 ||A||); a floor under the distance to any normal
    matrix T with ||T|| <= ||A||.  Zero for the zero matrix."""
    a, e = _pow2_scaled(a)
    return _scale(_commutator_floors(a, (p,))[p], e)


@dataclass(frozen=True)
class DistanceReport:
    """Each reported field declares its side of the true distance to the
    normal matrices: "upper" lies above it, "lower" below it, "exact" is the
    computed value itself, and a "counter" counts or classifies the run."""

    witness: np.ndarray
    basis: np.ndarray
    distances: dict = field(metadata={"side": "upper"})
    # ||A - witness||_F, equal to the distance only at a global maximum
    frobenius_exact: float = field(metadata={"side": "upper"})
    lower_bounds: dict = field(metadata={"side": "lower"})
    objective: float = field(metadata={"side": "exact"})
    objective_history: tuple = field(metadata={"side": "exact"})
    sweeps: int = field(metadata={"side": "counter"})
    converged: bool = field(metadata={"side": "counter"})
    # one entry per start, in start order; pivots count applied rotations
    restart_objectives: tuple = field(metadata={"side": "exact"})
    restart_sweeps: tuple = field(metadata={"side": "counter"})
    restart_pivots: tuple = field(metadata={"side": "counter"})
    # "tolerance" (the next step would gain under obj_tol * ||A||_F^2) or
    # "cap" (max_sweeps reached first), and ||grad|| / ||A||_F^2 at the end
    restart_stop_reasons: tuple = field(metadata={"side": "counter"})
    restart_stationarity: tuple = field(metadata={"side": "exact"})


def nearest_normal(
    a,
    p_list=(1, 2, math.inf),
    *,
    seed: int,
    restarts: int = 4,
    max_sweeps: int = MAX_SWEEPS,
    obj_tol: float = OBJ_TOL,
) -> DistanceReport:
    """Normal witness T from the maximizing basis, with distance panel.

    max_sweeps caps the sweeps plus trust-region steps of each start, and
    sweeps counts them for the best start; converged and the per-start
    stop reasons say whether obj_tol or the cap stopped it, and
    restart_stationarity gives ||grad|| / ||A||_F^2 where each start ended.
    frobenius_exact is the Frobenius norm of the off-diagonal part of U*AU,
    i.e. the Frobenius distance from A to the witness.  distances[p]
    measures the witness in each requested Schatten norm and always
    dominates the commutator lower bound.  The objectives are squared
    norms, so they overflow to inf for entries past about 2^511 while every
    distance and bound stays finite.
    """
    return _nearest_normals([a], p_list, seed, restarts, max_sweeps, obj_tol)[0]


def _nearest_normals(mats, p_list, seed, restarts, max_sweeps, obj_tol) -> list:
    """nearest_normal for each matrix of mats, member k seeded with seed + k.

    Every start of every member runs through one round kernel, and each
    report is bitwise the one nearest_normal gives for its member alone.
    """
    if seed is None:
        raise ValueError("a seed is required; all randomness flows from it")
    seed = _check_seed(seed)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    if not 0.0 <= obj_tol < math.inf:
        raise ValueError(f"obj_tol must be finite and >= 0, got {obj_tol}")
    scaled = [_pow2_scaled(a) for a in mats]
    # the floors check every member's p before any start runs
    lowers = [{p: _scale(v, e) for p, v in _commutator_floors(a, p_list).items()} for a, e in scaled]
    members = [a for a, _ in scaled]
    starts = _solve([a for a in members for _ in range(restarts)],
                    _starts(members, seed, restarts), max_sweeps, obj_tol)
    reports = []
    for k, ((a, e), lower) in enumerate(zip(scaled, lowers)):
        runs = starts[k * restarts:(k + 1) * restarts]
        # the earliest start wins a tie
        out = max(runs, key=lambda r: r.objective)
        u = out.basis
        diag = np.diagonal(out.rotated).copy()
        witness = (u * diag) @ adjoint(u)
        # ||A - witness||_F is the norm of U*AU's off-diagonal part
        frob_exact = float(npl.norm(out.rotated - np.diag(diag)))
        diff = a - witness
        distances = {p: _scale(v, e) for p, v in schatten_norms(diff, p_list).items()}
        reports.append(DistanceReport(
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
            restart_stop_reasons=tuple(r.stop_reason for r in runs),
            restart_stationarity=tuple(r.stationarity for r in runs),
        ))
    return reports
