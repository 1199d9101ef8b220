"""Paper-scale experiments: spectral truncations, pseudospectra, scatter data.

A truncation model is a pair (G, A) with G diagonal nonnegative; cutting at
level lambda keeps the eigenvectors with g_j < lambda.  The counting
function N and the unit-window count N1 control both the Frobenius leakage
of the cut and the trace norm of the truncated self-commutator:

    ||(I-P)BP||_F^2     <= (||B||^2 + (pi^2/6) ||[G,B]||^2) N1      (B = A, A*)
    ||[A_l*, A_l]||_1   <= (2||A||^2 + (pi^2/3) ||[G,A]||^2) N1

Both inequalities are evaluated exactly as stated, no fitted constants.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .core import (MAX_SWEEPS, OBJ_TOL, as_cmatrix, normality_defect, operator_norm, schatten_norm,
                   self_commutator)
from .errors import EmptyTruncation
from .gallery import EnsembleSpec, laurent_multiplication, materialize
from .nearest import _nearest_normals


@dataclass(frozen=True)
class TruncationModel:
    """Window operator A written in the eigenbasis of G = diag(g), g ascending."""

    g: np.ndarray
    a: np.ndarray
    norm_a: float
    norm_comm: float

    def __post_init__(self):
        self.g.setflags(write=False)
        self.a.setflags(write=False)


def truncation_model(g, a) -> TruncationModel:
    """Sort g ascending (stable) and carry A along; store the ambient norms."""
    g = np.asarray(g, dtype=float).ravel()
    a = as_cmatrix(a)
    if g.shape[0] != a.shape[0]:
        raise ValueError("g and A dimensions disagree")
    if (g < 0).any():
        raise ValueError("g must be nonnegative")
    order = np.argsort(g, kind="stable")
    gs = g[order]
    asq = a[np.ix_(order, order)]
    comm = (gs[:, None] - gs[None, :]) * asq  # exact [G, A] for diagonal G
    return TruncationModel(
        g=gs, a=asq, norm_a=operator_norm(asq), norm_comm=operator_norm(comm)
    )


def laurent_truncation_model(coeffs, big_k: int) -> TruncationModel:
    """Truncation model of the banded multiplication window."""
    g, a = laurent_multiplication(coeffs, big_k)
    return truncation_model(np.real(np.diagonal(g)), a)


def counting_functions(g, lambda_grid) -> tuple[np.ndarray, np.ndarray]:
    """(N, N1) over the grid: N(lambda) = #{j : g_j < lambda} and the
    unit-window supremum N1(lambda) = max_{mu <= lambda} (N(mu) - N(mu - 1)).

    The supremum is exact: a unit window holding the most points can slide
    until its left edge touches some g_i, so it suffices to evaluate at
    mu = g_i + 1 and at the grid points themselves.
    """
    g = np.asarray(g, dtype=float).ravel()
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if g.size and (np.diff(g) < 0).any():
        raise ValueError("g must be sorted ascending")
    if grid.size and (np.diff(grid) < 0).any():
        raise ValueError("lambda grid must be sorted ascending")
    if np.isnan(grid).any():
        raise ValueError("lambda grid must not contain NaN")

    n = np.searchsorted(g, grid, side="left").astype(int)

    cands = np.unique(np.concatenate([g + 1.0, grid]))
    counts = np.searchsorted(g, cands, side="left") - np.searchsorted(
        g, cands - 1.0, side="left"
    )
    prefix = np.maximum.accumulate(counts)
    pos = np.searchsorted(cands, grid, side="right") - 1
    n1 = np.where(pos >= 0, prefix[np.clip(pos, 0, None)], 0).astype(int)
    return n, n1


def truncate(model: TruncationModel, lam: float) -> np.ndarray:
    """Restriction of A to span{e_j : g_j < lambda}, at its reduced dimension."""
    lam = float(lam)
    if math.isnan(lam):
        raise ValueError("truncation level must be a number, got nan")
    k = int(np.searchsorted(model.g, lam, side="left"))
    if k == 0:
        raise EmptyTruncation(lam)
    return model.a[:k, :k].copy()


def verify_truncation_bounds(model: TruncationModel, lam: float) -> dict:
    """Evaluate both truncation inequalities at level lambda, as the
    TRUNCATE_COLUMNS of its truncate row up to "passed".

    lhs2 is the worse of the two leakage branches (B = A and B = A*); the
    ambient constants ||A|| and ||[G, A]|| come from the model.
    """
    lam = float(lam)
    al = truncate(model, lam)
    k = al.shape[0]
    n1 = int(counting_functions(model.g, [lam])[1][0])

    a = model.a
    lhs2_a = float(npl.norm(a[k:, :k]) ** 2)
    lhs2_astar = float(npl.norm(a[:k, k:]) ** 2)
    lhs2 = max(lhs2_a, lhs2_astar)
    rhs2 = (model.norm_a ** 2 + (math.pi ** 2 / 6.0) * model.norm_comm ** 2) * n1

    lhs3 = schatten_norm(self_commutator(al), 1)
    c_a = 2.0 * model.norm_a ** 2 + (math.pi ** 2 / 3.0) * model.norm_comm ** 2
    rhs3 = c_a * n1

    slack = 1e-9
    passed = lhs2 <= rhs2 * (1 + slack) + 1e-12 and lhs3 <= rhs3 * (1 + slack) + 1e-12
    return {
        "lambda": lam, "N": k, "N1": n1,
        "lhs2": lhs2, "rhs2": rhs2, "lhs3": lhs3, "rhs3": rhs3, "passed": passed,
    }


def truncation_scaling(
    model: TruncationModel,
    lambda_grid,
    *,
    seed: int,
    restarts: int = 2,
    max_sweeps: int = MAX_SWEEPS,
    obj_tol: float = OBJ_TOL,
) -> list[dict]:
    """Scaling table: trace-norm witness distance of A_lambda against N(lambda).

    One row per grid level: the verify_truncation_bounds columns, the
    witness distance dist1_witness, the normalized ratio dist1_witness / N,
    and whether the optimizer converged.
    """
    rows, blocks = [], []
    for lam in lambda_grid:
        rows.append(verify_truncation_bounds(model, lam))
        blocks.append(truncate(model, lam))
    for row, rep in zip(rows, _nearest_normals(blocks, (1,), seed, restarts, max_sweeps, obj_tol)):
        dist1 = rep.distances[1]
        row.update(dist1_witness=dist1, ratio=dist1 / row["N"], converged=rep.converged)
    return rows


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid: resolution x resolution points centered at center."""

    center: complex
    half_width: float
    resolution: int = 201

    def __post_init__(self):
        c, h = complex(self.center), self.half_width
        if not np.isfinite(c):
            raise ValueError(f"center must be finite, got {c}")
        if not (h > 0 and math.isfinite(h)):
            raise ValueError(f"half_width must be positive, got {h}")
        if not math.isfinite(max(abs(c.real), abs(c.imag)) + h):
            raise ValueError(f"grid corners must be finite, got center {c} +- half_width {h}")
        if not math.isfinite(2.0 * h):
            raise ValueError(f"grid width must be finite, got 2 * half_width {h}")
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")

    def points(self) -> np.ndarray:
        xs = np.linspace(self.center.real - self.half_width, self.center.real + self.half_width, self.resolution)
        ys = np.linspace(self.center.imag - self.half_width, self.center.imag + self.half_width, self.resolution)
        return (xs[None, :] + 1j * ys[:, None]).ravel()

    def step(self) -> float:
        return 2.0 * self.half_width / (self.resolution - 1)


@dataclass(frozen=True)
class PseudospectrumReport:
    members: np.ndarray
    sigma_min: np.ndarray
    d_eps: float
    reference: np.ndarray  # the set d_eps is measured against
    evaluated: int  # grid points where sigma_min was computed
    svd: int  # evaluated points whose sigma_min is an SVD's, not a certified member's or non-member's bound
    delta: float  # the rounding margin: sigma_min + delta / 2 >= sigma_min(A - zI)


def _sigma_min_batch(a: np.ndarray, zs: np.ndarray, stack: np.ndarray | None = None) -> np.ndarray:
    """sigma_min(A - zI) for each z of zs; the shifted matrices are built in
    the first zs.size matrices of stack, or in a new array without one."""
    out = None if stack is None else stack[: zs.size]
    shifted = np.multiply(zs[:, None, None], np.eye(a.shape[0], dtype=complex), out=out)
    return npl.svd(np.subtract(a, shifted, out=shifted), compute_uv=False)[:, -1]


# Coarse-to-fine strides of the pruned grid pass, and the most bytes of
# shifted (k, n, n) complex stack one _sigma_min_batch call builds at once.
PRUNE_STRIDES = (16, 8, 4, 2, 1)
SVD_CHUNK_BYTES = 1 << 20
# Inverse-Lanczos steps a point, and the complex n-vectors of workspace a point takes
# (the basis, d, d* and two work vectors).  On perturbed_normal(32, 0.05), 5 to 8 steps
# certified 71, 91, 98 and 99.5% of 6304 members; 7 ran fastest.  With batches of
# _lanczos_batch(n) points (186 at n = 32), on 201^2 grids at 2 threads, the Lanczos path
# ran 0.87-1.38x as fast as SVDs alone at n = 12, 1.24-1.85x at 16 and 1.8-2.1x at 24.
LANCZOS_STEPS = 7
LANCZOS_WORDS = LANCZOS_STEPS + 4
LANCZOS_MIN_DIM = 16
KAPPA_MAX = 1e2  # past it none certify


def _svd_chunk(n: int) -> int:
    """Matrices of one SVD stack: SVD_CHUNK_BYTES of n x n complex, at least one."""
    return max(1, SVD_CHUNK_BYTES // (16 * n * n))


def _lanczos_batch(n: int) -> int:
    """Most points of a Lanczos batch: as many as have their workspace in one
    stack of _svd_chunk(n) matrices, at least 2.  It depends on n and
    SVD_CHUNK_BYTES only, so bits do not depend on `threads`."""
    return max(2, _svd_chunk(n) * n // LANCZOS_WORDS)


def _lanczos_setup(a, eps, delta, lam, v):
    """_lanczos_bounds' arguments after zs, given npl.eig(a) = (lam, v) with
    A = V diag(lam) V^-1, or None where kappa(V) > KAPPA_MAX."""
    cond = npl.svd(v, compute_uv=False)
    if cond[-1] * KAPPA_MAX > cond[0]:  # else V is too ill-conditioned to help
        vinv = npl.inv(v)  # Bauer-Fike: members lie within kappa(V) eps of an eigenvalue
        chirp = 0.02 * (np.exp(1j * np.arange(lam.size) ** 2) / lam.size ** 0.5)
        tau = 64 * lam.size ** 1.5 * np.finfo(float).eps  # the lower side's budget: see there
        kappa = cond[0] * (1 + tau) / (cond[-1] - tau * cond[0])
        f = min(npl.norm(vinv @ v - np.eye(lam.size)) + tau * kappa, 0.5)
        err = (npl.norm(a - (v * lam) @ vinv) * (1 + tau) + tau * npl.norm(a)
               + kappa * (1 + f) * np.abs(lam).max() * (f / (1 - f) + tau)) if f < 0.5 else math.inf
        budget = (tau * (1 + f) ** 2 + ((1 + f) / (1 - f)) ** 2 - 1, kappa, err)
        return cond[0] / cond[-1] * eps, lam, v.conj(), (vinv @ vinv.conj().T).T, v.T, chirp, eps, delta, *budget


def _row_norms(x, tmp):
    """npl.norm(x, axis=1), bitwise, with its temporary in tmp."""
    np.multiply(np.conjugate(x, out=tmp), x, out=tmp)
    return np.sqrt(np.add.reduce(tmp.real, axis=1))


def _apply_h(q, vc, gt, vt, d, dc, out, tmp):
    """V D G D* V* q for each row q, in out; tmp is workspace."""
    np.matmul(q, vc, out=out)
    out *= dc
    np.matmul(out, gt, out=tmp)
    tmp *= d
    return np.matmul(tmp, vt, out=out)


def _lanczos_bounds(a, zs, reach, lam, vc, gt, vt, chirp, eps, delta, tau, kappa, err, stack=None):
    """(rho, low), rho >= sigma_min(A - zI) >= low, for each z of zs.  rho = ||(A - zI) y||
    / ||y|| within reach of an eigenvalue, nan elsewhere and where |rho^2 theta - 1| >=
    1e-12 (0 at an eigenvector); y is the top Ritz vector, theta its value, of LANCZOS_STEPS
    Lanczos steps on H = (A - zI)^-1 (A - zI)^-* = V D G D* V*, D = diag(1 / (lam - z)),
    G = V^-1 V^-*, from the nearest lam's eigenvector plus a chirp of norm 0.02 (a random
    vector of norm 0.1 left a near-tied singular vector in y, 0.001 a wrong one).  Where
    rho + delta < eps fails, Kato-Temple: t = y*Hy / y*y > alpha >= lambda_2(H) gives
    lambda_1(H) <= t + r^2 / (t - alpha), r = ||Hy - t y|| / ||y||, alpha = kappa(V)^2 / d_2^2
    as sigma_{n-1}(A - zI) >= d_2 / kappa(V) (d_k the k-th nearest |lam - z|); else -inf.
    Rounding: for B = V diag(lam) V^-1 with the computed V, G (off by ||V^-1 V - I||) and
    the products forming Hy (n^1.5 u each [Higham, 3.5], 64 times over: tau) are within
    e = tau kappa^2 / d_1^2 of B's H, and so t and r; kappa and err >= ||A - B|| (Weyl) are
    rounded up: low = ((t + e + (r + e)^2 / (t - e - (1 + tau) alpha))^-1/2 - err) (1 - tau).
    The workspace, LANCZOS_WORDS n-vectors a point, lies in stack where it fits, else new."""
    b, n, steps = zs.size, lam.size, LANCZOS_STEPS
    rho, low = np.full(b, np.nan), np.full(b, -np.inf)
    need = LANCZOS_WORDS * max(b, 2) * n
    ws = stack.reshape(-1)[:need] if stack is not None and stack.size >= need else np.empty(need, complex)
    with np.errstate(all="ignore"):  # z on an eigenvalue gives nan, and the SVD
        # 1 / (lam - z) of every point in the last b n-vectors, past the d and d* filled from it
        full = np.subtract(lam, zs[:, None], out=ws[need - b * n:].reshape(b, n))
        full = np.divide(1.0, full, out=full)
        near = np.flatnonzero(np.abs(full).max(axis=1) * reach > 1)
        if near.size == 0:
            return rho, low
        if near.size == 1:  # a one-row product takes another BLAS path, so run it twice
            near = near.repeat(2)
        zs, k = zs[near], near.size
        slabs = ws[: LANCZOS_WORDS * k * n].reshape(LANCZOS_WORDS, k, n)
        basis, (d, dc, w1, w2) = slabs[:steps], slabs[steps:]
        fb = basis.view(float)
        np.conjugate(np.take(full, near, axis=0, out=d, mode="clip"), out=dc)
        q = np.take(vt, np.abs(d).argmax(axis=1), axis=0, out=basis[0], mode="clip")
        q += chirp
        q /= _row_norms(q, w2)[:, None]
        t = np.zeros((k, steps, steps))
        for j in range(steps):
            q = basis[j]
            _apply_h(q, vc, gt, vt, d, dc, w1, w2)  # r = H q, in w1
            t[:, j, j] = np.einsum("ij,ij->i", np.conjugate(q, out=w2), w1).real
            if j == steps - 1:  # the last residual enters no Ritz value
                break
            # real times complex on the float views: the bits of the complex product, uncast
            np.multiply(t[:, j, j, None], fb[j], out=w2.view(float))
            if j:  # beta prev, in the slab the next q takes
                w2 += np.multiply(beta, fb[j - 1], out=fb[j + 1]).view(complex)
            w1 -= w2
            beta = _row_norms(w1, w2)[:, None]
            t[:, j, j + 1] = t[:, j + 1, j] = beta[:, 0]
            # w1 / beta, bitwise: numpy divides a complex by a real by multiplying by 1 / beta
            np.multiply(w1.view(float), 1.0 / np.maximum(beta, np.finfo(float).tiny), out=fb[j + 1])
        theta, s = npl.eigh(np.where(np.isfinite(t), t, 0.0))  # nan fails LAPACK
        y = w1  # sum_j s_j basis_j, over the real and imaginary parts at once: the same bits
        np.einsum("kj,jkn->kn", s[:, :, -1], fb, out=y.view(float))
        np.matmul(y, a.T, out=w2)
        w2 -= np.multiply(zs[:, None], y, out=basis[0])
        r = _row_norms(w2, basis[0]) / _row_norms(y, basis[1])
        rho[near] = np.where(abs(r * r * theta[:, -1] - 1) < 1e-12, r, np.nan)
        # the lower side, at the rows rho leaves undecided, gathered into the free basis slabs
        rows = np.flatnonzero(~(rho[near] + delta < eps))
        yr, dr, dcr, hy, w, ad = basis[:6, : rows.size]
        y, d, dc = (np.take(x, rows, axis=0, out=out) for x, out in ((y, yr), (d, dr), (dc, dcr)))
        _apply_h(y, vc, gt, vt, d, dc, hy, w)
        ny = _row_norms(y, w)
        th = np.einsum("ij,ij->i", np.conjugate(y, out=w), hy).real / ny ** 2
        hy -= np.multiply(th[:, None], y, out=w)
        res = _row_norms(hy, w) / ny
        ad = np.abs(d, out=ad.view(float)[:, :n])  # |D|, its top two last
        ad.partition(max(n - 2, 0), axis=1)
        e = tau * (kappa * ad[:, -1]) ** 2
        gap = th - e - (1 + tau) * (kappa * ad[:, max(n - 2, 0)]) ** 2
        bound = ((th + e + (res + e) ** 2 / gap) ** -0.5 - err) * (1 - tau)
        low[near[rows]] = np.where(gap > 0, bound, -np.inf)
    return rho, low


def _lattice(resolution: int, stride: int) -> np.ndarray:
    """Indices 0, stride, 2*stride, ... plus the last index."""
    idx = np.arange(0, resolution, stride)
    return idx if idx[-1] == resolution - 1 else np.append(idx, resolution - 1)


def pseudospectrum(
    a, eps: float, grid: GridSpec, reference=None, threads: int | None = None
) -> PseudospectrumReport:
    """Grid points z with sigma_min(A - zI) < eps, and their spread d_eps.

    d_eps is the largest distance from a member to the reference set, by
    default sigma(A) from the one npl.eig(a) a call takes (0 when there are no
    members; +inf when members exist but the reference is empty); the report
    carries the set.  The caller should size the grid to cover the closed disc
    of radius ||A|| + eps, where the entire pseudospectrum lives.

    sigma_min(A - zI) is 1-Lipschitz in z, so a point w with sigma_min(A - wI)
    > eps + delta rules out every z with |z - w| < sigma_min(A - wI) - eps - delta;
    the grid is visited coarse to fine (PRUNE_STRIDES), evaluating only points not
    yet evaluated or ruled out.  delta = 64 n u (||A|| + max |z|) covers twice an
    SVD's backward error plus the rounding of the shift and of |z - w|.  Where
    n >= LANCZOS_MIN_DIM and _lanczos_setup accepts the eigenvectors, a point with
    rho + delta < eps (_lanczos_bounds: rho >= sigma_min(A - zI) >= low) is a certified
    member reporting rho, one with low > eps + delta a certified non-member pruning by
    low; every other point takes the SVD (`svd` counts them).  So members are those of
    an SVD at every point, SVD points' sigma_min its bits; a low that decides lay within
    2e-7 relative of the SVD on the inputs tried, where `evaluated` did not move.  Only
    s + delta / 2 >= sigma_min(A - zI) is guaranteed for each reported s: rho may stop at
    a larger singular value (at most 2.3e-12 relative high on the random inputs tried).
    SVD parts of at most _svd_chunk(n) matrices and Lanczos batches of at most
    _lanczos_batch(n) points run on `threads` threads (default the core count;
    fewer than one raises ValueError).  Each borrows one of `threads` stacks,
    allocated once, of at most SVD_CHUNK_BYTES: a part builds its shifted matrices
    there, a batch its workspace where that fits.  Bits depend on neither.
    """
    # imported here, so that importing the package loads neither
    # concurrent.futures nor the logging it imports
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    a = as_cmatrix(a)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps}")
    parts = (os.cpu_count() or 1) if threads is None else int(threads)
    if parts < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    zs = grid.points()
    res = grid.resolution
    z2 = zs.reshape(res, res)
    xs, ys = z2[0].real, z2[:, 0].imag
    hmin = min(np.diff(xs).min(), np.diff(ys).min())
    n, evaluated, svd, nrm = a.shape[0], 0, 0, operator_norm(a)
    delta = 64 * n * np.finfo(float).eps * (nrm + float(np.abs(zs).max()))
    smin = np.full(zs.size, np.inf)
    settled = np.zeros((res, res), dtype=bool)  # computed or ruled out
    chunk, batch = _svd_chunk(n), _lanczos_batch(n)
    lam, v = npl.eig(a)
    # no member lies past ||A|| + eps
    eig = _lanczos_setup(a, eps, delta, lam, v) if n >= LANCZOS_MIN_DIM and np.abs(zs).min() < nrm + eps else None
    # no part of a stride holds more than its share of the whole grid
    free = SimpleQueue()
    for _ in range(parts):
        free.put(np.empty((min(chunk, -(-zs.size // parts)), n, n), dtype=complex))

    def borrowing(kernel, *args):
        """points -> kernel(a, points, *args, stack) on a free stack."""
        def run(points):
            stack = free.get()
            try:
                return kernel(a, points, *args, stack)
            finally:
                free.put(stack)
        return run

    with ThreadPoolExecutor(max_workers=parts) as pool:
        for stride in PRUNE_STRIDES:
            lat = _lattice(res, stride)
            rows, cols = np.nonzero(~settled[np.ix_(lat, lat)])
            idx = lat[rows] * res + lat[cols]
            if idx.size == 0:
                continue
            ruled = np.zeros(idx.size, dtype=bool)
            if eig:
                batches = np.array_split(zs[idx], -(-idx.size // batch))
                rho, low = map(np.concatenate, zip(*pool.map(borrowing(_lanczos_bounds, *eig), batches)))
                ruled = low > eps + delta  # proven non-members, low their pruning value
                smin[idx] = np.where(ruled, low, rho)
            rest = idx[~(ruled | (smin[idx] + delta < eps))]  # all but the certified points
            if rest.size:
                split = parts * -(-rest.size // (parts * chunk))
                chunks = np.array_split(zs[rest], min(split, rest.size))
                smin[rest] = np.concatenate(list(pool.map(borrowing(_sigma_min_batch), chunks)))
            settled.flat[idx] = True
            evaluated, svd = evaluated + idx.size, svd + rest.size
            if stride == 1:
                break
            radius = smin[idx] - (eps + delta)
            for k in np.flatnonzero(radius > hmin):
                # Python numbers: a sum past the double range is inf, silently
                w, r = complex(zs[idx[k]]), float(radius[k])
                r0 = max(np.searchsorted(ys, w.imag - r) - 1, 0)
                r1 = np.searchsorted(ys, w.imag + r) + 1
                c0 = max(np.searchsorted(xs, w.real - r) - 1, 0)
                c1 = np.searchsorted(xs, w.real + r) + 1
                settled[r0:r1, c0:c1] |= np.abs(z2[r0:r1, c0:c1] - w) < r
    mask = smin < eps
    members = zs[mask]
    ref = lam if reference is None else np.asarray(reference, dtype=complex).ravel()
    dist = np.full(members.size, math.inf)
    for r in ref:  # one pass a point, not a members x reference table: the same bits
        np.minimum(dist, np.abs(members - r), out=dist)
    d_eps = float(dist.max()) if members.size else 0.0
    return PseudospectrumReport(members=members, sigma_min=smin[mask], d_eps=d_eps, reference=ref,
                                evaluated=evaluated, svd=svd, delta=delta)


# the CSV columns of the truncate and scatter tables, in order, with the
# sides of nearest.DistanceReport
# rhs2 and rhs3 bound lhs2 and lhs3 from above
TRUNCATE_COLUMNS = {
    "lambda": "exact", "N": "counter", "N1": "counter", "lhs2": "exact", "rhs2": "upper",
    "lhs3": "exact", "rhs3": "upper", "passed": "counter", "dist1_witness": "upper", "ratio": "upper",
}
SCATTER_COLUMNS = {"defect": "exact", "dist_op_witness": "upper", "dist_frob_exact": "upper",
                   "lower_bound_op": "lower"}


def f_scatter(
    specs,
    *,
    seed: int,
    restarts: int = 2,
    max_sweeps: int = MAX_SWEEPS,
    obj_tol: float = OBJ_TOL,
) -> list[dict]:
    """Defect-versus-distance scatter rows over an ensemble of gallery matrices.

    Every member is rescaled to a contraction on ingestion, so the row-wise
    floor dist_op_witness >= defect / 4 is asserted (a violation would mean
    a broken optimizer or norm, and raises).
    """
    specs, members = list(specs), []
    for spec in specs:
        if not isinstance(spec, EnsembleSpec):
            raise ValueError(f"expected EnsembleSpec, got {type(spec).__name__}")
        raw = materialize(spec)
        nrm = operator_norm(raw)
        members.append(raw / nrm if nrm > 1.0 else raw)
    reps = _nearest_normals(members, (math.inf,), seed, restarts, max_sweeps, obj_tol)
    rows = []
    for idx, (spec, a, rep) in enumerate(zip(specs, members, reps)):
        defect = normality_defect(a)
        dist_op = rep.distances[math.inf]
        floor = defect / 4.0
        if dist_op < floor - 1e-9:
            raise ArithmeticError(
                f"scatter row {idx} ({spec.kind}): witness distance "
                f"{dist_op:.17g} fell below the commutator floor {floor:.17g}"
            )
        rows.append(
            {
                "defect": defect,
                "dist_op_witness": dist_op,
                "dist_frob_exact": rep.frobenius_exact,
                "lower_bound_op": floor,
                "converged": rep.converged,
            }
        )
    return rows
