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

from .core import as_cmatrix, normality_defect, operator_norm, schatten_norm, self_commutator
from .errors import EmptyTruncation
from .gallery import EnsembleSpec, laurent_multiplication, materialize
from .nearest import MAX_SWEEPS, OBJ_TOL, _nearest_normals


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
    evaluated: int  # grid points where sigma_min was computed


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


def _lattice(resolution: int, stride: int) -> np.ndarray:
    """Indices 0, stride, 2*stride, ... plus the last index."""
    idx = np.arange(0, resolution, stride)
    return idx if idx[-1] == resolution - 1 else np.append(idx, resolution - 1)


def pseudospectrum(
    a, eps: float, grid: GridSpec, reference=(), threads: int | None = None
) -> PseudospectrumReport:
    """Grid points z with sigma_min(A - zI) < eps, and their spread d_eps.

    d_eps is the largest distance from a member to the finite reference set
    (0 when there are no members; +inf when members exist but the reference
    is empty).  The caller should size the grid to cover the closed disc of
    radius ||A|| + eps, where the entire pseudospectrum lives.

    sigma_min(A - zI) is 1-Lipschitz in z, so a point w with
    sigma_min(A - wI) > eps + delta rules out every z with
    |z - w| < sigma_min(A - wI) - eps - delta without an SVD.  The grid is
    visited coarse to fine (PRUNE_STRIDES); at each stride only the points
    not yet computed or ruled out get an SVD, and the last stride computes
    every point left.  The margin delta = 64 n u (||A|| + max |z|) covers
    twice the backward error of each computed sigma_min plus the rounding of
    the shift and of |z - w|, so a ruled-out point would also have computed
    sigma_min >= eps: members and their sigma_min are bitwise those of an
    SVD at every grid point.  Each stride's points are split into a multiple
    of `threads` near-equal parts run on a pool of that many threads
    (default the core count; fewer than one raises ValueError), each part at most
    SVD_CHUNK_BYTES of shifted matrices.  The calling thread allocates
    `threads` stacks once, each of at most SVD_CHUNK_BYTES and no more than
    the largest part a stride can dispatch, and each part borrows a free
    one: the shifted matrices take at most threads * SVD_CHUNK_BYTES
    whatever the grid size, and the pool threads allocate only the SVD's
    outputs.
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
    delta = 64 * a.shape[0] * np.finfo(float).eps * (operator_norm(a) + np.abs(zs).max())
    smin = np.full(zs.size, np.inf)
    settled = np.zeros((res, res), dtype=bool)  # computed or ruled out
    evaluated = 0
    n = a.shape[0]
    chunk = max(1, SVD_CHUNK_BYTES // (16 * n * n))
    # no part of a stride holds more than its share of the whole grid
    free = SimpleQueue()
    for _ in range(parts):
        free.put(np.empty((min(chunk, -(-zs.size // parts)), n, n), dtype=complex))

    def work(points):
        stack = free.get()
        try:
            return _sigma_min_batch(a, points, stack)
        finally:
            free.put(stack)

    with ThreadPoolExecutor(max_workers=parts) as pool:
        for stride in PRUNE_STRIDES:
            lat = _lattice(res, stride)
            rows, cols = np.nonzero(~settled[np.ix_(lat, lat)])
            idx = lat[rows] * res + lat[cols]
            if idx.size == 0:
                continue
            split = parts * -(-idx.size // (parts * chunk))
            chunks = np.array_split(zs[idx], min(split, idx.size))
            smin[idx] = np.concatenate(list(pool.map(work, chunks)))
            settled.flat[idx] = True
            evaluated += idx.size
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
    ref = np.asarray(reference, dtype=complex).ravel()
    if members.size == 0:
        d_eps = 0.0
    elif ref.size == 0:
        d_eps = math.inf
    else:
        d_eps = float(np.abs(members[:, None] - ref[None, :]).min(axis=1).max())
    return PseudospectrumReport(
        members=members,
        sigma_min=smin[mask],
        d_eps=d_eps,
        evaluated=evaluated,
    )


# the CSV columns of the truncate and scatter tables, in order
TRUNCATE_COLUMNS = (
    "lambda", "N", "N1", "lhs2", "rhs2", "lhs3", "rhs3", "passed",
    "dist1_witness", "ratio",
)
SCATTER_COLUMNS = ("defect", "dist_op_witness", "dist_frob_exact", "lower_bound_op")


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
