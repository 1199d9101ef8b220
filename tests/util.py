"""Shared test fixtures (seeded random matrices with known structure) and the
reference implementations the tests compare the package against."""

from __future__ import annotations

import csv
import json
import math
import tracemalloc

import numpy as np
import numpy.linalg as npl

from almostnormal.gallery import _haar


def assert_close_multiset(got, want, tol: float) -> None:
    """Greedy nearest matching of two complex multisets within tol."""
    got = [complex(z) for z in np.asarray(got).ravel()]
    want = [complex(z) for z in np.asarray(want).ravel()]
    assert len(got) == len(want)
    for w in want:
        i = min(range(len(got)), key=lambda k: abs(got[k] - w))
        assert abs(got[i] - w) <= tol, f"no match for {w}: nearest {got[i]}"
        got.pop(i)


def random_contraction(n: int, seed: int) -> np.ndarray:
    """Dense complex matrix scaled to operator norm exactly <= 1."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z / npl.norm(z, 2)


def random_normal_with_spectrum(n: int, seed: int, radius: float = 1.0):
    """(A, eigenvalues, basis): A = U diag(lam) U* with Haar U.

    Eigenvalues are drawn uniformly from the radius disc, kept well separated
    so spectral computations downstream are unambiguous.
    """
    rng = np.random.default_rng(seed)
    lam = np.empty(n, dtype=complex)
    count = 0
    while count < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) > radius:
            continue
        if count and np.abs(lam[:count] - z).min() < 1e-3 * radius:
            continue
        lam[count] = z
        count += 1
    u = _haar(n, rng)
    a = (u * lam) @ u.conj().T
    return a, lam, u


def tangled_normal(n: int, g: float, seed: int):
    """(A, eigenvalues): A = U diag(g j + i y_j) U* with Haar U and y_j
    uniform in (-1, 1).  For g just over the decomposition's cluster width
    the real parts are too close for an eigensolver of Re A to separate
    their eigenvectors, yet too far apart to be split as one cluster."""
    rng = np.random.default_rng(seed)
    lam = g * np.arange(n) + 1j * rng.uniform(-1.0, 1.0, n)
    u = _haar(n, rng)
    return (u * lam) @ u.conj().T, lam


def triangular_blocks(eps: float) -> np.ndarray:
    """Block-diagonal [[d1, eps], [0, d2]] blocks: ||[A*, A]|| is about
    2 eps, ||[A*, A]||_F about 2 eps times the square root of the count."""
    ds = [(1.0, -1.0), (0.9, -0.8), (0.7, -0.6), (0.5, -0.4),
          (0.3, -0.2), (0.95, -0.9), (0.85, -0.7), (0.6, -0.5)]
    a = np.zeros((16, 16), dtype=complex)
    for k, (d1, d2) in enumerate(ds):
        a[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[d1, eps], [0.0, d2]]
    return a


def brute_force_two_by_two(a: np.ndarray, grid: int = 2000, rounds: int = 12) -> float:
    """Independent 2-parameter basis scan; no package code on this path."""
    a11, a12, a21, a22 = (complex(a[0, 0]), complex(a[0, 1]),
                          complex(a[1, 0]), complex(a[1, 1]))
    fro2 = abs(a11) ** 2 + abs(a12) ** 2 + abs(a21) ** 2 + abs(a22) ** 2

    def scan(t_lo, t_hi, p_lo, p_hi, nt, np_, chunk=200):
        ts = np.linspace(t_lo, t_hi, nt)
        ps = np.linspace(p_lo, p_hi, np_)
        e = np.exp(1j * ps)[None, :]
        best_val, best_t, best_p = -1.0, 0.0, 0.0
        for s0 in range(0, nt, chunk):
            tb = ts[s0:s0 + chunk][:, None]
            c, s = np.cos(tb), np.sin(tb)
            cs = c * s
            cross = cs * (e * a12 + np.conj(e) * a21)
            d1 = c * c * a11 + cross + s * s * a22
            d2 = s * s * a11 - cross + c * c * a22
            vals = np.abs(d1) ** 2 + np.abs(d2) ** 2
            k = int(np.argmax(vals))
            i, j = divmod(k, np_)
            if vals[i, j] > best_val:
                best_val = float(vals[i, j])
                best_t = float(ts[s0 + i])
                best_p = float(ps[j])
        return best_val, best_t, best_p

    val, bt, bp = scan(0.0, math.pi, 0.0, 2.0 * math.pi, grid, grid)
    dt = math.pi / (grid - 1)
    dp = 2.0 * math.pi / (grid - 1)
    for _ in range(rounds):
        v, bt, bp = scan(bt - 2 * dt, bt + 2 * dt, bp - 2 * dp, bp + 2 * dp, 41, 41)
        val = max(val, v)
        dt, dp = 4 * dt / 40, 4 * dp / 40
    return math.sqrt(max(fro2 - val, 0.0))


def read_csv(path) -> tuple[list[str], list[list[str]], list[str]]:
    """Read back a fileio.write_csv table: (columns, string rows, comment lines)."""
    comments = []
    body = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for line in lines:
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line.strip():
            body.append(line)
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError("no header row in CSV input")
    return rows[0], rows[1:], comments


def reference_matrix_json(a, metadata=None) -> str:
    """The per-cell matrix JSON encoder that fileio.save_matrix vectorized:
    the codec tests require save_matrix to write exactly this text."""
    data = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    doc = {"dim": int(a.shape[0]), "metadata": dict(metadata or {}), "data": data}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def traced_peak(fn) -> tuple[object, int]:
    """(fn(), the peak bytes tracemalloc saw while it ran).  numpy reports its
    array buffers to tracemalloc, so the peak counts them too."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_oscillator(f, eps: float, r: float) -> float:
    """Brute-force reference for the graph oscillator's net property: the
    smallest eps' such that {x : f(x) = y} is an eps'-net of the disc slice
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
