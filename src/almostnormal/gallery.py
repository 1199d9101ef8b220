"""Generators for the matrix families used throughout the package.

Each generator either is exact by construction or verifies its certified
norm bounds before returning (construction aborts on failure, so a caller
can rely on the advertised inequalities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .core import operator_norm

_VERIFY_SLACK = 1e-12


def shift_example(m: int) -> np.ndarray:
    """The paired-shift contraction: A e_{2i} = e_{2i-1}, A e_{2i-1} = 0.

    Needs m even.  ||A|| = 1, [A, A*] = diag(1, -1, ..., 1, -1), so the
    self-commutator has Frobenius norm sqrt(m) while the Frobenius distance
    to the normal matrices is only sqrt(m/4): the two can be arbitrarily
    far apart in scale even for contractions.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be a positive even integer, got {m}")
    a = np.zeros((m, m), dtype=complex)
    for i in range(0, m, 2):
        a[i, i + 1] = 1.0
    return a


def almost_commuting_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian A and contraction B of size (m+1) with small commutators.

    A = diag(1 - 2j/m), B e_j = (2/(m+1)) sqrt((j+1)(m-j)) e_{j+1}.
    Certified at construction: ||A|| = 1, ||B|| <= 1, ||[B*, B]|| <= 4/m,
    ||[A, B]|| <= 2/m.  The pair nearly commutes while B stays far from
    normal (its self-commutator has a unit-size trace-free structure).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    n = m + 1
    j = np.arange(n)
    diag_a = 1.0 - 2.0 * j / m
    a = np.diag(diag_a).astype(complex)
    sub = (2.0 / n) * np.sqrt((j[:-1] + 1.0) * (m - j[:-1]))
    b = np.zeros((n, n), dtype=complex)
    b[np.arange(1, n), np.arange(n - 1)] = sub

    _verify_pair_bounds(m, diag_a, sub, a, b)
    return a, b


def _verify_pair_bounds(m, diag_a, sub, a, b):
    """Check the certified norms of the constructed pair; abort on failure.

    The products of these banded matrices have single-term entries, so the
    norms below are exact for the floats actually stored (the structure is
    asserted first rather than assumed).
    """
    n = m + 1
    if np.count_nonzero(b - np.diag(np.diagonal(b, -1), -1)):
        raise ArithmeticError("pair construction lost its subdiagonal structure")
    norm_a = float(np.abs(diag_a).max())
    bsq = np.abs(sub) ** 2
    norm_b = math.sqrt(bsq.max())
    # [B*, B] = diag(|b_j|^2) (head) - diag(|b_{j-1}|^2) (tail)
    comm_bb = np.concatenate([bsq, [0.0]]) - np.concatenate([[0.0], bsq])
    norm_comm_bb = float(np.abs(comm_bb).max())
    # [A, B] has entries (a_{j+1} - a_j) b_j on the subdiagonal
    comm_ab = (diag_a[1:] - diag_a[:-1]) * sub
    norm_comm_ab = float(np.abs(comm_ab).max())

    checks = [
        (abs(norm_a - 1.0), 0.0, "||A|| = 1"),
        (norm_b, 1.0, "||B|| <= 1"),
        (norm_comm_bb, 4.0 / m, "||[B*,B]|| <= 4/m"),
        (norm_comm_ab, 2.0 / m, "||[A,B]|| <= 2/m"),
    ]
    for value, limit, label in checks:
        if value > limit + _VERIFY_SLACK:
            raise ArithmeticError(
                f"almost_commuting_pair(m={m}) failed its certificate "
                f"{label}: got {value:.17g}"
            )


def _check_seed(seed) -> int:
    """The seed as an int; ValueError unless it is a non-negative integer."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def perturbed_normal(dim: int, delta: float, seed: int) -> np.ndarray:
    """Random normal matrix (spectrum uniform in the unit disc, Haar basis)
    plus delta times a normalized Gaussian perturbation, scaled so the
    result is a contraction.  Fully reproducible from the seed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not (delta >= 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be nonnegative, got {delta}")
    rng = np.random.default_rng(_check_seed(seed))
    radii = np.sqrt(rng.uniform(0.0, 1.0, dim))
    angles = rng.uniform(0.0, 2.0 * math.pi, dim)
    eigs = radii * np.exp(1j * angles)
    u = _haar(dim, rng)
    normal = (u * eigs) @ u.conj().T
    if delta == 0:
        out = normal
    else:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        out = normal + delta * (z / operator_norm(z))
    nrm = operator_norm(out)
    if nrm > 1.0:
        out = out / nrm
    return out


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = npl.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def laurent_multiplication(coeffs, big_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Banded multiplication window (G, A) on indices k = -K..K.

    coeffs is the odd-length list (c_{-d}, ..., c_d); A[j, k] = c_{j-k} for
    |j - k| <= d, and G = diag(|k|).  Certified at construction:
    ||[G, A]|| <= sum_s |s| |c_s| (each diagonal of [G, A] scales c_s by
    at most |s| since |j| - |k| cannot exceed |j - k|).
    """
    coeffs = np.asarray(coeffs, dtype=complex).ravel()
    if coeffs.size % 2 != 1:
        raise ValueError("coeffs must have odd length (c_{-d}..c_d)")
    if not np.isfinite(coeffs).all():
        raise ValueError("coeffs must be finite")
    if big_k < 1:
        raise ValueError(f"K must be >= 1, got {big_k}")
    d = (coeffs.size - 1) // 2
    n = 2 * big_k + 1
    if d > 2 * big_k:
        raise ValueError(f"band width d={d} exceeds the window 2K={2 * big_k}")
    k_idx = np.arange(-big_k, big_k + 1)
    g = np.diag(np.abs(k_idx)).astype(complex)
    a = np.zeros((n, n), dtype=complex)
    for s in range(-d, d + 1):
        c = coeffs[s + d]
        if c == 0:
            continue
        a += np.diag(np.full(n - abs(s), c), -s)

    bound = float(np.sum(np.abs(coeffs) * np.abs(np.arange(-d, d + 1))))
    comm = (np.abs(k_idx)[:, None] - np.abs(k_idx)[None, :]) * a
    norm_comm = operator_norm(comm)
    if norm_comm > bound * (1.0 + 1e-9) + _VERIFY_SLACK:
        raise ArithmeticError(
            f"laurent window failed its certificate ||[G,A]|| <= {bound:.17g}: "
            f"got {norm_comm:.17g}"
        )
    return g, a


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one gallery matrix inside an experiment ensemble."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


_KINDS = ("shift_example", "almost_commuting_pair", "perturbed_normal", "laurent_multiplication")


def _number_list(v) -> np.ndarray:
    # np.asarray would read a string as one number and null as NaN
    if v is None or isinstance(v, str):
        raise TypeError
    return np.asarray(v, dtype=complex)


def materialize(spec: EnsembleSpec) -> np.ndarray:
    """Produce the matrix described by an EnsembleSpec.

    almost_commuting_pair contributes its non-normal member B; the laurent
    window contributes the multiplication operator A.
    """
    kind = spec.kind

    def param(name, convert, what):
        # a missing or mistyped value is bad input, not a bug: ValueError
        try:
            return convert(spec.params[name])
        except (KeyError, TypeError):
            got = repr(spec.params[name]) if name in spec.params else "nothing"
            raise ValueError(f"{kind} spec: params.{name} must be {what}, got {got}") from None

    if kind == "shift_example":
        return shift_example(param("m", int, "an integer"))
    if kind == "almost_commuting_pair":
        return almost_commuting_pair(param("m", int, "an integer"))[1]
    if kind == "perturbed_normal":
        if spec.seed is None:
            raise ValueError("perturbed_normal spec requires a seed")
        return perturbed_normal(
            param("dim", int, "an integer"), param("delta", float, "a number"), int(spec.seed)
        )
    if kind == "laurent_multiplication":
        coeffs = param("coeffs", _number_list, "a list of numbers")
        return laurent_multiplication(coeffs, param("K", int, "an integer"))[1]
    raise ValueError(f"unknown ensemble kind {kind!r}; expected one of {_KINDS}")
