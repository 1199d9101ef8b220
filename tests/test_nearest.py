"""Diagonal maximization, distance panels, and the commutator lower bound."""

from __future__ import annotations

import dataclasses
import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostnormal import (
    EnsembleSpec,
    adjoint,
    commutator_lower_bound,
    f_scatter,
    nearest_normal,
    operator_norm,
    self_commutator,
    shift_example,
)
from almostnormal import nearest
from almostnormal.core import _pow2_scaled
from almostnormal.nearest import (
    _diag_objective,
    _gradient,
    _Hessian,
    _horizontal,
    _nearest_normals,
    _plane_rotations,
    _retract,
    _round_robin,
    _run_sweeps,
    _solve,
    _starts,
    _tcg,
)
from util import brute_force_two_by_two, random_contraction, random_normal_with_spectrum

SHIFT2 = np.array([[0, 1], [0, 0]], dtype=complex)


def test_normal_input_reaches_zero_distance():
    a = np.diag([1 + 2j, -0.5 + 0j, 3j])
    rep = nearest_normal(a, seed=0, restarts=1)
    assert rep.frobenius_exact < 1e-7
    assert rep.distances[2] < 1e-7
    assert operator_norm(rep.witness - a) < 1e-7


def test_single_jordan_block_hand_value():
    # [[0, 2], [0, 0]]: best diagonal is zero in any basis that beats
    # sqrt(2), and the Frobenius distance is ||offdiag||_F / sqrt(2)
    a = 2.0 * SHIFT2
    rep = nearest_normal(a, seed=1)
    assert abs(rep.frobenius_exact - math.sqrt(2.0)) < 1e-9


@pytest.mark.parametrize("m", [2, 4, 8])
def test_shift_distance_exact_value(m):
    rep = nearest_normal(shift_example(m), seed=5, restarts=2)
    assert abs(rep.frobenius_exact - math.sqrt(m / 4.0)) < 1e-9 * math.sqrt(m)


def test_seed_determinism_bitwise():
    a = random_contraction(5, 77)
    r1 = nearest_normal(a, seed=9, restarts=2, max_sweeps=40)
    r2 = nearest_normal(a, seed=9, restarts=2, max_sweeps=40)
    assert np.array_equal(r1.witness, r2.witness)
    assert r1.objective == r2.objective
    assert r1.objective_history == r2.objective_history


def test_seed_required():
    with pytest.raises(ValueError):
        nearest_normal(SHIFT2, seed=None)
    with pytest.raises(TypeError):
        nearest_normal(SHIFT2)  # keyword-only, no default
    with pytest.raises(ValueError):
        nearest_normal(SHIFT2, seed=0, restarts=0)


@pytest.mark.parametrize("kwargs", [
    {"max_sweeps": -1}, {"obj_tol": math.nan}, {"obj_tol": math.inf}, {"obj_tol": -1e-12},
])
def test_optimizer_arguments_are_validated(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        nearest_normal(SHIFT2, seed=0, **kwargs)


def test_schatten_index_is_checked_before_any_start_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(nearest, "_solve", lambda *args: calls.append(args))
    # the zero matrix has zero floors, and its p is checked all the same
    for a in (shift_example(8), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="p >= 1"):
            nearest_normal(a, p_list=(0.5,), seed=0)
    # every member's p and seed are checked before the shared kernel runs
    with pytest.raises(ValueError, match="p >= 1"):
        _nearest_normals([SHIFT2, shift_example(8)], (0.5,), 0, 2, 200, 1e-12)
    for seed in (-1, None):
        with pytest.raises(ValueError, match="seed"):
            _nearest_normals([SHIFT2, shift_example(8)], (1,), seed, 2, 200, 1e-12)
    assert calls == []


def test_zero_sweeps_and_zero_tolerance_are_valid():
    rep = nearest_normal(SHIFT2, seed=0, restarts=1, max_sweeps=0)
    assert rep.sweeps == 0 and rep.restart_stop_reasons == ("cap",)
    rep = nearest_normal(SHIFT2, seed=0, restarts=1, obj_tol=0.0)
    assert rep.frobenius_exact == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_objective_history_monotone():
    a = random_contraction(6, 3)
    rep = nearest_normal(a, seed=2, restarts=1, max_sweeps=60)
    hist = np.asarray(rep.objective_history)
    assert (np.diff(hist) >= -1e-12).all()
    assert rep.sweeps == len(hist) - 1   # history starts before sweep one
    assert rep.objective == pytest.approx(hist[-1])


def test_witness_is_normal_and_certified():
    a = random_contraction(5, 21)
    rep = nearest_normal(a, seed=4, restarts=2, max_sweeps=120)
    w = rep.witness
    assert operator_norm(self_commutator(w)) < 1e-10
    # the witness keeps exactly the rotated diagonal, so the squared
    # Frobenius identity is tight: dist^2 + objective = ||A||_F^2
    fro2 = float(np.linalg.norm(a) ** 2)
    assert abs(rep.frobenius_exact ** 2 + rep.objective - fro2) < 1e-10
    assert abs(np.linalg.norm(a - w) - rep.frobenius_exact) < 1e-10
    # basis is unitary
    u = rep.basis
    assert operator_norm(u @ adjoint(u) - np.eye(5)) < 1e-10


@pytest.mark.parametrize("s", range(5))
def test_frobenius_exact_is_the_witness_distance_near_normal(s):
    # near the optimum ||A||_F^2 - objective cancels to about 1e-16 ||A||_F^2,
    # so a difference of squares would lose the distance's leading digits
    a, _, _ = random_normal_with_spectrum(6, s)
    rep = nearest_normal(a, seed=0, restarts=1)
    assert abs(rep.frobenius_exact - rep.distances[2]) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("seed", range(10))
def test_sandwich_bounds(seed):
    n = 3 + seed % 4
    a = random_contraction(n, 1000 + seed)
    rep = nearest_normal(a, seed=seed, restarts=1, max_sweeps=30, obj_tol=1e-9)
    for p in (1, 2, math.inf):
        assert rep.lower_bounds[p] <= rep.distances[p] + 1e-9
    assert rep.lower_bounds[2] <= rep.frobenius_exact + 1e-9
    assert rep.frobenius_exact <= rep.distances[2] + 1e-10


def test_commutator_lower_bound_hand_values():
    # [S, S*] = diag(1, -1): trace norm 2, Frobenius sqrt(2), operator 1;
    # ||S|| = 1 so the bounds are the norms over 4
    assert abs(commutator_lower_bound(SHIFT2, 1) - 0.5) < 1e-12
    assert abs(commutator_lower_bound(SHIFT2, 2) - math.sqrt(2) / 4) < 1e-12
    assert abs(commutator_lower_bound(SHIFT2, math.inf) - 0.25) < 1e-12
    assert commutator_lower_bound(np.zeros((3, 3)), 2) == 0.0


def test_maximize_diagonal_returns_unitary():
    a = random_contraction(4, 8)
    u = nearest_normal(a, seed=0, restarts=1, max_sweeps=40).basis
    assert operator_norm(u @ adjoint(u) - np.eye(4)) < 1e-10


def _pivot_blocks():
    rng = np.random.default_rng(31)
    for _ in range(200):
        yield rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    yield SHIFT2                                            # lam = 0
    yield np.array([[1, 1], [0, 1]], dtype=complex)         # lam = 0
    yield np.array([[1j, 0], [2 - 1j, -0.5]], dtype=complex)  # lower triangular


def test_plane_rotation_gain_is_realized():
    blocks = np.array(list(_pivot_blocks()))
    keep, gains, xs, ys = _plane_rotations(*(blocks[:, r, c] for r, c in np.ndindex(2, 2)), 0.0)
    assert keep.all()
    for blk, gain, x, y in zip(blocks, gains, xs, ys):
        g = np.array([[x, -np.conj(y)], [y, np.conj(x)]])
        assert operator_norm(adjoint(g) @ g - np.eye(2)) < 1e-14
        new = adjoint(g) @ blk @ g
        realized = (abs(new[0, 0]) ** 2 + abs(new[1, 1]) ** 2
                    - abs(blk[0, 0]) ** 2 - abs(blk[1, 1]) ** 2)
        assert abs(realized - gain) <= 1e-13 * np.linalg.norm(blk) ** 2
    diagonal = np.array([1 + 2j, 0, 0, -3], dtype=complex)
    assert not _plane_rotations(*diagonal[:, None], 0.0)[0].any()


@pytest.mark.parametrize("n", range(1, 14))
def test_round_robin_covers_each_pair_once_in_disjoint_rounds(n):
    rounds = _round_robin(n)
    pairs = []
    for i, j in rounds:
        assert (i < j).all()
        assert len(set(i) | set(j)) == 2 * len(i) == 2 * (n // 2)
        pairs += zip(i.tolist(), j.tolist())
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_batched_sweeps_do_not_drift_from_the_basis():
    # odd n exercises the dummy index; every round updates b in place
    a = random_contraction(17, 170)
    for out in _solve([a] * 2, _starts([a], 3, 2), 200, 1e-12):
        u, b = out.basis, out.rotated
        assert out.pivots > 0
        assert np.abs(adjoint(u) @ a @ u - b).max() <= 1e-12 * np.linalg.norm(a)
        assert operator_norm(adjoint(u) @ u - np.eye(17)) < 1e-12


def _alone(a, seed, k, max_sweeps, obj_tol):
    """Start k of a member seeded with seed, run through the rounds and the
    finish with no other start."""
    return _solve([a], _starts([a], seed, k + 1)[k:], max_sweeps, obj_tol)[0]


def _same_bits(x, y) -> bool:
    return (x.basis.tobytes() == y.basis.tobytes()
            and x.rotated.tobytes() == y.rotated.tobytes()
            and np.array(x.history).tobytes() == np.array(y.history).tobytes()
            and (x.sweeps, x.pivots, x.stop_reason, x.stationarity)
            == (y.sweeps, y.pivots, y.stop_reason, y.stationarity))


# (matrix, seed, max_sweeps, obj_tol)
STACK_CASES = {
    "n1": (random_contraction(1, 1), 1, 200, 1e-12),
    "n2": (random_contraction(2, 2), 2, 200, 1e-12),
    "n7": (random_contraction(7, 7), 7, 200, 1e-12),
    "n10": (random_contraction(10, 10), 10, 200, 1e-12),
    # the identity start stops after 2 sweeps, the first Haar start after 12
    "uneven_stops": (shift_example(6), 3, 200, 1e-12),
    "sweep_cap": (random_contraction(9, 90), 5, 6, 1e-12),
    "zero": (np.zeros((4, 4), dtype=complex), 0, 200, 1e-12),
}


@pytest.mark.parametrize("restarts", [1, 2, 3, 4])
@pytest.mark.parametrize("case", STACK_CASES)
def test_stacked_starts_match_each_start_run_alone(case, restarts):
    a, seed, max_sweeps, obj_tol = STACK_CASES[case]
    runs = _solve([a] * restarts, _starts([a], seed, restarts), max_sweeps, obj_tol)
    assert len(runs) == restarts
    for k, run in enumerate(runs):
        assert _same_bits(run, _alone(a, seed, k, max_sweeps, obj_tol)), k


@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("max_sweeps, obj_tol", [(200, 1e-12), (6, 1e-12), (0, 1e-12), (200, 0.0)])
def test_stacked_members_of_mixed_dimension_match_each_start_run_alone(max_sweeps, obj_tol, restarts):
    # one zero-padded stack holds every start of every member, n = 1 to 10,
    # member m seeded with base + m
    mats, base = [a for a, _, _, _ in STACK_CASES.values()], 3
    runs = _solve([a for a in mats for _ in range(restarts)], _starts(mats, base, restarts),
                  max_sweeps, obj_tol)
    assert len(runs) == restarts * len(mats)
    for m, a in enumerate(mats):
        for k, run in enumerate(runs[m * restarts:(m + 1) * restarts]):
            assert _same_bits(run, _alone(a, base + m, k, max_sweeps, obj_tol)), (a.shape, k)


def _fields(rep) -> dict:
    """Every field of a report, arrays as bytes and numbers by repr."""
    values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v) for k, v in values.items()}


@pytest.mark.parametrize("p", [1, math.inf])
def test_witnesses_match_nearest_normal_member_by_member(p):
    # members far apart in scale, dimension and stop reason share one kernel
    blocks = [a for a, _, _, _ in STACK_CASES.values()] + [shift_example(4) * 2.0 ** -600]
    reps = _nearest_normals(blocks, (p,), 5, 2, 200, 1e-12)
    assert len(reps) == len(blocks)
    for k, (a, rep) in enumerate(zip(blocks, reps)):
        assert _fields(rep) == _fields(nearest_normal(a, (p,), seed=5 + k, restarts=2)), k


def test_stack_cases_cover_uneven_stops_and_the_cap():
    a, seed, max_sweeps, obj_tol = STACK_CASES["uneven_stops"]
    assert [r.sweeps for r in _solve([a] * 2, _starts([a], seed, 2), max_sweeps, obj_tol)] == [2, 12]
    # the identity start of n10 leaves the rounds for the trust-region finish
    a, seed, max_sweeps, obj_tol = STACK_CASES["n10"]
    fro2 = float(np.linalg.norm(a) ** 2)
    assert _run_sweeps(_starts([a], seed, 1), [a.shape[0]], max_sweeps, obj_tol, [fro2])[2] == ["switch"]
    a, seed, max_sweeps, obj_tol = STACK_CASES["sweep_cap"]
    runs = _solve([a] * 4, _starts([a], seed, 4), max_sweeps, obj_tol)
    assert all(r.sweeps == max_sweeps and not r.converged for r in runs)


def _skew(rng, n):
    return _horizontal(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.mark.parametrize("seed", range(3))
def test_gradient_and_hessian_match_finite_differences(seed):
    # B = U*AU at U = I; f(X) = sum |diag(e^-X B e^X)|^2 along horizontal X
    rng = np.random.default_rng(seed)
    n = 5
    b = random_contraction(n, 300 + seed)
    x, y = _skew(rng, n), _skew(rng, n)
    grad, hess = _gradient(b), _Hessian(b)

    def f(s, t=0.0):
        u = _retract(np.eye(n, dtype=complex), s * x + t * y)
        return _diag_objective(adjoint(u) @ b @ u)

    def inner(p, q):
        return np.vdot(p, q).real

    h = 1e-4
    assert abs((f(h) - f(-h)) / (2 * h) - inner(grad, x)) <= 1e-7
    assert abs((f(h) - 2 * f(0.0) + f(-h)) / h ** 2 - inner(x, hess(x))) <= 1e-5
    mixed = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
    assert abs(mixed - inner(y, hess(x))) <= 1e-5
    assert abs(inner(y, hess(x)) - inner(x, hess(y))) <= 1e-14
    # horizontal: skew-Hermitian with a zero diagonal
    for z in (grad, hess(x)):
        assert np.array_equal(z, -z.conj().T) and not np.diagonal(z).any()


def test_preconditioner_inverts_the_plane_blocks_of_the_hessian():
    # at a maximum the plane blocks of -Hess are positive; on a direction in
    # one plane (j, k), the preconditioner undoes that block exactly
    a = random_contraction(6, 9)
    (out,) = _solve([a], _starts([a], 0, 1), 200, 1e-12)
    hess = _Hessian(out.rotated)
    rng = np.random.default_rng(1)
    checked = 0
    for j, k in zip(*np.triu_indices(6, 1)):

        def plane(z):
            x = np.zeros((6, 6), dtype=complex)
            x[j, k], x[k, j] = z, -np.conj(z)
            return x

        w1, w2 = -hess(plane(1.0))[j, k], -hess(plane(1j))[j, k]
        block2 = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
        assert abs(block2[0, 1] - block2[1, 0]) <= 1e-14 * hess.scale
        if np.linalg.eigvalsh(block2).min() < 0.02 * hess.scale:
            continue  # near the floor the preconditioner is not the inverse
        x = plane(complex(*rng.standard_normal(2)))
        r = np.zeros_like(x)
        r[[j, k], [k, j]] = -hess(x)[[j, k], [k, j]]
        assert np.abs(hess.precondition(r) - x).max() <= 1e-12 * np.abs(x).max()
        checked += 1
    assert checked >= 5


# The Hessian product, the preconditioner and the sweep objectives as they
# were first written, with a temporary per operation: the in-place forms in
# nearest must keep every operand order, since numpy's fused complex
# multiply makes a*b and b*a differ in the last bit.


def _hessian_product_formula(b, x):
    n, dc = b.shape[0], np.diagonal(b).conj()
    bx_e2x = np.concatenate([b, b * dc]) @ x
    xb_xe1 = x @ np.concatenate([b, dc[:, None] * b], 1)
    bx, xb = bx_e2x[:n], xb_xe1[:, :n]
    cc = (np.diagonal(bx) - np.diagonal(xb)).conj()
    k = (dc[:, None] * (bx - 2.0 * xb) + (xb - 2.0 * bx) * dc
         + xb_xe1[:, n:] + bx_e2x[n:])
    return -_horizontal((cc[:, None] - cc[None, :]) * b * 2.0 + k)


def _preconditioner_formula(b, r):
    """(M^-1 r, scale), from the pairs j < k alone, mirrored as -conj."""
    n, dc = b.shape[0], np.diagonal(b).conj()
    j, k = np.triu_indices(n, 1)
    bjk, bkj = b[j, k], b[k, j]
    p = 2.0 * (np.abs(dc[j] - dc[k]) ** 2 - np.abs(bjk) ** 2 - np.abs(bkj) ** 2)
    s = -4.0 * bjk * bkj.conj()
    top = p + np.abs(s)
    scale = max(top.max(initial=0.0), np.vdot(b, b).real / n)
    floor = nearest.PRECOND_FLOOR * scale or 1.0
    phase = np.exp(0.5j * np.angle(s))
    t = r[j, k] * phase.conj()
    z = phase * (t.real * (1.0 / np.maximum(top, floor))
                 + 1j * (t.imag * (1.0 / np.maximum(p - np.abs(s), floor))))
    x = np.zeros_like(r)
    x[j, k] = z
    x[k, j] = -z.conj()
    return x, scale


def _hessian_cases():
    """(B, horizontal X): complex Gaussians at n = 2, 3, 8 and 32, and the
    shift m = 8, whose exact zeros give products and tables signed zeros."""
    rng = np.random.default_rng(33)
    cases = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), _skew(rng, n))
             for n in (2, 3, 8, 32) for _ in range(4)]
    return cases + [(shift_example(8).astype(complex), _skew(rng, 8)) for _ in range(4)]


@pytest.mark.parametrize("b, x", _hessian_cases())
def test_hessian_product_and_preconditioner_match_their_formulas_bitwise(b, x):
    hess = _Hessian(b)
    ref, scale = _preconditioner_formula(b, x)
    assert hess.scale == scale
    assert hess.precondition(x).tobytes() == ref.tobytes()
    assert hess(x).tobytes() == _hessian_product_formula(b, x).tobytes()
    # twice on one workspace, and on a second direction
    assert hess(x).tobytes() == _hessian_product_formula(b, x).tobytes()
    assert hess(-x).tobytes() == _hessian_product_formula(b, -x).tobytes()


@pytest.mark.parametrize("m", [4, 8])
def test_preconditioner_on_exact_zeros_differs_from_its_formula_in_mirrored_zero_signs_only(m):
    # The gradient at a shift is zero off a few planes.  The (k, j) entries
    # are computed from r's own (k, j) entries, not mirrored from (j, k), so
    # where r_jk is exactly 0 the zero's sign may differ from the formula's
    # -conj.  No step reads that sign: truncated CG only adds the preconditioned
    # residual to a step that starts at +0, and an exact 0 sum is +0.
    b = shift_example(m).astype(complex) + np.diag(np.arange(m) * 0.25)
    hess = _Hessian(b)
    for r in (_gradient(b), -_gradient(b), hess(_gradient(b))):
        got, (ref, _) = hess.precondition(r), _preconditioner_formula(b, r)
        assert np.array_equal(got, ref)
        signs = np.signbit(got.view(float)) != np.signbit(ref.view(float))
        for row, col in zip(*np.nonzero(signs.reshape(m, m, 2).any(axis=2))):
            assert row > col and ref[row, col] == 0 and r[col, row] == 0
        assert hess(r).tobytes() == _hessian_product_formula(b, r).tobytes()


def test_sweep_objectives_match_the_per_start_sum_bitwise():
    # members of dimension 2 to 12 in one stack: numpy's pairwise sum runs
    # its unrolled form from 8 terms on.  Entry s of each start's history is
    # the objective of its own block after s sweeps, summed alone.
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in range(2, 13)]
    mats += [shift_example(8), random_contraction(9, 9)]
    restarts = 2
    w0 = _starts(mats, 4, restarts)
    dims = [a.shape[0] for a in mats for _ in range(restarts)]
    fro2 = [float(np.linalg.norm(a) ** 2) for a in mats for _ in range(restarts)]
    history, _, reasons = _run_sweeps(w0.copy(), dims, 200, 1e-12, fro2)
    assert {"tolerance", "switch"} <= set(reasons)
    for sweeps in range(max(map(len, history))):
        w = w0.copy()
        _run_sweeps(w, dims, sweeps, 1e-12, fro2)
        alone = [_diag_objective(w[k, :m, :m]) for k, m in enumerate(dims)]
        got = [(h[sweeps], f) for h, f in zip(history, alone) if sweeps < len(h)]
        assert np.array(got)[:, 0].tobytes() == np.array(got)[:, 1].tobytes(), sweeps


def _gauss32(seed):
    """The benchmark's gauss32 input: a complex Gaussian 32x32 of norm 1."""
    rng = np.random.default_rng([seed, 1])
    z = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    return z / np.linalg.norm(z, 2)


def _check_outcome(a, out):
    """The finish keeps B = U*AU, U unitary and the history monotone."""
    u, b = out.basis, out.rotated
    n = a.shape[0]
    # B is recomputed from A after each step, never rotated in place
    assert np.array_equal(adjoint(u) @ a @ u, b)
    assert operator_norm(adjoint(u) @ u - np.eye(n)) < 1e-12
    hist = np.asarray(out.history)
    assert (np.diff(hist) >= 0.0).all()
    assert out.sweeps == len(hist) - 1 and out.objective == hist[-1]
    assert out.objective == _diag_objective(b)


@pytest.mark.parametrize("seed", range(1, 11))
def test_gauss32_stops_by_tolerance_at_a_small_gradient(seed):
    # at the sweep cap of 200 alone, seeds 5, 8 and 10 stopped unconverged
    a, _ = _pow2_scaled(_gauss32(seed))
    (out,) = _solve([a], _starts([a], seed, 1), 200, 1e-12)
    assert out.stop_reason == "tolerance" and out.converged
    assert out.stationarity <= 1e-8
    _check_outcome(a, out)


def test_gauss32_seed_8_reaches_the_long_run_optimum():
    # sweeps alone stop at the cap with frobenius_exact 1.4263554; 328 sweeps
    # reach 1.4261525
    rep = nearest_normal(_gauss32(8), seed=8, restarts=1)
    assert rep.converged and rep.restart_stop_reasons == ("tolerance",)
    assert abs(rep.frobenius_exact - 1.4261525) < 1e-7


@pytest.mark.parametrize("seed", range(1, 11))
def test_gauss32_switches_early_without_giving_up_certificate(seed, monkeypatch):
    # the Jacobi tail is linear from the second sweep, so the gain threshold
    # alone sets the switch; the finish reaches the maximum the late switch
    # reaches
    a, _ = _pow2_scaled(_gauss32(seed))
    fro2 = float(np.linalg.norm(a) ** 2)
    (history,), _, reasons = _run_sweeps(_starts([a], seed, 1), [a.shape[0]], 200, 1e-12, [fro2])
    assert reasons == ["switch"] and len(history) - 1 <= 15
    early = nearest_normal(_gauss32(seed), seed=seed, restarts=1)
    monkeypatch.setattr(nearest, "SWITCH_GAIN", 1e-6)
    late = nearest_normal(_gauss32(seed), seed=seed, restarts=1)
    assert late.restart_sweeps[0] > early.restart_sweeps[0]
    assert early.frobenius_exact == pytest.approx(late.frobenius_exact, rel=1e-12)


def test_finish_counts_against_the_sweep_cap():
    a, seed, _, obj_tol = STACK_CASES["n10"]
    fro2 = float(np.linalg.norm(a) ** 2)
    (history,), _, reasons = _run_sweeps(_starts([a], seed, 1), [a.shape[0]], 200, obj_tol, [fro2])
    assert reasons == ["switch"]
    switched_sweeps = len(history) - 1
    (done,) = _solve([a], _starts([a], seed, 1), 200, obj_tol)
    assert done.converged and done.sweeps > switched_sweeps + 1
    _check_outcome(a, done)
    cap = switched_sweeps + 1
    (capped,) = _solve([a], _starts([a], seed, 1), cap, obj_tol)
    assert capped.stop_reason == "cap" and not capped.converged
    assert capped.sweeps == cap and capped.history == done.history[: cap + 1]
    _check_outcome(a, capped)


def test_finish_builds_only_hessians_that_it_applies(monkeypatch):
    # every Hessian the finish builds meets truncated CG: a product or a
    # preconditioning inside _tcg; on the benchmark's seed-1 scatter ensemble
    root = Path(__file__).resolve().parents[1]
    spec = runpy.run_path(str(root / "perfbench" / "workloads.py"))["_ensemble_spec"](1)
    built, in_tcg = [], []

    class Counted(_Hessian):
        def __init__(self, b):
            super().__init__(b)
            self.uses = 0
            built.append(self)

        def __call__(self, x):
            self.uses += bool(in_tcg)
            return super().__call__(x)

        def precondition(self, r):
            self.uses += bool(in_tcg)
            return super().precondition(r)

    def tcg(grad, hess, *args):
        in_tcg.append(hess)
        try:
            return _tcg(grad, hess, *args)
        finally:
            in_tcg.pop()

    monkeypatch.setattr(nearest, "_Hessian", Counted)
    monkeypatch.setattr(nearest, "_tcg", tcg)
    f_scatter([EnsembleSpec(**s) for s in spec], seed=1)
    assert len(built) > 10
    assert [h.uses > 0 for h in built] == [True] * len(built)
    # a start that switches on its last allowed sweep has no step to take
    a, seed, _, obj_tol = STACK_CASES["n10"]
    fro2 = float(np.linalg.norm(a) ** 2)
    (history,), _, reasons = _run_sweeps(_starts([a], seed, 1), [a.shape[0]], 200, obj_tol, [fro2])
    assert reasons == ["switch"]
    built.clear()
    (capped,) = _solve([a], _starts([a], seed, 1), len(history) - 1, obj_tol)
    assert capped.stop_reason == "cap" and capped.history == tuple(history)
    assert built == []


def test_panel_matches_the_per_index_bound_bitwise():
    a = random_contraction(6, 61) * 3.0
    ps = (1, 1.5, 2, 3, math.inf)
    rep = nearest_normal(a, ps, seed=0, restarts=1)
    assert rep.lower_bounds == {p: commutator_lower_bound(a, p) for p in ps}


def test_per_start_counters():
    a = random_contraction(6, 12)
    rep = nearest_normal(a, seed=1, restarts=3, max_sweeps=60)
    assert (len(rep.restart_objectives) == len(rep.restart_sweeps) == len(rep.restart_pivots)
            == len(rep.restart_stop_reasons) == len(rep.restart_stationarity) == 3)
    assert set(rep.restart_stop_reasons) <= {"tolerance", "cap"}
    best = rep.restart_objectives.index(max(rep.restart_objectives))
    assert rep.objective == max(rep.restart_objectives)
    assert rep.sweeps == rep.restart_sweeps[best]
    assert all(k > 0 for k in rep.restart_pivots)


@pytest.mark.parametrize("make", [lambda: shift_example(4), lambda: random_contraction(5, 44)],
                         ids=["shift4", "contraction5"])
def test_power_of_two_scaling_is_exact(make):
    a = make()

    def outputs(c):
        rep = nearest_normal(c, seed=0, restarts=2, max_sweeps=60)
        return ([rep.frobenius_exact, *rep.distances.values(), *rep.lower_bounds.values(),
                 *(commutator_lower_bound(c, p) for p in (1, 2, math.inf))],
                rep.witness, rep.basis)

    base, base_witness, base_basis = outputs(a)
    assert min(base) > 0.0   # a non-normal input: every certificate is positive
    for k in (-900, -660, -1, 0, 1, 500, 900):
        vals, witness, basis = outputs(a * 2.0 ** k)
        assert vals == [math.ldexp(v, k) for v in base]
        assert np.isfinite(vals).all() and np.isfinite(witness).all()
        assert np.array_equal(witness, base_witness * 2.0 ** k)
        assert np.array_equal(basis, base_basis)


def test_zero_matrix_certifies_zero_distance():
    rep = nearest_normal(np.zeros((3, 3)), seed=0, restarts=1)
    assert rep.frobenius_exact == 0.0 and rep.objective == 0.0
    assert all(v == 0.0 for v in rep.lower_bounds.values())


@pytest.mark.parametrize("seed", range(5))
def test_two_by_two_matches_brute_force(seed):
    a = random_contraction(2, 500 + seed)
    rep = nearest_normal(a, seed=seed, restarts=2)
    bf = brute_force_two_by_two(a, grid=400)
    assert abs(rep.frobenius_exact - bf) < 1e-6


@st.composite
def seeded_inputs(draw):
    """(A, seed): a random complex contraction of dimension 1-8 and an optimizer seed."""
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_contraction(n, seed), seed


@settings(max_examples=40)
@given(seeded_inputs())
def test_nearest_normal_report_properties(case):
    a, seed = case
    rep = nearest_normal(a, seed=seed, restarts=2)
    fro = float(np.linalg.norm(a))
    for p in rep.distances:
        assert rep.lower_bounds[p] <= rep.distances[p] + 1e-12 * fro
    assert abs(rep.frobenius_exact - rep.distances[2]) <= 1e-12 * fro
    assert operator_norm(self_commutator(rep.witness)) <= 1e-12 * fro ** 2
    numbers = [rep.frobenius_exact, rep.objective, *rep.distances.values(),
               *rep.lower_bounds.values(), *rep.objective_history, *rep.restart_objectives]
    assert np.isfinite(numbers).all()
    assert np.isfinite(rep.witness).all() and np.isfinite(rep.basis).all()
    assert _fields(nearest_normal(a, seed=seed, restarts=2)) == _fields(rep)


@settings(max_examples=30)
@given(seeded_inputs(), st.integers(min_value=-900, max_value=900))
def test_nearest_normal_power_of_two_homogeneity(case, k):
    a, seed = case
    ak = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    assume(np.array_equal(np.ldexp(ak.real, -k) + 1j * np.ldexp(ak.imag, -k), a))
    rep = nearest_normal(a, seed=seed, restarts=2)
    repk = nearest_normal(ak, seed=seed, restarts=2)
    assert repk.frobenius_exact == math.ldexp(rep.frobenius_exact, k)
    for p in rep.distances:
        assert repk.distances[p] == math.ldexp(rep.distances[p], k)
        assert repk.lower_bounds[p] == math.ldexp(rep.lower_bounds[p], k)
    assert np.array_equal(repk.witness.real, np.ldexp(rep.witness.real, k))
    assert np.array_equal(repk.witness.imag, np.ldexp(rep.witness.imag, k))
    assert np.array_equal(repk.basis, rep.basis)
    assert np.isfinite([repk.frobenius_exact, *repk.distances.values(),
                        *repk.lower_bounds.values()]).all()


@settings(max_examples=30)
@given(seeded_inputs(), st.integers(min_value=1, max_value=3))
def test_restart_prefix_is_bitwise_stable(case, r):
    # start k depends only on the seed and k, so one more restart leaves the
    # first r starts bitwise as they were
    a, seed = case
    few = nearest_normal(a, seed=seed, restarts=r)
    more = nearest_normal(a, seed=seed, restarts=r + 1)
    assert np.array(more.restart_objectives[:r]).tobytes() == np.array(few.restart_objectives).tobytes()
    assert more.restart_sweeps[:r] == few.restart_sweeps
    assert more.restart_pivots[:r] == few.restart_pivots
