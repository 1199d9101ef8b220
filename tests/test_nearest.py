"""Diagonal maximization, distance panels, and the commutator lower bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostnormal import (
    adjoint,
    commutator_lower_bound,
    nearest_normal,
    operator_norm,
    self_commutator,
    shift_example,
)
from almostnormal.nearest import _optimize, _plane_rotations, _round_robin, _run_sweeps, _starts
from util import random_contraction

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
    for out in _optimize(a, 3, 2, 200, 1e-12):
        u, b = out.basis, out.rotated
        assert out.pivots > 0
        assert np.abs(adjoint(u) @ a @ u - b).max() <= 1e-12 * np.linalg.norm(a)
        assert operator_norm(adjoint(u) @ u - np.eye(17)) < 1e-12


def _alone(a, seed, k, max_sweeps, obj_tol):
    """Start k of _optimize, run through the kernel with no other start."""
    fro2 = float(np.linalg.norm(a) ** 2) or 1.0
    return _run_sweeps(_starts(a, seed, k + 1)[k:], max_sweeps, obj_tol, fro2)[0]


def _same_bits(x, y) -> bool:
    return (x.basis.tobytes() == y.basis.tobytes()
            and x.rotated.tobytes() == y.rotated.tobytes()
            and np.array(x.history).tobytes() == np.array(y.history).tobytes()
            and (x.sweeps, x.pivots, x.converged) == (y.sweeps, y.pivots, y.converged))


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
    runs = _optimize(a, seed, restarts, max_sweeps, obj_tol)
    assert len(runs) == restarts
    for k, run in enumerate(runs):
        assert _same_bits(run, _alone(a, seed, k, max_sweeps, obj_tol)), k


def test_stack_cases_cover_uneven_stops_and_the_cap():
    a, seed, max_sweeps, obj_tol = STACK_CASES["uneven_stops"]
    assert [r.sweeps for r in _optimize(a, seed, 2, max_sweeps, obj_tol)] == [2, 12]
    a, seed, max_sweeps, obj_tol = STACK_CASES["sweep_cap"]
    runs = _optimize(a, seed, 4, max_sweeps, obj_tol)
    assert all(r.sweeps == max_sweeps and not r.converged for r in runs)


def test_per_start_counters():
    a = random_contraction(6, 12)
    rep = nearest_normal(a, seed=1, restarts=3, max_sweeps=60)
    assert len(rep.restart_objectives) == len(rep.restart_sweeps) == len(rep.restart_pivots) == 3
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


def brute_force_two_by_two(a: np.ndarray, grid: int = 400, rounds: int = 12) -> float:
    """Independent check: scan U = [[c, -s e^{-ip}], [s e^{ip}, c]] directly."""
    a11, a12, a21, a22 = complex(a[0, 0]), complex(a[0, 1]), complex(a[1, 0]), complex(a[1, 1])
    fro2 = abs(a11) ** 2 + abs(a12) ** 2 + abs(a21) ** 2 + abs(a22) ** 2

    def objective(theta, phi):
        c, s = np.cos(theta), np.sin(theta)
        e = np.exp(1j * phi)
        d1 = c * c * a11 + c * s * e * a12 + c * s * np.conj(e) * a21 + s * s * a22
        d2 = s * s * a11 - c * s * e * a12 - c * s * np.conj(e) * a21 + c * c * a22
        return np.abs(d1) ** 2 + np.abs(d2) ** 2

    t_lo, t_hi = 0.0, math.pi
    p_lo, p_hi = 0.0, 2.0 * math.pi
    best = -1.0
    bt = bp = 0.0
    for _ in range(rounds):
        ts = np.linspace(t_lo, t_hi, grid)
        ps = np.linspace(p_lo, p_hi, grid)
        vals = objective(ts[:, None], ps[None, :])
        k = int(np.argmax(vals))
        i, j = divmod(k, grid)
        if vals[i, j] > best:
            best, bt, bp = float(vals[i, j]), float(ts[i]), float(ps[j])
        dt = (t_hi - t_lo) / (grid - 1)
        dp = (p_hi - p_lo) / (grid - 1)
        t_lo, t_hi = bt - 2 * dt, bt + 2 * dt
        p_lo, p_hi = bp - 2 * dp, bp + 2 * dp
    return math.sqrt(max(fro2 - best, 0.0))


@pytest.mark.parametrize("seed", range(5))
def test_two_by_two_matches_brute_force(seed):
    a = random_contraction(2, 500 + seed)
    rep = nearest_normal(a, seed=seed, restarts=2)
    bf = brute_force_two_by_two(a)
    assert abs(rep.frobenius_exact - bf) < 1e-6


@st.composite
def seeded_inputs(draw):
    """(A, seed): a random complex contraction of dimension 1-8 and an optimizer seed."""
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_contraction(n, seed), seed


def _bits(rep):
    return (rep.witness.tobytes(), rep.basis.tobytes(), rep.frobenius_exact,
            rep.distances, rep.lower_bounds, np.array(rep.objective_history).tobytes(),
            np.array(rep.restart_objectives).tobytes(), rep.restart_sweeps,
            rep.restart_pivots, rep.converged)


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
    assert _bits(nearest_normal(a, seed=seed, restarts=2)) == _bits(rep)


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
