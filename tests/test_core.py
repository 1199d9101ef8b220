from __future__ import annotations

import math
import sys

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostnormal import (
    NotNormal,
    adjoint,
    as_cmatrix,
    hermitian_part,
    normal_spectral_decomp,
    normality_defect,
    operator_norm,
    schatten_norm,
    self_commutator,
)
from almostnormal import core
from almostnormal.gallery import _haar
from util import (
    assert_close_multiset,
    random_contraction,
    random_normal_with_spectrum,
    tangled_normal,
    traced_peak,
    triangular_blocks,
)

SHIFT2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_as_cmatrix_accepts_lists_and_casts():
    m = as_cmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


@pytest.mark.parametrize(
    "bad",
    [np.zeros((2, 3)), np.zeros((0, 0)), np.zeros((2, 2, 2)), [[1, np.inf], [0, 1]]],
)
def test_as_cmatrix_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        as_cmatrix(bad)


def test_adjoint_and_hermitian_part():
    m = np.array([[1 + 1j, 2], [3j, 4]])
    assert np.array_equal(adjoint(m), m.conj().T)
    h = hermitian_part(m)
    assert np.array_equal(h, adjoint(h))


def test_operator_norm_values():
    assert operator_norm(np.array([[3.0]])) == 3.0
    assert operator_norm(np.diag([1.0, -2.0]).astype(complex)) == 2.0
    assert abs(operator_norm(SHIFT2) - 1.0) < 1e-15


def test_commutator_hand_value():
    # [X, X*] = diag(1, -1) by direct multiplication, as the self-commutator
    # of X*; it is symmetrized, so exactly Hermitian
    c = self_commutator(SHIFT2.T.conj())
    assert np.allclose(c, np.diag([1.0, -1.0]), atol=1e-15)
    assert np.array_equal(c, adjoint(c))


@pytest.mark.parametrize("view", [
    lambda z: z, lambda z: z.T, lambda z: z[::-1, ::-1], lambda z: z.real.copy(),
    lambda z: np.asfortranarray(z),
], ids=["c-order", "transposed", "reversed", "real", "fortran"])
def test_self_commutator_is_exactly_hermitian_on_any_layout(view):
    rng = np.random.default_rng(11)
    a = view(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    c = self_commutator(a)
    m = np.array(a, dtype=complex, order="C")
    assert np.array_equal(c, adjoint(c))
    assert np.allclose(c, m.conj().T @ m - m @ m.conj().T, rtol=0, atol=1e-13)


def test_self_commutator_shift():
    c = self_commutator(SHIFT2)  # [A*, A] = diag(-1, 1)
    assert np.allclose(c, np.diag([-1.0, 1.0]), atol=1e-15)
    assert normality_defect(SHIFT2) == pytest.approx(1.0, abs=1e-14)


def test_schatten_norm_hand_values():
    a = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)  # singular values (2, 0)
    for p in (1, 2, math.inf):
        assert schatten_norm(a, p) == pytest.approx(2.0, abs=1e-14)
    d = np.diag([3.0, 4.0]).astype(complex)
    assert schatten_norm(d, 1) == pytest.approx(7.0, abs=1e-13)
    assert schatten_norm(d, 2) == pytest.approx(5.0, abs=1e-13)
    assert schatten_norm(d, math.inf) == pytest.approx(4.0, abs=1e-13)
    assert schatten_norm(d, 3) == pytest.approx(91.0 ** (1.0 / 3.0), rel=1e-13)


def test_schatten_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        schatten_norm(SHIFT2, 0.5)


def test_normal_spectral_decomp_circulant_oracle():
    # cyclic permutation: eigenvalues are exactly the n-th roots of unity
    n = 8
    c = np.zeros((n, n), dtype=complex)
    for k in range(n):
        c[(k + 1) % n, k] = 1.0
    dec = normal_spectral_decomp(c)
    roots = np.exp(2j * math.pi * np.arange(n) / n)
    assert_close_multiset(dec.eigenvalues, roots, 1e-10)
    assert operator_norm(dec.reconstruct() - c) < 1e-9
    assert np.allclose(dec.basis @ adjoint(dec.basis), np.eye(n), atol=1e-9)


def test_normal_spectral_decomp_rejects_shift():
    with pytest.raises(NotNormal) as exc:
        normal_spectral_decomp(SHIFT2)
    assert exc.value.defect == pytest.approx(1.0, abs=1e-12)


def test_normal_spectral_decomp_handles_clustered_real_parts():
    # same real part, distinct imaginary parts: the two-stage split must
    # resolve the cluster through the imaginary part
    lam = np.array([1.0 + 1.0j, 1.0 - 1.0j, 1.0 + 0.5j, -2.0 + 0.0j])
    rng = np.random.default_rng(11)
    u = _haar(4, rng)
    a = (u * lam) @ adjoint(u)
    dec = normal_spectral_decomp(a)
    assert_close_multiset(dec.eigenvalues, lam, 1e-10)
    assert operator_norm(dec.reconstruct() - a) < 1e-9


def test_normality_check_falls_back_to_the_operator_norm():
    # the Frobenius pre-test fails, the operator norm passes: accepted
    a = triangular_blocks(1.9e-9)
    c, tol = self_commutator(a), 4e-9 * operator_norm(a) ** 2
    assert np.linalg.norm(c) > tol >= operator_norm(c)
    dec = normal_spectral_decomp(a)
    assert operator_norm(dec.reconstruct() - a) <= 1e-9 * operator_norm(a)
    # just over 4e-9 ||A||^2 no basis reconstructs A to 1e-9 ||A||, so it
    # raises once the t = 0 basis fails, with the exact defect and no residual
    a = triangular_blocks(2.1e-9)
    c = self_commutator(a)
    assert 4e-9 < operator_norm(c) < 4.4e-9
    with pytest.raises(NotNormal) as exc:
        normal_spectral_decomp(a)
    assert exc.value.defect == pytest.approx(operator_norm(c), rel=1e-12)
    assert exc.value.residual is None


def test_an_accepted_normal_input_never_forms_its_self_commutator(monkeypatch):
    # the residual test alone accepts; [A*, A] is formed once the t = 0 basis fails
    calls = []
    monkeypatch.setattr(core, "self_commutator", lambda m: calls.append(m.shape) or self_commutator(m))
    a, lam, _ = random_normal_with_spectrum(12, seed=5)
    assert_close_multiset(normal_spectral_decomp(a).eigenvalues, lam, 1e-8)
    assert calls == []
    with pytest.raises(NotNormal):
        normal_spectral_decomp(SHIFT2)
    assert calls == [(2, 2)]


def test_normal_spectral_decomp_rejects_by_residual_under_the_defect_bound():
    # a triangular block with a small gap: the defect 6e-10 is under the
    # pre-test's bound, but every basis leaves a residual of 1.5e-9; the
    # work runs on A/2, so these also check that the numbers are scaled back
    a = np.diag([1.0, -1.0, 0.1, -0.1]).astype(complex)
    a[2, 3] = 3e-9
    with pytest.raises(NotNormal) as exc:
        normal_spectral_decomp(a)
    assert exc.value.defect == pytest.approx(normality_defect(a), rel=1e-12)
    assert exc.value.residual == pytest.approx(1.5e-9, rel=1e-6)
    assert exc.value.tolerance == pytest.approx(1e-9, rel=1e-12)
    assert "best residual" in str(exc.value)


@pytest.mark.parametrize("g", (1.2e-8, 3e-8))
@pytest.mark.parametrize("n", (16, 64))
def test_normal_spectral_decomp_accepts_tangled_real_parts(n, g):
    # real parts just over the cluster width: eigh(Re A) cannot separate
    # the eigenvectors, a combination with Im A can
    for seed in range(10):
        a, lam = tangled_normal(n, g, seed)
        dec = normal_spectral_decomp(a)
        assert operator_norm(dec.reconstruct() - a) <= 1e-9 * operator_norm(a)
        assert_close_multiset(dec.eigenvalues, lam, 1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_normal_spectral_decomp_random_roundtrip(seed):
    n = 3 + 4 * seed
    a, lam, _ = random_normal_with_spectrum(n, seed=200 + seed)
    dec = normal_spectral_decomp(a)
    scale = operator_norm(a)
    assert operator_norm(dec.reconstruct() - a) <= 1e-9 * max(scale, 1e-30)
    assert_close_multiset(dec.eigenvalues, lam, 1e-8)


@pytest.mark.parametrize("c", (1e160, 1e-160))
def test_normal_spectral_decomp_far_from_unit_scale(c):
    # at 1e160 the self-commutator overflows and at 1e-160 the normality
    # tolerance underflows unless the input is rescaled first
    lam = np.array([1.0, 0.5j, -0.3, 0.7])
    u = _haar(4, np.random.default_rng(3))
    dec = normal_spectral_decomp((u * lam) @ adjoint(u) * c)
    assert_close_multiset(dec.eigenvalues / c, lam, 1e-12)
    assert np.isfinite(dec.eigenvalues).all()


def _ldexp(m, k):
    return np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=-900, max_value=900),
)
def test_normal_spectral_decomp_power_of_two_homogeneity(n, seed, k):
    a, _, _ = random_normal_with_spectrum(n, seed)
    ak = _ldexp(a, k)
    assume(np.array_equal(_ldexp(ak, -k), a))  # 2^k A is exact (no subnormals)
    dec = normal_spectral_decomp(a)
    deck = normal_spectral_decomp(ak)
    assert np.array_equal(deck.basis, dec.basis)
    assert np.array_equal(deck.eigenvalues, _ldexp(dec.eigenvalues, k))
    with pytest.raises(NotNormal):  # and a non-normal matrix stays rejected
        normal_spectral_decomp(_ldexp(SHIFT2, k))


@settings(max_examples=60)
@given(
    st.floats(min_value=math.log(5e-9), max_value=math.log(1e-6)),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=-900, max_value=900),
)
def test_tangled_normal_is_accepted_at_every_scale(log_g, n, seed, k):
    a, lam = tangled_normal(n, math.exp(log_g), seed)
    dec = normal_spectral_decomp(a)
    scale = operator_norm(a)
    assert operator_norm(dec.reconstruct() - a) <= 1e-9 * scale
    assert_close_multiset(dec.eigenvalues, lam, 1e-8 * scale)
    ak = _ldexp(a, k)
    assume(np.array_equal(_ldexp(ak, -k), a))  # 2^k A is exact (no subnormals)
    deck = normal_spectral_decomp(ak)
    assert np.array_equal(deck.basis, dec.basis)
    assert np.array_equal(deck.eigenvalues, _ldexp(dec.eigenvalues, k))


def _operator_norm_over(m, tol):
    """||M|| when it exceeds tol, else None; the SVD runs only when the
    Frobenius norm does not already clear tol."""
    if npl.norm(m) <= core.FRO_PRETEST * tol:
        return None
    nrm = operator_norm(m)
    return nrm if nrm > tol else None


def _decomp_holding_every_matrix(a):
    """The decomposition as it was before it dropped the matrices it does not
    read, kept as the oracle: (SpectralDecomp or NotNormal, how it ended),
    where how is the angle that passed, "pretest" or "residual"."""
    a, e = core._pow2_scaled(a)
    scale = operator_norm(a)
    tol = core.RECONSTRUCT_TOL * scale
    comm = self_commutator(a)
    bound = 4 * core.RECONSTRUCT_TOL * scale ** 2
    defect = _operator_norm_over(comm, bound)
    if defect is not None:
        return NotNormal(core._scale(defect, 2 * e), core._scale(bound, 2 * e)), "pretest"
    x = hermitian_part(a)
    y = (a - adjoint(a)) / 2j
    best = math.inf
    for t in core.SPLIT_ANGLES:
        c, s = math.cos(t), math.sin(t)
        first, second = (c * x + s * y, c * y - s * x) if t else (x, y)
        vals, u = npl.eigh(first)
        cuts = [0, *(np.flatnonzero(np.diff(vals) > core.CLUSTER_TOL * scale) + 1), vals.size]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo < 2:
                continue
            block = u[:, lo:hi]
            yb = hermitian_part(adjoint(block) @ second @ block)
            _, w = npl.eigh(yb)
            u[:, lo:hi] = block @ w
        lam = np.einsum("ij,ij->j", u.conj(), a @ u)
        residual = _operator_norm_over(a - (u * lam) @ adjoint(u), tol)
        if residual is None:
            return core.SpectralDecomp(eigenvalues=core._ldexp(lam, e), basis=u), t
        best = min(best, residual)
    tol, best = core._scale(tol, e), core._scale(best, e)
    return NotNormal(core._scale(operator_norm(comm), 2 * e), tol, best), "residual"


def _two_tangles(n, k, g, pairs, nudge, seed):
    """U diag(l) U* + nudge u_0 u_{n-1}*.  k eigenvalues have real parts g
    apart, the other n - k are g apart along the angle 0.3 (for g just over
    the cluster width, t = 0 cannot split the first run and t = 0.3 the
    second); the last `pairs` eigenvalues repeat the first ones, so every
    angle meets clusters of two."""
    rng = np.random.default_rng(seed)
    lam = np.concatenate([
        g * np.arange(k) + 1j * rng.uniform(-1, 1, k),
        np.exp(0.3j) * (g * np.arange(n - k) + 1j * rng.uniform(-1, 1, n - k)),
    ])
    lam[n - pairs:] = lam[:pairs]
    u = _haar(n, rng)
    return (u * lam) @ adjoint(u) + nudge * np.outer(u[:, 0], u[:, -1].conj())


def _assert_decomp_is_the_oracle(a):
    want, how = _decomp_holding_every_matrix(a)
    if isinstance(want, NotNormal):
        with pytest.raises(NotNormal) as exc:
            normal_spectral_decomp(a)
        got = exc.value
        assert (got.defect, got.tolerance, got.residual) == (
            want.defect, want.tolerance, want.residual)
        assert str(got) == str(want)
    else:
        got = normal_spectral_decomp(a)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.basis.tobytes() == want.basis.tobytes()
    return how


# one input for each way the decomposition ends: t = 0 with and without
# clusters, t = 0.3, t = 1.0 (with clusters at every angle), the pre-test and
# the residual rejections
@pytest.mark.parametrize(
    "params, how",
    [
        ((6, 6, 1.0, 0, 0.0, 0), 0.0),
        ((6, 6, 1.0, 2, 0.0, 0), 0.0),
        ((6, 6, 2e-8, 0, 0.0, 0), 0.3),
        ((8, 4, 2e-8, 0, 0.0, 3), 1.0),
        ((8, 4, 2e-8, 2, 0.0, 3), 1.0),
        ((6, 3, 1.0, 0, 1e-2, 0), "pretest"),
        ((4, 2, 1.0, 0, 3e-9, 0), "residual"),
    ],
)
def test_decomposition_is_bitwise_the_one_that_held_every_matrix(params, how):
    assert _assert_decomp_is_the_oracle(_two_tangles(*params)) == how


@settings(max_examples=150)
@given(
    n=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=0, max_value=10),
    log_g=st.floats(min_value=math.log(5e-9), max_value=math.log(1e-7)),
    pairs=st.integers(min_value=0, max_value=5),
    nudge=st.sampled_from([0.0, 1e-10, 1e-9, 3e-9, 1e-8, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_decomposition_matches_the_oracle_on_clustered_and_non_normal_inputs(
    n, k, log_g, pairs, nudge, seed
):
    a = _two_tangles(n, min(k, n), math.exp(log_g), min(pairs, n // 2), nudge, seed)
    _assert_decomp_is_the_oracle(a)


def test_decomposition_runs_the_svd_of_a_only_where_the_bracket_cannot_decide(monkeypatch):
    # max_j ||A e_j|| <= ||A|| <= ||A||_F decide every test on a well-separated
    # normal input; a repeated eigenvalue needs the exact width for its cut
    calls = []
    monkeypatch.setattr(core, "operator_norm", lambda m: calls.append(m) or operator_norm(m))
    rng = np.random.default_rng(8)
    u = _haar(64, rng)
    lam = np.arange(64) / 8 + 1j * rng.uniform(-1, 1, 64)
    for eigs, svds in ((lam, 0), (np.append(lam[:-1], lam[0]), 1)):
        a = (u * eigs) @ adjoint(u)
        calls.clear()
        normal_spectral_decomp(a)
        assert len(calls) == svds
        _assert_decomp_is_the_oracle(a)
    # where it runs, a rejection is the oracle's at every scale: the pre-test
    # and the residual NotNormal carry the same fields and message
    for params, how in (((6, 3, 1.0, 0, 1e-2, 0), "pretest"), ((4, 2, 1.0, 0, 3e-9, 0), "residual")):
        for k in (-500, 0, 500):
            assert _assert_decomp_is_the_oracle(_ldexp(_two_tangles(*params), k)) == how


def test_decomposition_holds_about_five_matrices():
    # 2^-e A, U and the three matrices of one product; the decomposition
    # that held X, Y and [A*, A] throughout peaked at 8.0 of them
    n = 256
    a, _, _ = random_normal_with_spectrum(n, seed=5)
    _, peak = traced_peak(lambda: normal_spectral_decomp(a))
    assert peak < 5.5 * 16 * n * n


@st.composite
def small_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_contraction(n, seed)


@settings(max_examples=40)
@given(small_matrices())
def test_defect_bounded_by_twice_norm_squared(a):
    assert normality_defect(a) <= 2.0 * operator_norm(a) ** 2 + 1e-12


@settings(max_examples=40)
@given(small_matrices(), st.integers(min_value=-500, max_value=500))
def test_normality_defect_power_of_two_homogeneity(a, k):
    base = normality_defect(a)
    want = math.ldexp(base, 2 * k)
    assume(base == 0.0 or min(base, want) >= sys.float_info.min)  # normal doubles
    assert normality_defect(_ldexp(a, k)) == want
    # at 2^520 the entries of [A*, A] itself would overflow
    assert not math.isnan(normality_defect(_ldexp(a, 520)))


@settings(max_examples=40)
@given(small_matrices())
def test_schatten_monotone_in_p(a):
    n1 = schatten_norm(a, 1)
    n2 = schatten_norm(a, 2)
    ninf = schatten_norm(a, math.inf)
    assert n1 >= n2 - 1e-12
    assert n2 >= ninf - 1e-12
    assert ninf == pytest.approx(operator_norm(a), abs=1e-12)
