from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostnormal import (
    NotNormal,
    adjoint,
    as_cmatrix,
    commutator,
    hermitian_part,
    norm_report,
    normal_spectral_decomp,
    normality_defect,
    operator_norm,
    schatten_norm,
    self_commutator,
)
from util import assert_close_multiset, haar_unitary, random_contraction, random_normal_with_spectrum

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
    x = SHIFT2
    y = SHIFT2.T.conj()
    # [X, X*] = diag(1, -1) by direct multiplication
    c = commutator(x, y)
    assert np.allclose(c, np.diag([1.0, -1.0]), atol=1e-15)
    # symmetrized path: commutator(X, X*) must be exactly Hermitian
    assert np.array_equal(c, adjoint(c))


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
    u = haar_unitary(4, rng)
    a = (u * lam) @ adjoint(u)
    dec = normal_spectral_decomp(a)
    assert_close_multiset(dec.eigenvalues, lam, 1e-10)
    assert operator_norm(dec.reconstruct() - a) < 1e-9


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
    u = haar_unitary(4, np.random.default_rng(3))
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
    # a caller's cluster width scales with the matrix
    tol = normal_spectral_decomp(a, cluster_tol=1e-6)
    tolk = normal_spectral_decomp(ak, cluster_tol=math.ldexp(1e-6, k))
    assert np.array_equal(tolk.basis, tol.basis)
    assert np.array_equal(tolk.eigenvalues, _ldexp(tol.eigenvalues, k))
    with pytest.raises(NotNormal):  # and a non-normal matrix stays rejected
        normal_spectral_decomp(_ldexp(SHIFT2, k))


def test_spectral_decomp_projection():
    a = np.diag([1.0, 2.0, 2.0, 5.0]).astype(complex)
    dec = normal_spectral_decomp(a)
    mask = np.abs(dec.eigenvalues - 2.0) < 0.5
    proj = dec.projection(mask)
    assert np.trace(proj).real == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.allclose(proj, adjoint(proj), atol=1e-12)


def test_norm_report_fields():
    rep = norm_report(SHIFT2)
    assert rep.operator_norm == pytest.approx(1.0, abs=1e-14)
    assert rep.normality_defect == pytest.approx(1.0, abs=1e-14)
    assert rep.frobenius == pytest.approx(1.0, abs=1e-14)
    assert set(rep.schatten) == {1, 2, math.inf}


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
@given(small_matrices())
def test_schatten_monotone_in_p(a):
    n1 = schatten_norm(a, 1)
    n2 = schatten_norm(a, 2)
    ninf = schatten_norm(a, math.inf)
    assert n1 >= n2 - 1e-12
    assert n2 >= ninf - 1e-12
    assert ninf == pytest.approx(operator_norm(a), abs=1e-12)
