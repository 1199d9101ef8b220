"""Generator families and their construction-time certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from almostnormal import (
    EnsembleSpec,
    adjoint,
    almost_commuting_pair,
    laurent_multiplication,
    materialize,
    operator_norm,
    perturbed_normal,
    self_commutator,
    shift_example,
)


def test_shift_structure():
    a = shift_example(4)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 1] = 1.0
    want[2, 3] = 1.0
    assert np.array_equal(a, want)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_shift_certificates(m):
    a = shift_example(m)
    assert operator_norm(a) == 1.0
    comm = self_commutator(a)
    # diag(-1, 1, ...) pattern: A*A - AA* on the paired basis
    diag = np.diagonal(comm).real
    assert np.array_equal(np.abs(diag), np.ones(m))
    assert abs(np.linalg.norm(comm) - math.sqrt(m)) < 1e-12


@pytest.mark.parametrize("m", [1, 3, 5])
def test_shift_rejects_odd(m):
    with pytest.raises(ValueError):
        shift_example(m)


def test_pair_hand_values_m3():
    a, b = almost_commuting_pair(3)
    assert np.allclose(np.diagonal(a), [1.0, 1 / 3, -1 / 3, -1.0])
    # subdiagonal 2/(m+1) * sqrt((j+1)(m-j)) for j = 0..2
    want = 0.5 * np.sqrt(np.array([1 * 3, 2 * 2, 3 * 1], dtype=float))
    assert np.allclose(np.diagonal(b, -1), want)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 81])
def test_pair_certificates_dense(m):
    a, b = almost_commuting_pair(m)
    assert operator_norm(a) == 1.0
    assert operator_norm(b) <= 1.0 + 1e-12
    assert operator_norm(a @ b - b @ a) <= 2.0 / m + 1e-9
    assert operator_norm(self_commutator(b)) <= 4.0 / m + 1e-9
    # the ladder identity: [A, B] = -(2/m) B exactly
    assert operator_norm(a @ b - b @ a + (2.0 / m) * b) < 1e-12


def test_pair_rejects_bad_m():
    with pytest.raises(ValueError):
        almost_commuting_pair(0)


def test_perturbed_normal_deterministic():
    a = perturbed_normal(5, 0.1, 42)
    b = perturbed_normal(5, 0.1, 42)
    assert np.array_equal(a, b)
    c = perturbed_normal(5, 0.1, 43)
    assert not np.array_equal(a, c)


def test_perturbed_normal_properties():
    a = perturbed_normal(6, 0.0, 7)
    assert operator_norm(self_commutator(a)) < 1e-12
    assert operator_norm(a) <= 1.0 + 1e-12
    b = perturbed_normal(6, 0.3, 7)
    assert operator_norm(b) <= 1.0 + 1e-12
    assert operator_norm(b - a) > 0


def test_perturbed_normal_validation():
    with pytest.raises(ValueError):
        perturbed_normal(0, 0.1, 1)
    with pytest.raises(ValueError):
        perturbed_normal(3, -0.1, 1)


def test_laurent_window_oracle():
    # c = (0, 0, 1) is the single diagonal s = 1, i.e. A[j+1, j] = 1
    g, a = laurent_multiplication([0, 0, 1], 4)
    assert g.shape == (9, 9)
    assert np.array_equal(np.diagonal(g).real, np.abs(np.arange(-4, 5)))
    want = np.zeros((9, 9), dtype=complex)
    want[np.arange(1, 9), np.arange(8)] = 1.0
    assert np.array_equal(a, want)
    # commutator bound sum |s| |c_s| = 1 and is attained at the index kink
    assert operator_norm(g @ a - a @ g) <= 1.0 + 1e-12


def test_laurent_two_sided_bound():
    g, a = laurent_multiplication([1, 0, 1], 6)
    assert operator_norm(g @ a - a @ g) <= 2.0 + 1e-12
    assert np.array_equal(a, adjoint(a))


def test_laurent_validation():
    with pytest.raises(ValueError):
        laurent_multiplication([1, 0], 4)       # even length
    with pytest.raises(ValueError):
        laurent_multiplication([1], 0)          # K too small
    with pytest.raises(ValueError):
        laurent_multiplication(np.ones(11), 2)  # band exceeds window
    with pytest.raises(ValueError, match="finite"):
        laurent_multiplication([0, np.nan, 1], 2)


def test_materialize_all_kinds():
    a = materialize(EnsembleSpec(kind="shift_example", params={"m": 4}))
    assert np.array_equal(a, shift_example(4))
    b = materialize(EnsembleSpec(kind="almost_commuting_pair", params={"m": 3}))
    assert np.array_equal(b, almost_commuting_pair(3)[1])
    c = materialize(
        EnsembleSpec(kind="perturbed_normal", params={"dim": 4, "delta": 0.2}, seed=9)
    )
    assert np.array_equal(c, perturbed_normal(4, 0.2, 9))
    d = materialize(
        EnsembleSpec(kind="laurent_multiplication", params={"coeffs": [0, 0, 1], "K": 3})
    )
    assert np.array_equal(d, laurent_multiplication([0, 0, 1], 3)[1])


def test_materialize_unknown_kind():
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        materialize(EnsembleSpec(kind="mystery"))
    with pytest.raises(ValueError, match="seed"):
        materialize(EnsembleSpec(kind="perturbed_normal", params={"dim": 2, "delta": 0.1}))


@pytest.mark.parametrize("kind, params", [
    ("shift_example", {"m": [2]}),
    ("shift_example", {}),
    ("almost_commuting_pair", {"m": None}),
    ("perturbed_normal", {"dim": 3, "delta": {"x": 1}}),
    ("laurent_multiplication", {"coeffs": None, "K": 2}),
    ("laurent_multiplication", {"coeffs": "1", "K": 2}),
    ("laurent_multiplication", {"coeffs": [{"x": 1}], "K": 2}),
    ("laurent_multiplication", {"coeffs": [0, 0, 1], "K": [3]}),
    ("shift_example", {"m": "4"}),
    ("shift_example", {"m": True}),
    ("perturbed_normal", {"dim": 3, "delta": "0.5"}),
    ("perturbed_normal", {"dim": 3.5, "delta": 0.5}),
    ("laurent_multiplication", {"coeffs": [0, 0, 1], "K": 3.5}),
    ("laurent_multiplication", {"coeffs": [True, 0, 1], "K": 3}),
    ("laurent_multiplication", {"coeffs": ["1", 0, 1], "K": 3}),
])
def test_materialize_rejects_mistyped_params(kind, params):
    # spec files are outside input: a wrong JSON type is a ValueError, not a
    # TypeError; a string or a bool is not a number, nor 3.5 an integer
    with pytest.raises(ValueError, match="params"):
        materialize(EnsembleSpec(kind=kind, params=params, seed=1))


def test_materialize_takes_integral_floats_and_numpy_numbers():
    a = materialize(EnsembleSpec(kind="shift_example", params={"m": 4.0}))
    assert np.array_equal(a, shift_example(4))
    c = materialize(EnsembleSpec(
        kind="perturbed_normal", params={"dim": np.int64(4), "delta": np.float64(0.2)}, seed=9
    ))
    assert np.array_equal(c, perturbed_normal(4, 0.2, 9))
    d = materialize(EnsembleSpec(
        kind="laurent_multiplication", params={"coeffs": [0, 0.5j, np.float64(1)], "K": 3.0}
    ))
    assert np.array_equal(d, laurent_multiplication([0, 0.5j, 1], 3)[1])
