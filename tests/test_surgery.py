"""Plane maps, spectrum surgery, and the oscillating graph approximant."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostnormal import (
    Affine,
    BoundaryPush,
    ChordSnap,
    OpenDisc,
    Oscillator,
    RadialCollapse,
    SpectralDecomp,
    SpectrumOffContour,
    finite_spectrum_approx,
    graph_normal_approx,
    normal_spectral_decomp,
    operator_norm,
    remove_arc,
    remove_region,
    self_commutator,
    square_cover,
    transport,
)
from almostnormal import surgery
from almostnormal.gallery import perturbed_normal
from util import check_oscillator, random_normal_with_spectrum, tangled_normal

DISC = OpenDisc(center=0j, radius=1.0)


def test_radial_collapse_values():
    m = RadialCollapse(disc=DISC)
    assert m(0.5 + 0j) == 0.5 + 0j                 # interior fixed
    assert abs(m(2 + 0j) - 1.0) < 1e-15            # outside lands on boundary
    assert abs(m(3j) - 1j) < 1e-15
    got = m(np.array([0.2j, -4 + 0j]))
    assert np.allclose(got, [0.2j, -1 + 0j])
    # scalar in, scalar out
    assert np.isscalar(m(0.1 + 0j)) or np.asarray(m(0.1 + 0j)).ndim == 0


@pytest.mark.parametrize("m", [
    RadialCollapse(disc=DISC),
    BoundaryPush(disc=DISC, anchor=0.1j),
    ChordSnap(disc=DISC, e_minus=-1 + 0j, e_plus=1 + 0j),
], ids=["radial", "push", "chord"])
@pytest.mark.parametrize("z", [0.3 + 0.2j, 2 - 1j])
def test_plane_maps_send_a_scalar_to_a_0d_array(m, z):
    got = m(z)
    assert isinstance(got, np.ndarray) and got.ndim == 0 and got.dtype == complex
    assert got.tobytes() == m(np.array([z]))[0].tobytes()


def test_affine_values():
    m = Affine(a=2j, b=1 + 0j)
    assert m(1 + 0j) == 1 + 2j
    assert np.allclose(m(np.array([0j, 1j])), [1 + 0j, -1 + 0j])
    with pytest.raises(ValueError):
        Affine(a=0j, b=0j)


def test_boundary_push_values():
    m = BoundaryPush(disc=DISC, anchor=0j)
    # ray from the center is radial
    assert abs(m(0.5 + 0j) - 1.0) < 1e-12
    assert abs(m(0.25j) - 1j) < 1e-12
    # anchor itself goes to center + radius
    assert abs(m(0j) - 1.0) < 1e-12
    # outside points are fixed
    assert m(2 + 2j) == 2 + 2j
    # every image of an interior point sits on the circle
    pts = np.array([0.1 + 0.2j, -0.7j, 0.9 + 0j, 0.3 - 0.4j])
    assert np.allclose(np.abs(m(pts)), 1.0, atol=1e-12)


def test_boundary_push_off_center_anchor():
    m = BoundaryPush(disc=DISC, anchor=0.5 + 0j)
    z = 0.5 + 0.25j
    w = m(z)
    assert abs(abs(w) - 1.0) < 1e-12
    # image lies on the ray from the anchor through z
    t = (w - 0.5) / (z - 0.5)
    assert abs(t.imag) < 1e-12 and t.real > 0


def test_boundary_push_anchor_validation():
    with pytest.raises(ValueError):
        BoundaryPush(disc=DISC, anchor=1 + 0j)   # boundary is not inside
    with pytest.raises(ValueError):
        BoundaryPush(disc=DISC, anchor=2 + 0j)


def test_chord_snap_values():
    m = ChordSnap(disc=DISC, e_minus=-1 + 0j, e_plus=1 + 0j)
    assert m(0.3 + 0j) == 1 + 0j
    assert m(-0.3 + 0j) == -1 + 0j
    assert m(0j) == 1 + 0j                          # tie goes to e_plus
    assert m(5 + 0j) == 5 + 0j                      # outside fixed
    got = m(np.array([0.9 + 0j, -0.9 + 0j]))
    assert got.tolist() == [1 + 0j, -1 + 0j]


def test_chord_snap_endpoint_validation():
    with pytest.raises(ValueError):
        ChordSnap(disc=DISC, e_minus=-0.5 + 0j, e_plus=1 + 0j)
    with pytest.raises(ValueError):
        ChordSnap(disc=DISC, e_minus=-1 + 0j, e_plus=1.5 + 0j)


def test_transport_matches_affine_action():
    a, lam, _ = random_normal_with_spectrum(5, 3)
    dec = normal_spectral_decomp(a)
    out = transport(dec, Affine(a=2 - 1j, b=0.5j)).output
    want = (2 - 1j) * a + 0.5j * np.eye(5)
    assert operator_norm(out - want) < 1e-9


def test_transport_rejects_shape_change():
    dec = normal_spectral_decomp(np.diag([0j, 1 + 0j]))
    with pytest.raises(ValueError):
        transport(dec, lambda z: np.array([1 + 0j]))


def test_remove_region_hand_case():
    # eigenvalue 0 sits at the anchor, so it lands at center + radius = 1;
    # eigenvalue 5 is outside the disc and must not move at all
    dec = SpectralDecomp(
        eigenvalues=np.array([0j, 5 + 0j]), basis=np.eye(2, dtype=complex)
    )
    res = remove_region(dec, DISC, mu=0j)
    assert np.allclose(res.output, np.diag([1 + 0j, 5 + 0j]))
    assert res.output[1, 1] == 5 + 0j               # untouched block exact
    assert res.moved_count == 1
    assert abs(res.perturbation_norm - 1.0) < 1e-12
    assert res.bound == 2.0


def test_remove_region_clears_disc():
    for seed in range(8):
        a, lam, _ = random_normal_with_spectrum(6, seed, radius=2.0)
        dec = normal_spectral_decomp(a)
        disc = OpenDisc(center=lam[0], radius=0.8)
        res = remove_region(dec, disc, mu=disc.center)
        new = res.decomp.eigenvalues
        assert not disc.contains(new).any()
        moved = disc.contains(dec.eigenvalues)
        # moved eigenvalues land exactly on the boundary circle
        assert np.allclose(np.abs(new[moved] - disc.center), disc.radius, atol=1e-12)
        assert np.array_equal(new[~moved], dec.eigenvalues[~moved])
        assert res.perturbation_norm <= res.bound + 1e-12
        assert operator_norm(res.output - a) <= res.bound + 1e-9


def test_remove_arc_hand_case():
    dec = SpectralDecomp(
        eigenvalues=np.array([-0.5 + 0j, 0.3 + 0j, 2 + 0j]),
        basis=np.eye(3, dtype=complex),
    )
    res = remove_arc(dec, DISC, e_minus=-1 + 0j, e_plus=1 + 0j)
    assert np.allclose(res.output, np.diag([-1 + 0j, 1 + 0j, 2 + 0j]))
    assert res.output[2, 2] == 2 + 0j
    assert res.moved_count == 2


def test_remove_arc_rejects_off_chord_spectrum():
    dec = SpectralDecomp(
        eigenvalues=np.array([0.3j, 2 + 0j]), basis=np.eye(2, dtype=complex)
    )
    with pytest.raises(SpectrumOffContour) as err:
        remove_arc(dec, DISC, e_minus=-1 + 0j, e_plus=1 + 0j)
    assert np.allclose(err.value.points, [0.3j])


def test_off_chord_message_marks_the_points_it_leaves_out():
    dec = SpectralDecomp(eigenvalues=0.1j * np.arange(1, 8), basis=np.eye(7, dtype=complex))
    with pytest.raises(SpectrumOffContour) as err:
        remove_arc(dec, DISC, e_minus=-1 + 0j, e_plus=1 + 0j)
    assert len(err.value.points) == 7
    assert str(err.value).endswith(": 0+0.1j, 0+0.2j, 0+0.3j, 0+0.4j, 0+0.5j, ...")


def test_remove_arc_random_on_chord():
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    t = rng.uniform(-1, 1, 3)
    lam = np.concatenate([t.astype(complex), [2 + 0j, -3 + 1j]])
    dec = SpectralDecomp(eigenvalues=lam, basis=basis)
    res = remove_arc(dec, DISC, e_minus=-1 + 0j, e_plus=1 + 0j)
    new = res.decomp.eigenvalues
    assert set(np.round(new[:3].real, 12)) <= {-1.0, 1.0}
    assert np.allclose(new[3:], lam[3:])
    assert res.perturbation_norm <= res.bound + 1e-12


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.complex_numbers(max_magnitude=1.5),
    st.floats(min_value=0.05, max_value=1.5),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_every_spectrum_move_is_measured_on_its_eigenvalues(n, seed, center, radius, side):
    a, _, _ = random_normal_with_spectrum(n, seed, radius=1.5)
    dec = normal_spectral_decomp(a)
    lam = dec.eigenvalues
    disc = OpenDisc(center=center, radius=radius)
    res = remove_region(dec, disc, mu=center)
    new = res.decomp.eigenvalues
    assert res.moved_count == np.count_nonzero(disc.contains(lam))
    assert res.moved_count == np.count_nonzero(new != lam)
    assert res.perturbation_norm == np.abs(new - lam).max()
    # the partition approximant moves each eigenvalue to its region's label
    fsa = finite_spectrum_approx(dec, square_cover(lam, side))
    roi = fsa.resolution
    assert fsa.perturbation_norm == np.abs(roi.labels[roi.assignment] - lam).max()
    # each output is built on first read, once, on the kept basis
    for move, moved in ((res, new), (fsa, roi.labels[roi.assignment])):
        assert "output" not in vars(move)
        want = SpectralDecomp(moved, dec.basis).reconstruct()
        assert np.array_equal(move.output, want) and move.output is move.output
    slack = 1e-12 * operator_norm(a)
    assert operator_norm(res.output - dec.reconstruct()) <= res.perturbation_norm + slack


def test_reported_moves_are_the_distance_from_a_within_the_residual():
    # the basis reconstructs this input only to within 1e-9 ||A||, so the
    # displacement is the distance from U diag(l) U*, not exactly from A
    a, _ = tangled_normal(16, 3e-8, 3)
    dec = normal_spectral_decomp(a)
    nrm = operator_norm(a)
    slack = 1e-9 * nrm + 64 * np.finfo(float).eps * nrm
    moves = [
        transport(dec, Affine(a=1.0, b=0.1)),
        remove_region(dec, OpenDisc(center=0j, radius=0.5), mu=0j),
    ]
    for res in moves:
        assert res.perturbation_norm > 0
        assert abs(operator_norm(a - res.output) - res.perturbation_norm) <= slack
    fsa = finite_spectrum_approx(dec, square_cover(dec.eigenvalues, 0.25))
    assert abs(operator_norm(a - fsa.output) - fsa.perturbation_norm) <= slack


def test_oscillator_values():
    f = Oscillator(eps=0.5, r=1.0)
    assert f.amplitude == 1.5
    assert abs(f(0.0) - 1.5) < 1e-15
    assert abs(f(0.25) + 1.5) < 1e-15               # half period flips sign
    assert abs(f(0.125)) < 1e-12                    # quarter period hits zero
    got = f(np.array([0.0, 0.5]))
    assert np.allclose(got, [1.5, 1.5])


def test_oscillator_validation():
    with pytest.raises(ValueError):
        Oscillator(eps=0.0, r=1.0)
    with pytest.raises(ValueError):
        Oscillator(eps=0.5, r=-1.0)
    with pytest.raises(ValueError):
        check_oscillator(lambda x: x, 0.0, 1.0)


@pytest.mark.parametrize("eps,r", [(0.5, 1.0), (0.3, 1.0), (0.5, 0.0)])
def test_oscillator_is_half_eps_net(eps, r):
    f = Oscillator(eps=eps, r=r)
    worst = check_oscillator(f, eps, r)
    assert abs(worst - eps / 2.0) < 1e-6 * max(eps, 1.0)


def test_slow_oscillation_fails_net_check():
    # quarter frequency misses whole slices of the disc
    eps, r = 0.5, 1.0
    slow = lambda x: (r + eps) * np.cos(2.0 * math.pi * np.asarray(x) / (4 * eps))
    assert check_oscillator(slow, eps, r) == math.inf


def test_graph_normal_approx_invariants():
    for seed in range(6):
        a, lam, _ = random_normal_with_spectrum(6, seed)
        dec = normal_spectral_decomp(a)
        norm_a = operator_norm(a)
        for eps in (0.4, 0.1):
            res = graph_normal_approx(dec, eps)
            out = res.output
            assert operator_norm(self_commutator(out)) < 1e-9
            assert operator_norm(out) <= norm_a + 1e-9
            assert operator_norm(out - a) <= res.bound + 1e-9
            assert res.details["max_shift"] <= eps / 2.0 * 1.0001
            # every output eigenvalue divided by the scale is on the graph
            w = np.linalg.eigvals(out) / res.details["scale"]
            f = Oscillator(eps=eps, r=res.details["r"])
            assert np.abs(f(w.real) - w.imag).max() < 1e-8
    # 0 sits midway between the roots -eps/4 and +eps/4 of its level set;
    # the tie goes to the positive shift
    eps = 0.3
    res = graph_normal_approx(normal_spectral_decomp(np.diag([0.0, 1.0])), eps)
    assert abs(res.output[0, 0] - res.details["scale"] * eps / 4.0) < 1e-12


@pytest.mark.parametrize("k", (0, 520))
def test_graph_move_check_fires_where_its_bound_overflows(monkeypatch, k):
    # at 2^520 the reported bound eps*(1 + ||A||) reads inf, yet a shift
    # 10 eps too far must still break the check, taken in units of 2^-k
    dec = normal_spectral_decomp(perturbed_normal(8, 0.0, 3) * 2.0 ** k)
    eps = math.ldexp(0.05, k)
    assert math.isinf(graph_normal_approx(dec, eps).bound) == bool(k)
    shift = surgery._smallest_level_shift
    monkeypatch.setattr(surgery, "_smallest_level_shift", lambda f, x, y: shift(f, x, y) + 10 * f.eps)
    with pytest.raises(ArithmeticError, match="over its bound"):
        graph_normal_approx(dec, eps)


def test_graph_normal_approx_zero_matrix():
    dec = normal_spectral_decomp(np.zeros((2, 2), dtype=complex))
    res = graph_normal_approx(dec, 0.5)
    assert operator_norm(res.output) == 0.0
    assert res.details["r"] == 0.0
    assert res.perturbation_norm == 0.0


def test_graph_normal_approx_validation():
    dec = normal_spectral_decomp(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="eps must be positive, got 0.0"):
        graph_normal_approx(dec, 0.0)
