"""Covers, resolutions of identity, and finite-spectrum approximants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from almostnormal import (
    Cover,
    OpenDisc,
    OpenSquare,
    UncoveredSpectrum,
    adjoint,
    finite_spectrum_approx,
    normal_spectral_decomp,
    operator_norm,
    resolution_of_identity,
    square_cover,
)
from almostnormal.partition import _clamp_into
from util import random_normal_with_spectrum


def test_open_disc_strict_containment():
    d = OpenDisc(center=1 + 1j, radius=0.5)
    assert bool(d.contains(1 + 1j))
    assert bool(d.contains(1.49 + 1j))
    # boundary point is excluded
    assert not bool(d.contains(1.5 + 1j))
    assert not bool(d.contains(2 + 1j))
    assert d.diameter() == 1.0


def test_open_square_strict_containment():
    s = OpenSquare(center=0j, side=2.0)
    assert bool(s.contains(0.99 + 0.99j))
    assert not bool(s.contains(1 + 0j))        # edge
    assert not bool(s.contains(1 + 1j))        # corner
    assert abs(s.diameter() - 2 * math.sqrt(2)) < 1e-15


@pytest.mark.parametrize("region, inside, boundary, outside", [
    (OpenDisc(center=1 + 1j, radius=0.5), 1.2 + 0.9j, 1 + 1.5j, 3 - 2j),
    (OpenSquare(center=0.5 - 0.5j, side=2.0), 0.1 + 0.1j, 1.5 + 0.5j, 4 + 4j),
], ids=["disc", "square"])
def test_clamp_into_moves_only_points_not_strictly_inside(region, inside, boundary, outside):
    assert _clamp_into(region, inside) == inside
    for z in (boundary, outside):
        assert not bool(region.contains(z))
        assert bool(region.contains(_clamp_into(region, z)))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_region_size_validation(bad):
    with pytest.raises(ValueError):
        OpenDisc(center=0j, radius=bad)
    with pytest.raises(ValueError):
        OpenSquare(center=0j, side=bad)


def test_contains_vectorized():
    d = OpenDisc(center=0j, radius=1.0)
    got = d.contains(np.array([0j, 0.5, 2.0, 1.0]))
    assert got.tolist() == [True, True, False, False]


def test_cover_membership_and_multiplicity():
    cover = Cover(regions=(
        OpenDisc(center=0j, radius=1.0),
        OpenDisc(center=1 + 0j, radius=1.0),
    ))
    pts = np.array([0.5 + 0j, -0.5 + 0j, 1.5 + 0j, 10 + 0j])
    table = cover.membership(pts)
    assert table.shape == (4, 2)
    assert table.tolist() == [
        [True, True],
        [True, False],
        [False, True],
        [False, False],
    ]
    assert abs(cover.max_diameter() - 2.0) < 1e-15
    # the overlap point 0.5 sits in both discs
    roi = resolution_of_identity(normal_spectral_decomp(np.diag(pts[:3])), cover)
    assert roi.multiplicity == 2
    roi = resolution_of_identity(normal_spectral_decomp(np.diag(pts[1:3])), cover)
    assert roi.multiplicity == 1


def test_cover_rejects_empty():
    with pytest.raises(ValueError):
        Cover(regions=())


def test_square_cover_covers_all_points():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
    for side in (0.5, 0.1):
        cover = square_cover(pts, side)
        hits = cover.membership(pts).sum(axis=1)
        assert hits.min() >= 1
        assert hits.max() <= 4
        assert abs(cover.max_diameter() - side * math.sqrt(2)) < 1e-15


def test_square_cover_lattice_alignment():
    # a point at the origin lies on lattice lines, so only the four
    # squares whose open interiors contain it strictly may appear
    cover = square_cover([0.01 + 0.01j], 1.0)
    for r in cover.regions:
        assert bool(r.contains(0.01 + 0.01j))


def test_square_cover_deterministic():
    pts = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.0 - 0.4j])
    a = square_cover(pts, 0.5)
    b = square_cover(pts, 0.5)
    assert len(a) == len(b)
    for ra, rb in zip(a.regions, b.regions):
        assert ra == rb


def test_square_cover_validation():
    with pytest.raises(ValueError):
        square_cover([0j], 0.0)
    with pytest.raises(ValueError):
        square_cover(np.array([], dtype=complex), 1.0)


def test_resolution_first_hit_assignment():
    # eigenvalue 0.5 lies in both discs; the first region must claim it
    a = np.diag([0.5 + 0j, 1.5 + 0j]).astype(complex)
    dec = normal_spectral_decomp(a)
    cover = Cover(regions=(
        OpenDisc(center=0j, radius=1.0),
        OpenDisc(center=1 + 0j, radius=1.0),
    ))
    roi = resolution_of_identity(dec, cover)
    lam = dec.eigenvalues
    assert roi.assignment[int(np.argmin(np.abs(lam - 0.5)))] == 0
    assert roi.assignment[int(np.argmin(np.abs(lam - 1.5)))] == 1


def test_resolution_empty_region_gets_zero_projection():
    a = np.diag([0j]).astype(complex)
    dec = normal_spectral_decomp(a)
    cover = Cover(regions=(
        OpenDisc(center=0j, radius=1.0),
        OpenDisc(center=5 + 0j, radius=1.0),
    ))
    roi = resolution_of_identity(dec, cover)
    assert operator_norm(roi.projections[1]) == 0.0
    assert roi.labels[1] == 5 + 0j
    assert bool(cover.regions[0].contains(roi.labels[0]))


def test_resolution_uncovered_raises():
    a = np.diag([0j, 10 + 0j]).astype(complex)
    dec = normal_spectral_decomp(a)
    cover = Cover(regions=(OpenDisc(center=0j, radius=1.0),))
    with pytest.raises(UncoveredSpectrum) as err:
        resolution_of_identity(dec, cover)
    assert np.allclose(err.value.points, [10 + 0j])


def test_uncovered_message_marks_the_points_it_leaves_out():
    dec = normal_spectral_decomp(np.diag(np.arange(10, 17) + 0j))
    cover = Cover(regions=(OpenDisc(center=0j, radius=1.0),))
    with pytest.raises(UncoveredSpectrum) as err:
        resolution_of_identity(dec, cover)
    assert len(err.value.points) == 7
    assert str(err.value).endswith(": 10+0j, 11+0j, 12+0j, 13+0j, 14+0j, ...")


@pytest.mark.parametrize("seed", [*range(6), pytest.param(None, id="repeated")])
def test_resolution_projection_invariants(seed):
    if seed is None:  # diag(1, 2, 2, 5): the projection onto 2 has rank 2
        a = np.diag([1.0, 2.0, 2.0, 5.0]).astype(complex)
    else:
        a, _, _ = random_normal_with_spectrum(6, seed)
    dec = normal_spectral_decomp(a)
    cover = square_cover(dec.eigenvalues, 0.5)
    roi = resolution_of_identity(dec, cover)
    if seed is None:
        two = roi.projections[roi.assignment[np.argmin(np.abs(dec.eigenvalues - 2))]]
        assert np.trace(two).real == pytest.approx(2.0, abs=1e-12)
    n = a.shape[0]
    total = np.zeros((n, n), dtype=complex)
    for j, p in enumerate(roi.projections):
        assert operator_norm(p @ p - p) < 1e-8
        assert operator_norm(p - adjoint(p)) < 1e-8
        for q in roi.projections[j + 1:]:
            assert operator_norm(p @ q) < 1e-8
        total += p
    assert operator_norm(total - np.eye(n)) < 1e-8
    # labels live inside their own regions
    for j, region in enumerate(roi.cover.regions):
        assert bool(region.contains(roi.labels[j]))


def test_ranks_match_projection_traces_and_projections_are_lazy():
    a, _, _ = random_normal_with_spectrum(12, 5)
    dec = normal_spectral_decomp(a)
    approx = finite_spectrum_approx(dec, square_cover(dec.eigenvalues, 0.3))
    roi = approx.resolution
    assert "projections" not in vars(roi)  # finite_spectrum_approx never reads them
    traces = [round(float(np.trace(p).real)) for p in roi.projections]
    assert roi.ranks.tolist() == traces
    assert len(roi.projections) == len(roi.cover) > roi.ranks.astype(bool).sum()
    assert roi.projections is roi.projections  # built once


def test_finite_spectrum_approx_exact_when_regions_are_tight():
    # one eigenvalue per region and the label equals the centroid, so the
    # approximant reproduces the matrix exactly up to rounding
    a = np.diag([0j, 1 + 0j]).astype(complex)
    dec = normal_spectral_decomp(a)
    cover = Cover(regions=(
        OpenDisc(center=0j, radius=0.1),
        OpenDisc(center=1 + 0j, radius=0.1),
    ))
    approx = finite_spectrum_approx(dec, cover)
    assert approx.perturbation_norm < 1e-12
    assert abs(approx.bound - 0.2) < 1e-15
    assert operator_norm(approx.output - a) < 1e-12


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("side", [0.5, 0.1])
def test_finite_spectrum_error_within_bound(seed, side):
    a, lam, _ = random_normal_with_spectrum(5, seed)
    dec = normal_spectral_decomp(a)
    approx = finite_spectrum_approx(dec, square_cover(lam, side))
    assert approx.perturbation_norm <= approx.bound + 1e-12
    assert approx.bound <= math.sqrt(4) * side * math.sqrt(2) + 1e-12
    # approximant is normal with spectrum drawn from the labels
    t = approx.output
    assert operator_norm(t @ adjoint(t) - adjoint(t) @ t) < 1e-10
    # displacement interpretation: error equals max eigenvalue move
    roi = approx.resolution
    moves = np.abs(dec.eigenvalues - roi.labels[roi.assignment])
    assert abs(approx.perturbation_norm - moves.max()) < 1e-9
