"""Truncation inequalities, counting functions, pseudospectra, and scatter runs."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostnormal import (
    EmptyTruncation,
    EnsembleSpec,
    GridSpec,
    SCATTER_COLUMNS,
    counting_functions,
    f_scatter,
    laurent_truncation_model,
    nearest_normal,
    operator_norm,
    pseudospectrum,
    truncate,
    truncation_model,
    truncation_scaling,
    verify_truncation_bounds,
)
from almostnormal import experiments, nearest
from almostnormal.experiments import TRUNCATE_COLUMNS, _lanczos_bounds, _sigma_min_batch
from almostnormal.gallery import materialize, perturbed_normal, shift_example
from util import random_contraction, random_normal_with_spectrum, traced_peak


def test_truncation_model_sorts_and_freezes():
    g = [2.0, 0.0, 1.0]
    a = np.arange(9, dtype=complex).reshape(3, 3)
    model = truncation_model(g, a)
    assert model.g.tolist() == [0.0, 1.0, 2.0]
    # permutation carries A along: old row 1 and old col 2 land at (0, 1)
    assert model.a[0, 1] == a[1, 2]
    with pytest.raises(ValueError):
        model.g[0] = 5.0
    with pytest.raises(ValueError):
        truncation_model([-1.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        truncation_model([0.0, 1.0], np.eye(3))


def test_counting_functions_oracle():
    g = [0.0, 1.0, 1.0, 2.0, 2.0]
    n, _ = counting_functions(g, [0.5, 1.0, 1.5, 2.5])
    assert n.tolist() == [1, 1, 3, 5]
    # unit half-open windows (mu - 1, mu]... largest count up to each level
    _, n1 = counting_functions(g, [0.5, 1.5, 2.5])
    assert n1.tolist() == [1, 2, 2]


def test_counting_functions_empty_and_validation():
    n, n1 = counting_functions([], [0.5, 1.0])
    assert n.tolist() == [0, 0]
    assert n1.tolist() == [0, 0]
    with pytest.raises(ValueError):
        counting_functions([1.0, 0.0], [0.5])
    with pytest.raises(ValueError):
        counting_functions([0.0, 1.0], [1.0, 0.5])
    # no g satisfies g < nan, yet searchsorted would place nan past every g
    with pytest.raises(ValueError, match="NaN"):
        counting_functions([0.0, 1.0], [math.nan])
    # N(inf) = n is a valid count
    assert counting_functions([0.0, 1.0], [math.inf])[0].tolist() == [2]


def test_truncate_block():
    model = laurent_truncation_model([0, 0, 1], 3)
    # g = (0, 1, 1, 2, 2, 3, 3) after sorting |k| for k = -3..3
    block = truncate(model, 1.5)
    assert block.shape == (3, 3)
    with pytest.raises(EmptyTruncation):
        truncate(model, 0.0)
    with pytest.raises(EmptyTruncation):
        truncate(model, -1.0)
    with pytest.raises(ValueError, match="nan"):
        truncate(model, math.nan)


def test_truncated_shift_commutator_trace_norm():
    # the truncated shift loses one unit of weight at each end of the band,
    # so the symmetrized commutator has trace norm exactly 2
    model = laurent_truncation_model([0, 0, 1], 8)
    check = verify_truncation_bounds(model, 4.0)
    assert abs(check["lhs3"] - 2.0) < 1e-12
    assert check["passed"]
    assert check["rhs3"] == pytest.approx((2.0 + math.pi ** 2 / 3.0) * check["N1"])
    assert check["lhs2"] <= check["rhs2"]


def test_verify_truncation_empty():
    model = laurent_truncation_model([0, 0, 1], 3)
    with pytest.raises(EmptyTruncation):
        verify_truncation_bounds(model, 0.0)


def test_truncation_scaling_rows_and_csv():
    model = laurent_truncation_model([0, 0, 1], 8)
    # an iterator: the grid is read in one pass
    rows = truncation_scaling(model, iter([2.0, 4.0, 6.0]), seed=3, restarts=1, max_sweeps=30)
    assert len(rows) == 3
    for r in rows:
        # each row carries every column of the truncate CSV
        assert set(r) == {*TRUNCATE_COLUMNS, "converged"}
        assert r["ratio"] == pytest.approx(r["dist1_witness"] / r["N"])
        assert r["lhs3"] <= r["rhs3"]
        assert r["passed"]
    # the normalized distance shrinks as the window grows
    assert rows[2]["ratio"] < rows[0]["ratio"]


def test_grid_spec():
    grid = GridSpec(center=1 + 1j, half_width=2.0, resolution=5)
    pts = grid.points()
    assert pts.size == 25
    assert pts[0] == -1 - 1j        # corner: center - (hw + hw i)
    assert pts[-1] == 3 + 3j
    assert grid.step() == 1.0
    with pytest.raises(ValueError):
        GridSpec(center=0j, half_width=0.0)
    with pytest.raises(ValueError):
        GridSpec(center=0j, half_width=1.0, resolution=1)


def test_pseudospectrum_scalar_oracle():
    # for A = [3], sigma_min(A - z) = |3 - z|: membership is the open disc
    a = np.array([[3.0 + 0j]])
    grid = GridSpec(center=3 + 0j, half_width=1.0, resolution=41)
    rep = pseudospectrum(a, 0.5, grid, reference=[3 + 0j])
    assert rep.members.size > 0
    assert (np.abs(rep.members - 3.0) < 0.5).all()
    want = grid.points()[np.abs(grid.points() - 3.0) < 0.5]
    assert np.array_equal(np.sort_complex(rep.members), np.sort_complex(want))
    assert np.allclose(rep.sigma_min, np.abs(rep.members - 3.0))
    assert rep.d_eps <= 0.5


def test_pseudospectrum_reference_semantics():
    a = np.array([[0j]])
    grid = GridSpec(center=0j, half_width=1.0, resolution=21)
    far = pseudospectrum(a, 0.05, GridSpec(center=10 + 0j, half_width=1.0, resolution=11))
    assert far.members.size == 0 and far.d_eps == 0.0
    default = pseudospectrum(a, 0.5, grid)  # the reference is sigma(A) = {0}
    assert np.array_equal(default.reference, [0j])
    assert default.members.size > 0 and default.d_eps == np.abs(default.members).max() < 0.5
    noref = pseudospectrum(a, 0.5, grid, reference=())
    assert noref.members.size > 0 and noref.d_eps == math.inf and noref.reference.size == 0
    with pytest.raises(ValueError):
        pseudospectrum(a, 0.0, grid)


@pytest.mark.parametrize("n", (1, 3, 6, 17))
def test_d_eps_is_bitwise_that_of_the_members_by_reference_table(n):
    rng = np.random.default_rng(n)
    a = random_contraction(n, seed=n)
    ref = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
    grid = GridSpec(center=0j, half_width=1.5, resolution=61)
    rep = pseudospectrum(a, 0.3, grid, reference=ref, threads=1)
    assert rep.members.size > 0 and np.array_equal(rep.reference, ref)
    assert rep.d_eps == float(np.abs(rep.members[:, None] - ref[None, :]).min(axis=1).max())


def test_one_eigendecomposition_gives_the_reference_and_the_certificates(monkeypatch):
    a = perturbed_normal(experiments.LANCZOS_MIN_DIM, 0.05, 2)
    lam = np.linalg.eig(a)[0]
    calls, eig = [], np.linalg.eig

    def counting(m):
        calls.append(m.shape)
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counting)
    rep = pseudospectrum(a, 0.1, GridSpec(center=0j, half_width=1.3, resolution=61), threads=2)
    assert len(calls) == 1 and rep.svd < rep.evaluated  # some members are certified
    assert np.array_equal(rep.reference, lam)
    assert rep.d_eps == float(np.abs(rep.members[:, None] - lam[None, :]).min(axis=1).max())


def test_pseudospectrum_threads_bitwise_equal():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    grid = GridSpec(center=0j, half_width=4.0, resolution=129)  # > 1 chunk
    serial = pseudospectrum(a, 1.0, grid, threads=1)
    threaded = pseudospectrum(a, 1.0, grid, threads=4)
    assert np.array_equal(serial.members, threaded.members)
    assert np.array_equal(serial.sigma_min, threaded.sigma_min)


def test_certified_sigma_min_bits_do_not_depend_on_threads():
    a = perturbed_normal(experiments.LANCZOS_MIN_DIM, 0.05, 2)
    grid = GridSpec(center=0j, half_width=1.3, resolution=101)  # > 1 Lanczos batch a stride
    serial = pseudospectrum(a, 0.1, grid, threads=1)
    assert serial.svd < serial.evaluated - experiments._lanczos_batch(a.shape[0])
    interval = sys.getswitchinterval()
    for threads in (2, 4):
        sys.setswitchinterval(1e-6)  # threads that shared a stack would overwrite each other
        try:
            threaded = pseudospectrum(a, 0.1, grid, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.members, threaded.members)
        assert np.array_equal(serial.sigma_min, threaded.sigma_min)
        assert (serial.evaluated, serial.svd) == (threaded.evaluated, threaded.svd)


@pytest.mark.parametrize("threads", (1, 2, 4))
def test_pseudospectrum_chunks_stay_in_budget_and_do_not_change_bits(monkeypatch, threads):
    # certified members and SVD points at n = 32 and at n = LANCZOS_MIN_DIM, and on
    # a 2 x 2 grid, whose stacks hold fewer matrices than a batch's workspace needs
    b = perturbed_normal(experiments.LANCZOS_MIN_DIM, 0.05, 2)
    cases = [(random_contraction(32, seed=11), GridSpec(center=0.1j, half_width=1.2, resolution=81)),
             (b, GridSpec(center=0j, half_width=1.2, resolution=41)),
             (b, GridSpec(center=complex(np.linalg.eigvals(b)[0]), half_width=0.02, resolution=2))]
    sizes, batches = [], []

    def recording(a, zs, stack=None):
        sizes.append(zs.size)
        return _sigma_min_batch(a, zs)

    def recording_bounds(a, zs, *args):
        batches.append(zs.size)
        return _lanczos_bounds(a, zs, *args)

    for k, (a, grid) in enumerate(cases):
        n = a.shape[0]
        want = pseudospectrum(a, 0.1, grid, threads=1)
        members, smin = _every_point_svd(a, 0.1, grid)
        assert np.array_equal(want.members, members) and want.svd < want.evaluated
        assert_within_the_certificate(want, smin)
        with monkeypatch.context() as mp:
            mp.setattr(experiments, "_sigma_min_batch", recording)
            mp.setattr(experiments, "_lanczos_bounds", recording_bounds)
            calls = []
            for budget in (experiments.SVD_CHUNK_BYTES, 1, 1 << 62):  # default, one point, unbounded
                mp.setattr(experiments, "SVD_CHUNK_BYTES", budget)
                sizes.clear()
                batches.clear()
                rep = pseudospectrum(a, 0.1, grid, threads=threads)
                chunk = max(1, budget // (16 * n * n))
                assert max(sizes, default=0) <= chunk
                assert max(batches) <= max(2, chunk * n // experiments.LANCZOS_WORDS)
                assert sum(sizes) == rep.svd
                calls.append(len(sizes))
                assert np.array_equal(rep.members, want.members)
                assert np.array_equal(rep.sigma_min, want.sigma_min)
                assert (rep.evaluated, rep.svd) == (want.evaluated, want.svd)
        if k == 0 and threads < 4:  # four threads split each stride of it four ways anyway
            assert calls[0] > calls[2]  # the default budget splits some stride


def test_certified_pseudospectrum_keeps_its_lanczos_workspace_in_the_stacks():
    # the two threads' 1 MiB stacks and the grid arrays peak at 4.3 MB; a Lanczos
    # basis outside the stacks, 7 x 186 x 32 complex a thread, takes it to 5.5 MB
    a = perturbed_normal(32, 0.05, 1)
    grid = GridSpec(center=0j, half_width=np.linalg.norm(a, 2) + 0.2, resolution=201)
    pseudospectrum(a, 0.1, GridSpec(center=0j, half_width=1.0, resolution=2), threads=2)  # the pool's imports
    rep, peak = traced_peak(lambda: pseudospectrum(a, 0.1, grid, threads=2))
    assert rep.svd < rep.evaluated - 4096  # mostly certified members
    assert peak < 2 * experiments.SVD_CHUNK_BYTES + 2.6e6


def test_pseudospectrum_working_set_is_bounded():
    # two threads' 1 MiB chunks and the grid arrays come to about 5 MB; chunks
    # of 1024 points, two 1024 x 32 x 32 complex stacks a thread, reach 60 MB
    a = random_contraction(32, seed=3)
    grid = GridSpec(center=0j, half_width=1.2, resolution=201)
    rep, peak = traced_peak(lambda: pseudospectrum(a, 0.1, grid, threads=2))
    assert rep.evaluated > 4096
    assert peak < 16e6


@pytest.mark.parametrize("threads", (0, -3))
def test_pseudospectrum_rejects_fewer_than_one_thread(threads):
    grid = GridSpec(center=0j, half_width=2.0, resolution=11)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        pseudospectrum(np.eye(2), 0.5, grid, threads=threads)


def _every_point_svd(a, eps, grid):
    zs = grid.points()
    smin = _sigma_min_batch(a, zs)
    return zs[smin < eps], smin[smin < eps]


def assert_within_the_certificate(rep, smin):
    # a certified member reports rho >= sigma_min(A - zI), an SVD point its
    # SVD's value, which is within delta / 2 of sigma_min(A - zI).  Only the
    # lower side is guaranteed: rho may stop at a larger singular value, and
    # the upper side holds on the inputs tried, not by proof
    assert rep.sigma_min.shape == smin.shape
    assert (rep.sigma_min >= smin - rep.delta / 2).all()
    assert (rep.sigma_min <= smin * (1 + 1e-8) + rep.delta).all()


def test_pool_threads_borrow_the_callers_stacks(monkeypatch):
    # two pool threads share the two stacks the calling thread allocated,
    # and filling a borrowed stack gives the bits of a fresh one
    a = random_contraction(16, seed=5)
    grid = GridSpec(center=0j, half_width=1.2, resolution=81)
    stacks, callers = set(), set()

    def recording(a, zs, stack=None):
        stacks.add(stack.__array_interface__["data"][0])
        callers.add(threading.get_ident())
        return _sigma_min_batch(a, zs, stack)

    monkeypatch.setattr(experiments, "_sigma_min_batch", recording)
    rep = pseudospectrum(a, 0.1, grid, threads=2)
    assert len(stacks) <= 2
    assert threading.get_ident() not in callers
    members, smin = _every_point_svd(a, 0.1, grid)
    assert np.array_equal(rep.members, members)
    assert_within_the_certificate(rep, smin)


@pytest.mark.parametrize("resolution", (50, 67))
@pytest.mark.parametrize("eps", (1e-3, 0.1, 1.0))
@pytest.mark.parametrize("n", (4, 8, 16))
def test_pruned_pseudospectrum_is_bitwise_the_every_point_svd(monkeypatch, n, eps, resolution):
    monkeypatch.setattr(experiments, "LANCZOS_MIN_DIM", 1)  # certify at every n
    a = random_contraction(n, seed=40 + n)
    grid = GridSpec(center=0j, half_width=1.0 + 2.0 * eps, resolution=resolution)
    rep = pseudospectrum(a, eps, grid, threads=2)
    members, smin = _every_point_svd(a, eps, grid)
    assert np.array_equal(rep.members, members)
    assert_within_the_certificate(rep, smin)
    assert members.size <= rep.evaluated <= resolution ** 2


@pytest.mark.parametrize("where", ("off-centre", "no members", "all members"))
def test_pruned_pseudospectrum_edge_grids(monkeypatch, where):
    monkeypatch.setattr(experiments, "LANCZOS_MIN_DIM", 1)  # certify at n = 8
    a = random_contraction(8, seed=7)
    center, half_width = {
        "off-centre": (0.3 - 0.2j, 0.45),  # cuts through the pseudospectrum
        "no members": (6 + 5j, 1.0),
        "all members": (complex(np.linalg.eigvals(a)[0]), 0.01),
    }[where]
    grid = GridSpec(center=center, half_width=half_width, resolution=34)
    rep = pseudospectrum(a, 0.1, grid)
    members, smin = _every_point_svd(a, 0.1, grid)
    assert np.array_equal(rep.members, members)
    assert_within_the_certificate(rep, smin)
    if where == "no members":
        assert members.size == 0 and rep.evaluated < 34 ** 2
    elif where == "all members":
        assert members.size == 34 ** 2
    else:
        assert 0 < members.size < 34 ** 2


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-3, max_value=1.0),
    st.complex_numbers(max_magnitude=1.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(min_value=2, max_value=40),
)
def test_certified_members_are_those_of_the_every_point_svd(n, seed, eps, center, half_width, res):
    a = random_contraction(n, seed)
    grid = GridSpec(center=center, half_width=half_width, resolution=res)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "LANCZOS_MIN_DIM", 1)  # certify at every n
        lower = _recording_lower_sides(mp)
        rep = pseudospectrum(a, eps, grid, threads=2)
    every = _sigma_min_batch(a, grid.points())
    assert np.array_equal(rep.members, grid.points()[every < eps])
    assert_within_the_certificate(rep, every[every < eps])
    assert_lower_sides_hold(a, eps, rep, lower)
    low = _every_point_lower_side(a, eps, grid)
    assert (low[np.isfinite(low)] <= every[np.isfinite(low)] + rep.delta / 2).all()


def _recording_lower_sides(mp) -> list:
    """(zs, low) of every _lanczos_bounds call that pseudospectrum makes from here on."""
    seen = []

    def recording(a, zs, *args):
        rho, low = _lanczos_bounds(a, zs, *args)
        seen.append((zs.copy(), low))
        return rho, low

    mp.setattr(experiments, "_lanczos_bounds", recording)
    return seen


def assert_lower_sides_hold(a, eps, rep, seen) -> int:
    """Every finite lower side is at most an SVD's sigma_min + delta / 2, and the
    points that take no SVD are the members rho certifies and the points whose
    lower side clears eps + delta; returns how many of those last there are."""
    zs = np.concatenate([z for z, _ in seen]) if seen else np.zeros(0, complex)
    low = np.concatenate([low for _, low in seen]) if seen else np.zeros(0)
    finite = np.isfinite(low)
    assert (low[finite] <= _sigma_min_batch(a, zs[finite]) + rep.delta / 2).all()
    ruled = int(np.count_nonzero(low > eps + rep.delta))
    assert rep.evaluated - rep.svd - ruled <= rep.members.size  # rho certifies members only
    return ruled


def _ill_conditioned(n: int, kappa: float, seed: int) -> np.ndarray:
    """V diag(lam) V^-1 with lam the n-th roots of unity and V = Q diag(s) W, s
    geometric from 1 to 1 / kappa, Q and W Haar: kappa(V) is near kappa."""
    rng = np.random.default_rng(seed)
    q, w = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0] for _ in range(2))
    v = q @ np.diag(np.geomspace(1.0, 1.0 / kappa, n)) @ w
    return (v * np.exp(2j * np.pi * np.arange(n) / n)) @ np.linalg.inv(v)


def _lower_side_cases():
    """(id, A, eps, grid): pert32 seeds 1-10, criterion 10's normals, the demo's
    inputs, and kappa(V) near KAPPA_MAX."""
    for s in range(1, 11):
        a = perturbed_normal(32, 0.05, s)
        yield f"pert32-{s}", a, 0.1, GridSpec(center=0j, half_width=np.linalg.norm(a, 2) + 0.2, resolution=81)
    for i in range(20):
        a, lam, _ = random_normal_with_spectrum(4 + i % 3, 100_000 + i)
        half = float(np.abs(lam).max()) + 0.5
        yield f"criterion10-{i}", a, 0.3, GridSpec(center=0j, half_width=half, resolution=101)
    for eps in (0.4, 0.2, 0.1):
        yield f"demo-diag-{eps}", np.diag([0j, 1]), eps, GridSpec(center=0.5 + 0j, half_width=1.7, resolution=161)
        yield f"demo-jordan-{eps}", 4.0 * shift_example(2), eps, GridSpec(center=0j, half_width=3.0, resolution=161)
    a = _ill_conditioned(16, 99.0, 99)
    yield "kappa98", a, 1e-3, GridSpec(center=complex(np.linalg.eigvals(a)[0]), half_width=0.02, resolution=41)


@pytest.mark.parametrize("case", list(_lower_side_cases()), ids=lambda case: case[0])
def test_lower_sides_are_below_the_svd_and_members_are_its(monkeypatch, case):
    name, a, eps, grid = case
    monkeypatch.setattr(experiments, "LANCZOS_MIN_DIM", 1)  # the lower side at every n
    lower = _recording_lower_sides(monkeypatch)
    rep = pseudospectrum(a, eps, grid, threads=2)
    every = _sigma_min_batch(a, grid.points())
    assert np.array_equal(rep.members, grid.points()[every < eps])
    assert_within_the_certificate(rep, every[every < eps])
    ruled = assert_lower_sides_hold(a, eps, rep, lower)
    # a normal input's non-members lie past the Bauer-Fike reach, where no Lanczos runs
    assert (ruled > 0) == name.startswith(("pert32", "kappa"))
    low = _every_point_lower_side(a, eps, grid)
    finite = np.isfinite(low)
    assert (low[finite] <= every[finite] + rep.delta / 2).all()
    assert finite.any() != name.startswith("demo-jordan")  # defective: no eigenvector basis


def test_only_a_lower_side_past_eps_plus_delta_rules_a_point_out(monkeypatch):
    # lower sides moved onto the threshold eps + delta rule nothing out: the run
    # equals one with no lower side at all, while the true ones save SVDs
    a = perturbed_normal(32, 0.05, 1)
    grid = GridSpec(center=0j, half_width=np.linalg.norm(a, 2) + 0.2, resolution=81)
    true = pseudospectrum(a, 0.1, grid, threads=2)
    reps = []
    for on_threshold in (False, True):
        def moved(a, zs, *args, on_threshold=on_threshold):
            rho, low = _lanczos_bounds(a, zs, *args)
            eps, delta = args[6], args[7]  # after reach and the five spectral arguments
            return rho, np.where(np.isfinite(low) & on_threshold, eps + delta, -np.inf)
        monkeypatch.setattr(experiments, "_lanczos_bounds", moved)
        reps.append(pseudospectrum(a, 0.1, grid, threads=2))
    none, threshold = reps
    assert np.array_equal(none.members, threshold.members) and np.array_equal(none.members, true.members)
    assert (threshold.evaluated, threshold.svd) == (none.evaluated, none.svd)
    assert true.svd < none.svd


def _every_point_lower_side(a, eps, grid) -> np.ndarray:
    """_lanczos_bounds' low at every grid point, in pseudospectrum's batches, with
    the reach and the member test off so that every point gets its bound."""
    eig = experiments._lanczos_setup(a, eps, 0.0, *np.linalg.eig(a))
    zs, batch = grid.points(), experiments._lanczos_batch(a.shape[0])
    if eig is None:
        return np.full(zs.size, -np.inf)
    _, *spectral, _, _, tau, kappa, err = eig  # reach, ..., eps, delta, the rounding budget
    args = (math.inf, *spectral, 0.0, 0.0, tau, kappa, err)
    return np.concatenate([_lanczos_bounds(a, zs[k:k + batch], *args)[1] for k in range(0, zs.size, batch)])


def test_a_grid_point_on_an_eigenvalue_takes_the_svd():
    a = np.diag(np.arange(24.0) / 24)  # normal: kappa(V) = 1; n >= LANCZOS_MIN_DIM
    grid = GridSpec(center=0j, half_width=1.2, resolution=49)  # z = 0 is a grid point
    rep = pseudospectrum(a, 0.1, grid, threads=2)
    members, smin = _every_point_svd(a, 0.1, grid)
    assert np.array_equal(rep.members, members) and 0 in members
    assert_within_the_certificate(rep, smin)
    assert rep.svd < rep.evaluated


@pytest.mark.parametrize("a", [shift_example(m) for m in (2, 4, 6, 8)] + [4.0 * shift_example(2)],
                         ids=["shift2", "shift4", "shift6", "shift8", "4*shift2"])
def test_defective_matrices_take_the_svd_at_every_evaluated_point(monkeypatch, a):
    # their eigenvectors are too ill-conditioned to certify anything, so
    # members and sigma_min are bitwise those of an SVD at every point
    monkeypatch.setattr(experiments, "LANCZOS_MIN_DIM", 1)  # kappa(V) alone decides
    for eps in (0.4, 0.1):
        grid = GridSpec(center=0j, half_width=1.5 * np.linalg.norm(a, 2), resolution=81)
        rep = pseudospectrum(a, eps, grid, threads=2)
        members, smin = _every_point_svd(a, eps, grid)
        assert rep.svd == rep.evaluated and members.size > 0
        assert np.array_equal(rep.members, members)
        assert np.array_equal(rep.sigma_min, smin)


def test_pruned_pseudospectrum_skips_most_exterior_points():
    a = perturbed_normal(32, 0.05, 11)
    eps = 0.1
    grid = GridSpec(center=0j, half_width=np.linalg.norm(a, 2) + 2 * eps, resolution=201)
    rep = pseudospectrum(a, eps, grid, threads=2)
    assert rep.members.size <= rep.evaluated <= 0.2 * 201 ** 2


def test_f_scatter_rows_and_csv():
    specs = [
        EnsembleSpec(kind="shift_example", params={"m": 4}),
        EnsembleSpec(kind="perturbed_normal", params={"dim": 4, "delta": 0.2}, seed=3),
    ]
    rows = f_scatter(iter(specs), seed=0, restarts=1, max_sweeps=40)
    assert len(rows) == 2
    for r in rows:
        assert set(r) == {*SCATTER_COLUMNS, "converged"}
        assert r["lower_bound_op"] == pytest.approx(r["defect"] / 4.0)
        assert r["dist_op_witness"] >= r["lower_bound_op"] - 1e-9
    # shift: defect 1, frobenius distance exactly 1 for m = 4
    assert rows[0]["defect"] == pytest.approx(1.0)
    assert rows[0]["dist_frob_exact"] == pytest.approx(1.0, abs=1e-7)


def test_f_scatter_runs_every_member_in_one_round_kernel(monkeypatch):
    # 19 members of dims 2-12, as in the ensemble-small benchmark workload:
    # one kernel runs at most max_k R_k rounds per sweep, R_k the rounds of
    # a sweep of member k, for as many sweeps as its longest start
    specs = [EnsembleSpec(kind="shift_example", params={"m": m}) for m in (2, 4, 6, 8, 10, 12)]
    specs += [EnsembleSpec(kind="almost_commuting_pair", params={"m": m}) for m in (2, 4, 6, 8, 10)]
    specs += [EnsembleSpec(kind="perturbed_normal", params={"dim": d, "delta": 0.5}, seed=d)
              for d in (3, 4, 5, 6, 8, 10)]
    specs += [EnsembleSpec(kind="laurent_multiplication", params={"coeffs": [0, 0, 1], "K": 3}),
              EnsembleSpec(kind="laurent_multiplication", params={"coeffs": [0.25, 0.5, 1], "K": 5})]
    plane, run = nearest._plane_rotations, nearest._run_sweeps
    rounds, sweeps = [], []

    def counted(*args):
        rounds.append(1)
        return plane(*args)

    def recorded(*args):
        out = run(*args)
        sweeps.extend(len(h) - 1 for h in out[0])
        return out

    monkeypatch.setattr(nearest, "_plane_rotations", counted)
    monkeypatch.setattr(nearest, "_run_sweeps", recorded)
    assert len(f_scatter(specs, seed=1)) == 19
    per_sweep = max(len(nearest._round_robin(materialize(s).shape[0])) for s in specs)
    assert 0 < len(rounds) <= max(sweeps) * per_sweep


def test_f_scatter_row_k_is_nearest_normal_of_member_k_seeded_with_seed_plus_k():
    specs = [
        EnsembleSpec(kind="shift_example", params={"m": 6}),
        EnsembleSpec(kind="perturbed_normal", params={"dim": 3, "delta": 0.5}, seed=4),
        EnsembleSpec(kind="almost_commuting_pair", params={"m": 4}),
        EnsembleSpec(kind="perturbed_normal", params={"dim": 8, "delta": 0.5}, seed=2),
    ]
    rows = f_scatter(specs, seed=11)
    for k, (spec, row) in enumerate(zip(specs, rows)):
        raw = materialize(spec)
        a = raw / max(operator_norm(raw), 1.0)
        rep = nearest_normal(a, (math.inf,), seed=11 + k, restarts=2)
        assert (row["dist_op_witness"], row["dist_frob_exact"], row["converged"]) == (
            rep.distances[math.inf], rep.frobenius_exact, rep.converged), k


def test_truncation_scaling_row_k_is_nearest_normal_of_block_k_seeded_with_seed_plus_k():
    model = laurent_truncation_model([0.25, 0.5, 1], 6)
    grid = [2.0, 4.0, 5.0, 7.0]
    rows = truncation_scaling(model, grid, seed=7)
    for k, (lam, row) in enumerate(zip(grid, rows)):
        rep = nearest_normal(truncate(model, lam), (1,), seed=7 + k, restarts=2)
        assert (row["dist1_witness"], row["converged"]) == (rep.distances[1], rep.converged), k


def _refuse_optimizer(monkeypatch):
    def refused(*args):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(nearest, "_solve", refused)


def test_truncation_scaling_without_a_seed_raises_before_optimizing(monkeypatch):
    _refuse_optimizer(monkeypatch)
    model = laurent_truncation_model([0, 0, 1], 8)
    with pytest.raises(ValueError, match="a seed is required"):
        truncation_scaling(model, [2.0, 4.0], seed=None)


def test_f_scatter_without_a_seed_raises_before_optimizing(monkeypatch):
    _refuse_optimizer(monkeypatch)
    specs = [EnsembleSpec(kind="shift_example", params={"m": 4})]
    with pytest.raises(ValueError, match="a seed is required"):
        f_scatter(specs, seed=None)


def test_f_scatter_rejects_non_spec():
    with pytest.raises(ValueError):
        f_scatter([{"kind": "shift_example"}], seed=0)
