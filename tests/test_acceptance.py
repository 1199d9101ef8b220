"""Acceptance gates: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each test measures the advertised quantity at its stated tolerance
and prints a single summary line before asserting, so a failing gate still
reports what it measured.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from almostnormal import (
    GridSpec,
    almost_commuting_pair,
    finite_spectrum_approx,
    graph_normal_approx,
    laurent_truncation_model,
    load_matrix,
    nearest_normal,
    normal_spectral_decomp,
    operator_norm,
    pseudospectrum,
    remove_arc,
    remove_region,
    resolution_of_identity,
    save_matrix,
    schatten_norm,
    self_commutator,
    shift_example,
    square_cover,
    verify_truncation_bounds,
)
from almostnormal.cli import main as cli_main
from almostnormal.core import SpectralDecomp, adjoint
from almostnormal.partition import OpenDisc
from util import brute_force_two_by_two, random_contraction, random_normal_with_spectrum, read_csv


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def run_cli(*argv) -> int:
    return cli_main([str(x) for x in argv])


M_SWEEP = (2, 4, 8, 16, 32)


def test_criterion_01_shift_distance_via_cli(tmp_path):
    worst_rel = 0.0
    worst_time = 0.0
    for m in M_SWEEP:
        mat = tmp_path / f"shift{m}.json"
        rep = tmp_path / f"near{m}.json"
        assert run_cli("gallery", "shift", "--m", m, "--out", mat) == 0
        t0 = time.perf_counter()
        assert run_cli(
            "nearest", "--matrix", mat, "--seed", 0, "--restarts", 2,
            "--report", rep,
        ) == 0
        elapsed = time.perf_counter() - t0
        got = json.loads(rep.read_text())["frobenius_exact"]
        want = math.sqrt(m / 4.0)
        worst_rel = max(worst_rel, abs(got - want) / want)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-7 and worst_time < 5.0
    report(1, ok, f"shift m in {M_SWEEP}: frobenius_exact rel err "
                  f"{worst_rel:.2e} (tol 1e-7), slowest instance {worst_time:.2f}s (< 5s)")
    assert ok


def test_criterion_02_commutator_frobenius_norm():
    worst = 0.0
    for m in M_SWEEP:
        got = schatten_norm(self_commutator(shift_example(m)), 2)
        worst = max(worst, abs(got - math.sqrt(m)))
    ok = worst <= 1e-10
    report(2, ok, f"shift m in {M_SWEEP}: ||[A,A*]||_2 = sqrt(m) "
                  f"abs err {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_03_lower_bound_sandwich():
    violations = 0
    for i in range(500):
        n = 2 + i % 11
        a = random_contraction(n, 20_000 + i)
        rep = nearest_normal(a, seed=i, restarts=1, max_sweeps=10, obj_tol=1e-9)
        for p in (1, 2, math.inf):
            if rep.lower_bounds[p] > rep.distances[p] + 1e-9:
                violations += 1
        if rep.lower_bounds[2] > rep.frobenius_exact + 1e-9:
            violations += 1
    ok = violations == 0
    report(3, ok, f"500 random matrices (dims 2-12, ||A||<=1), p in {{1,2,inf}}: "
                  f"{violations} sandwich violations at 1e-9 slack")
    assert ok


SIDES = (0.5, 0.1, 0.02)


def _partition_ensemble():
    for i in range(200):
        n = 2 + i % 7
        a, lam, _ = random_normal_with_spectrum(n, 40_000 + i)
        yield normal_spectral_decomp(a)


def test_criterion_04_partition_error_bound():
    violations = 0
    refinement_violations = 0
    for dec in _partition_ensemble():
        for side in SIDES:
            approx = finite_spectrum_approx(dec, square_cover(dec.eigenvalues, side))
            if approx.error_actual > math.sqrt(4) * side * math.sqrt(2) + 1e-12:
                violations += 1
            roi = approx.resolution
            moves = np.abs(dec.eigenvalues - roi.labels[roi.assignment])
            if approx.error_actual > moves.max() + 1e-9:
                refinement_violations += 1
    ok = violations == 0 and refinement_violations == 0
    report(4, ok, f"200 normals x sides {SIDES}: {violations} bound violations "
                  f"(error <= 2*side*sqrt(2)), {refinement_violations} above max displacement")
    assert ok


def test_criterion_05_projection_invariants():
    tol = 1e-8
    violations = 0
    for dec in _partition_ensemble():
        for side in SIDES:
            roi = resolution_of_identity(dec, square_cover(dec.eigenvalues, side))
            n = dec.dim
            total = np.zeros((n, n), dtype=complex)
            for j, p in enumerate(roi.projections):
                if operator_norm(p @ p - p) > tol:
                    violations += 1
                if operator_norm(p - adjoint(p)) > tol:
                    violations += 1
                for q in roi.projections[j + 1:]:
                    if operator_norm(p @ q) > tol:
                        violations += 1
                total += p
            if operator_norm(total - np.eye(n)) > tol:
                violations += 1
    ok = violations == 0
    report(5, ok, f"200 normals x sides {SIDES}: {violations} projection-algebra "
                  f"violations at tol 1e-8 (idempotent, self-adjoint, orthogonal, sum=I)")
    assert ok


def test_criterion_06_surgery_invariants():
    rng = np.random.default_rng(606)
    violations = 0
    for i in range(200):
        n = 3 + i % 6
        a, lam, _ = random_normal_with_spectrum(n, 60_000 + i, radius=1.5)
        dec = normal_spectral_decomp(a)
        center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = float(rng.uniform(0.2, 0.8))
        disc = OpenDisc(center=center, radius=radius)
        res = remove_region(dec, disc, mu=center)
        old = dec.eigenvalues
        new = res.decomp.eigenvalues
        moved = disc.contains(old)
        # untouched spectral data bitwise preserved, basis untouched
        if not np.array_equal(new[~moved], old[~moved]):
            violations += 1
        if not np.array_equal(res.decomp.basis, dec.basis):
            violations += 1
        # moved spectrum on the boundary circle within 1e-12 * r
        if moved.any():
            if np.abs(np.abs(new[moved] - center) - radius).max() > 1e-12 * radius:
                violations += 1
        if disc.contains(new).any():
            violations += 1
        # perturbation within 2r
        if res.perturbation_norm > 2.0 * radius + 1e-12:
            violations += 1
        if operator_norm(res.output - a) > 2.0 * radius + 1e-9:
            violations += 1

    # chord surgery: inside spectrum lands exactly on {e_minus, e_plus}
    arc_violations = 0
    for i in range(50):
        n = 5
        rngi = np.random.default_rng(61_000 + i)
        basis = np.linalg.qr(
            rngi.normal(size=(n, n)) + 1j * rngi.normal(size=(n, n))
        )[0]
        disc = OpenDisc(center=0j, radius=1.0)
        e_minus, e_plus = -1 + 0j, 1 + 0j
        lam = np.concatenate([
            rngi.uniform(-0.99, 0.99, 3).astype(complex),
            np.asarray([2 + 0j, -1.5 + 1j]),
        ])
        dec = SpectralDecomp(eigenvalues=lam, basis=basis)
        res = remove_arc(dec, disc, e_minus, e_plus)
        new = res.decomp.eigenvalues
        if not all(z in (e_minus, e_plus) for z in new[:3]):
            arc_violations += 1
        if not np.array_equal(new[3:], lam[3:]):
            arc_violations += 1
    ok = violations == 0 and arc_violations == 0
    report(6, ok, f"200 (normal, disc) pairs: {violations} surgery violations "
                  f"(untouched exact, boundary within 1e-12*r, ||A-A_out|| <= 2r); "
                  f"50 chord cases: {arc_violations} off {{e-,e+}}")
    assert ok


EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)


def test_criterion_07_graph_approximant():
    violations = 0
    decrease_violations = 0
    for i in range(100):
        n = 3 + i % 4
        a, lam, _ = random_normal_with_spectrum(n, 70_000 + i)
        dec = normal_spectral_decomp(a)
        norm_a = operator_norm(a)
        dists = []
        for eps in EPS_SWEEP:
            out, rep = graph_normal_approx(dec, eps)
            if operator_norm(self_commutator(out)) > 1e-9:
                violations += 1
            if operator_norm(out) > norm_a + 1e-12:
                violations += 1
            # independent eigenvalue extraction, then graph membership
            w = np.linalg.eigvals(out) / rep.scale
            f_vals = (rep.r + eps) * np.cos(2.0 * math.pi * w.real / eps)
            if np.abs(f_vals - w.imag).max() > 1e-9:
                violations += 1
            dists.append(operator_norm(out - a))
        for k in range(len(EPS_SWEEP) - 1):
            if dists[k + 1] > 2.0 * dists[k] + 1e-12:
                decrease_violations += 1
    ok = violations == 0 and decrease_violations == 0
    report(7, ok, f"100 normals x eps {EPS_SWEEP}: {violations} violations "
                  f"(defect<=1e-9, norm kept, eigenvalues on graph within 1e-9); "
                  f"{decrease_violations} breaks of factor-2 decrease in eps")
    assert ok


def test_criterion_08_almost_commuting_family():
    t0 = time.perf_counter()
    violations = 0
    for m in range(1, 513):
        a, b = almost_commuting_pair(m)   # construction re-verifies structurally
        diag = np.diagonal(a).real
        sub = np.diagonal(b, -1).real
        if float(np.abs(diag).max()) != 1.0:
            violations += 1
        comm_ab = float(np.abs((diag[1:] - diag[:-1]) * sub).max())
        bsq = np.abs(sub) ** 2
        comm_bb = float(
            np.abs(np.concatenate([bsq, [0.0]]) - np.concatenate([[0.0], bsq])).max()
        )
        if comm_ab > 2.0 / m + 1e-12 or comm_bb > 4.0 / m + 1e-12:
            violations += 1
    # dense operator-norm spot checks, independent of the banded shortcuts
    for m in (1, 2, 3, 7, 32, 100, 512):
        a, b = almost_commuting_pair(m)
        if abs(operator_norm(a) - 1.0) > 1e-12:
            violations += 1
        if operator_norm(a @ b - b @ a) > 2.0 / m + 1e-9:
            violations += 1
        if operator_norm(self_commutator(b)) > 4.0 / m + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(8, ok, f"pairs m=1..512: {violations} certificate violations "
                  f"(||A||=1 exact, ||[A,B]||<=2/m, ||[B*,B]||<=4/m), total {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_09_truncation_inequalities():
    violations = 0
    trace_norm_err = 0.0
    for big_k in (16, 32):
        model = laurent_truncation_model([0, 0, 1], big_k)
        for lam in np.arange(1.0, big_k / 2 + 0.25, 0.5):
            check = verify_truncation_bounds(model, lam)
            if not check["passed"]:
                violations += 1
            if check["lhs2"] > check["rhs2"] + 1e-12 or check["lhs3"] > check["rhs3"] + 1e-12:
                violations += 1
            if lam >= 1.5:
                # truncated shift: S1 norm of the symmetrized commutator is 2,
                # against the bound (2 + pi^2/3) * N1 with N1 = 2
                trace_norm_err = max(trace_norm_err, abs(check["lhs3"] - 2.0))
                if check["N1"] != 2:
                    violations += 1
                want_rhs = (2.0 + math.pi ** 2 / 3.0) * 2.0
                if abs(check["rhs3"] - want_rhs) > 1e-12:
                    violations += 1
    ok = violations == 0 and trace_norm_err <= 1e-12
    report(9, ok, f"shift symbol K in (16, 32), lambda grid to K/2: {violations} "
                  f"inequality violations; commutator trace norm err {trace_norm_err:.2e} vs 2 exact")
    assert ok


def test_criterion_10_pseudospectrum_matches_neighborhood():
    eps = 0.3
    violations = 0
    for i in range(20):
        n = 4 + i % 3
        a, lam, _ = random_normal_with_spectrum(n, 100_000 + i)
        half = float(np.abs(lam).max()) + eps + 0.2
        grid = GridSpec(center=0j, half_width=half, resolution=101)
        rep = pseudospectrum(a, eps, grid, reference=lam, threads=1)
        zs = grid.points()
        is_member = np.isin(zs, rep.members)
        dist = np.abs(zs[:, None] - lam[None, :]).min(axis=1)
        predicted = dist < eps
        disagree = is_member != predicted
        # classifications may differ only within one grid step of the shell
        bad = disagree & (np.abs(dist - eps) > grid.step())
        violations += int(bad.sum())
    ok = violations == 0
    report(10, ok, f"20 normals, eps=0.3, grid 101x101: {violations} membership "
                   f"mismatches beyond one grid step of the eps shell")
    assert ok


def test_criterion_11_two_by_two_oracle():
    worst = 0.0
    for i in range(100):
        a = random_contraction(2, 110_000 + i)
        rep = nearest_normal(a, seed=i, restarts=2)
        bf = brute_force_two_by_two(a)
        worst = max(worst, abs(rep.frobenius_exact - bf))
    ok = worst <= 1e-4
    report(11, ok, f"100 random 2x2: |frobenius_exact - brute force(2000^2, refined)| "
                   f"max {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_12_byte_determinism(tmp_path):
    """Reruns on the same machine with the same BLAS thread count give identical bytes."""
    normal_mat = tmp_path / "normal.json"
    save_matrix(normal_mat, np.diag([0.1 + 0.2j, -0.4 + 0j, 0.5 - 0.3j]))
    chord_mat = tmp_path / "chord.json"
    save_matrix(chord_mat, np.diag([-0.5 + 0j, 0.3 + 0j, 2 + 0j]))
    shift_mat = tmp_path / "shift.json"
    assert run_cli("gallery", "shift", "--m", 4, "--out", shift_mat) == 0

    def outs(tag, names):
        return {n: tmp_path / f"{tag}.{n}" for n in names}

    cases = []
    o = outs("shift", ["out"])
    cases.append((["gallery", "shift", "--m", 4, "--out", o["out"]], o))
    o = outs("pair", ["a", "b", "rep"])
    cases.append((["gallery", "pair", "--m", 5, "--out-a", o["a"], "--out-b", o["b"],
                   "--report", o["rep"]], o))
    o = outs("pert", ["out"])
    cases.append((["gallery", "perturbed", "--dim", 4, "--delta", 0.3, "--seed", 11,
                   "--out", o["out"]], o))
    o = outs("lau", ["a", "g"])
    cases.append((["gallery", "laurent", "--coeffs", "0,0,1", "--K", 4,
                   "--out-a", o["a"], "--out-g", o["g"]], o))
    o = outs("near", ["rep", "wit"])
    cases.append((["nearest", "--matrix", shift_mat, "--seed", 2, "--restarts", 1,
                   "--max-sweeps", 10, "--report", o["rep"], "--witness", o["wit"]], o))
    o = outs("part", ["rep", "approx"])
    cases.append((["partition", "--matrix", normal_mat, "--side", 0.5,
                   "--report", o["rep"], "--approx", o["approx"]], o))
    o = outs("rdisc", ["out", "rep"])
    cases.append((["surgery", "remove-disc", "--matrix", normal_mat, "--center", "0,0",
                   "--radius", 1, "--out", o["out"], "--report", o["rep"]], o))
    o = outs("rarc", ["out", "rep"])
    cases.append((["surgery", "remove-arc", "--matrix", chord_mat, "--center", "0,0",
                   "--radius", 1, "--e-minus=-1,0", "--e-plus", "1,0",
                   "--out", o["out"], "--report", o["rep"]], o))
    o = outs("trans", ["out"])
    cases.append((["surgery", "transport", "--matrix", normal_mat, "--map", "affine",
                   "--a", "2,0", "--b", "0,1", "--out", o["out"]], o))
    o = outs("graph", ["out", "rep"])
    cases.append((["surgery", "graph", "--matrix", normal_mat, "--eps", 0.25,
                   "--out", o["out"], "--report", o["rep"]], o))
    o = outs("trunc", ["out"])
    cases.append((["truncate", "--coeffs", "0,0,1", "--K", 8, "--grid", "2,4",
                   "--seed", 1, "--restarts", 1, "--max-sweeps", 10, "--out", o["out"]], o))
    o = outs("ps", ["out"])
    cases.append((["pseudospec", "--matrix", normal_mat, "--eps", 0.3,
                   "--resolution", 41, "--out", o["out"]], o))
    o = outs("sc", ["out"])
    cases.append((["scatter", "--shift", "2,4", "--seed", 0, "--restarts", 1,
                   "--max-sweeps", 20, "--out", o["out"]], o))

    mismatched = []
    for argv, files in cases:
        argv = [str(x) for x in argv]
        assert cli_main(argv) == 0, argv
        first = {n: p.read_bytes() for n, p in files.items()}
        assert cli_main(argv) == 0, argv
        second = {n: p.read_bytes() for n, p in files.items()}
        if first != second:
            mismatched.append(argv[0])
    ok = not mismatched
    report(12, ok, f"{len(cases)} subcommand configs run twice: "
                   f"{len(mismatched)} produced different bytes {mismatched or ''}")
    assert ok
