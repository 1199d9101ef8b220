"""End-to-end command line runs, in process through main()."""

from __future__ import annotations

import json

import numpy as np
import pytest

from almostnormal import (
    OpenDisc,
    RadialCollapse,
    load_matrix,
    normal_spectral_decomp,
    read_csv,
    save_matrix,
    shift_example,
)
from almostnormal.cli import main


def run(*argv) -> int:
    return main([str(x) for x in argv])


def read_json(path):
    return json.loads(path.read_text())


def test_gallery_shift_and_nearest(tmp_path):
    mat = tmp_path / "shift.json"
    rep = tmp_path / "near.json"
    wit = tmp_path / "wit.json"
    assert run("gallery", "shift", "--m", 4, "--out", mat) == 0
    a, meta = load_matrix(mat)
    assert np.array_equal(a, shift_example(4))
    assert "version" in meta and "config" in meta

    assert run(
        "nearest", "--matrix", mat, "--seed", 0, "--restarts", 2,
        "--report", rep, "--witness", wit,
    ) == 0
    doc = read_json(rep)
    assert doc["frobenius_exact"] == pytest.approx(1.0, abs=1e-7)
    assert doc["distances"]["2"] >= doc["lower_bounds"]["2"]
    assert doc["converged"] is True
    # per-start counters: one entry per start, the best start's sweeps reported
    assert len(doc["restart_objectives"]) == len(doc["restart_pivots"]) == 2
    best = doc["restart_objectives"].index(doc["objective"])
    assert doc["restart_sweeps"][best] == doc["sweeps"]
    w, _ = load_matrix(wit)
    assert w.shape == (4, 4)


def test_nearest_warns_when_sweep_cap_is_hit(tmp_path, capsys):
    rng = np.random.default_rng(6)
    mat, rep = tmp_path / "a.json", tmp_path / "near.json"
    save_matrix(mat, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert run("nearest", "--matrix", mat, "--seed", 0, "--max-sweeps", 1,
               "--report", rep) == 0
    assert read_json(rep)["converged"] is False
    warning = capsys.readouterr().err.strip()
    assert "did not converge" in warning and "1 sweeps used" in warning
    assert "--max-sweeps 1" in warning and len(warning.splitlines()) == 1


@pytest.mark.parametrize("sub, argv", [
    ("scatter", ("--shift", "8,16")),
    ("truncate", ("--coeffs", "0,0,1", "--K", 8, "--grid", "2,4,6")),
])
def test_rows_warn_when_sweep_cap_is_hit(tmp_path, capsys, sub, argv):
    out = tmp_path / "out.csv"
    common = ("--seed", 0, "--restarts", 1, "--out", out)
    assert run(sub, *argv, *common, "--max-sweeps", 1) == 0
    warning = capsys.readouterr().err.strip()
    assert warning.startswith(f"warning: {sub}: ") and len(warning.splitlines()) == 1
    assert "rows did not converge, cap --max-sweeps 1" in warning
    assert run(sub, *argv, *common, "--max-sweeps", 200) == 0
    assert capsys.readouterr().err == ""


def test_gallery_pair_and_report(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    rep = tmp_path / "cert.json"
    assert run(
        "gallery", "pair", "--m", 6, "--out-a", out_a, "--out-b", out_b,
        "--report", rep,
    ) == 0
    doc = read_json(rep)
    assert doc["norm_a"] == pytest.approx(1.0)
    assert doc["comm_ab"] <= doc["comm_ab_bound"] + 1e-9
    assert doc["comm_self_b"] <= doc["comm_self_b_bound"] + 1e-9
    assert doc["passed"] is True


def test_gallery_perturbed_and_laurent(tmp_path):
    out = tmp_path / "p.json"
    assert run("gallery", "perturbed", "--dim", 4, "--delta", 0.2, "--seed", 7, "--out", out) == 0
    a, _ = load_matrix(out)
    assert a.shape == (4, 4)
    assert run("gallery", "perturbed", "--dim", 4, "--delta", -1, "--seed", 7, "--out", out) == 2

    oa, og = tmp_path / "la.json", tmp_path / "lg.json"
    assert run("gallery", "laurent", "--coeffs", "0,0,1", "--K", 4, "--out-a", oa, "--out-g", og) == 0
    g, _ = load_matrix(og)
    assert np.array_equal(np.diagonal(g).real, np.abs(np.arange(-4, 5)))


def test_partition_side_and_cover(tmp_path):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0j, 1 + 0j, 0.9 + 0.4j]))
    rep = tmp_path / "part.json"
    approx = tmp_path / "approx.json"
    assert run(
        "partition", "--matrix", mat, "--side", 0.5, "--report", rep,
        "--approx", approx,
    ) == 0
    doc = read_json(rep)
    assert doc["error_actual"] <= doc["error_bound"]
    assert doc["multiplicity"] <= 4
    assert sum(doc["ranks"]) == 3
    t, _ = load_matrix(approx)
    assert t.shape == (3, 3)

    cov = tmp_path / "cover.json"
    cov.write_text(json.dumps({
        "regions": [
            {"kind": "disc", "center": [0.0, 0.0], "radius": 0.5},
            {"kind": "square", "center": [1.0, 0.2], "side": 1.0},
        ]
    }))
    assert run("partition", "--matrix", mat, "--cover", cov, "--report", rep) == 0
    doc = read_json(rep)
    assert len(doc["regions"]) == 2

    # --side and --cover are mutually exclusive
    assert run(
        "partition", "--matrix", mat, "--side", 0.5, "--cover", cov, "--report", rep,
    ) == 2


def test_partition_far_from_unit_scale(tmp_path):
    lam = np.array([1.0, 0.5j, -0.3, 0.7])
    mat, rep = tmp_path / "big.json", tmp_path / "part.json"
    save_matrix(mat, np.diag(lam) * 1e160)
    assert run("partition", "--matrix", mat, "--side", 2e159, "--report", rep) == 0
    doc = read_json(rep)
    assert sum(doc["ranks"]) == 4
    assert doc["error_actual"] <= doc["error_bound"]


def test_partition_rejects_non_normal(tmp_path):
    mat = tmp_path / "nn.json"
    save_matrix(mat, np.array([[0, 1], [0, 0]], dtype=complex))
    assert run("partition", "--matrix", mat, "--side", 0.5, "--report", tmp_path / "r.json") == 3


def test_partition_uncovered_spectrum(tmp_path):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0j, 5 + 0j]))
    cov = tmp_path / "cover.json"
    cov.write_text(json.dumps({
        "regions": [{"kind": "disc", "center": [0.0, 0.0], "radius": 1.0}]
    }))
    assert run("partition", "--matrix", mat, "--cover", cov, "--report", tmp_path / "r.json") == 3


def test_surgery_remove_disc_and_arc(tmp_path):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0j, 5 + 0j]))
    out = tmp_path / "out.json"
    rep = tmp_path / "rep.json"
    assert run(
        "surgery", "remove-disc", "--matrix", mat, "--center", "0,0",
        "--radius", 1, "--out", out, "--report", rep,
    ) == 0
    b, _ = load_matrix(out)
    assert np.allclose(np.sort(np.abs(np.linalg.eigvals(b))), [1.0, 5.0])
    doc = read_json(rep)
    assert doc["moved_count"] == 1
    assert doc["perturbation_norm"] <= doc["bound"]

    arc = tmp_path / "arc.json"
    save_matrix(arc, np.diag([-0.5 + 0j, 0.3 + 0j, 2 + 0j]))
    assert run(
        "surgery", "remove-arc", "--matrix", arc, "--center", "0,0", "--radius", 1,
        "--e-minus=-1,0", "--e-plus", "1,0", "--out", out,
    ) == 0
    b, _ = load_matrix(out)
    assert np.allclose(sorted(np.linalg.eigvals(b).real), [-1.0, 1.0, 2.0])

    # off-chord spectrum is a domain error
    off = tmp_path / "off.json"
    save_matrix(off, np.diag([0.3j, 2 + 0j]))
    assert run(
        "surgery", "remove-arc", "--matrix", off, "--center", "0,0", "--radius", 1,
        "--e-minus=-1,0", "--e-plus", "1,0", "--out", out,
    ) == 3


def test_surgery_transport_variants(tmp_path):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0.5 + 0j, 2 + 0j]))
    out = tmp_path / "out.json"
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "affine",
        "--a", "2,0", "--b", "0,1", "--out", out,
    ) == 0
    b, _ = load_matrix(out)
    assert np.allclose(np.diagonal(b), [1 + 1j, 4 + 1j])

    rep = tmp_path / "rep.json"
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "radial-collapse",
        "--center", "0,0", "--radius", 1, "--out", out, "--report", rep,
    ) == 0
    b, _ = load_matrix(out)
    assert np.allclose(sorted(np.abs(np.diagonal(b))), [0.5, 1.0])
    # the report measures the move the output was built from: 2 -> 1
    lam = normal_spectral_decomp(load_matrix(mat)[0]).eigenvalues
    phi = RadialCollapse(disc=OpenDisc(center=0j, radius=1.0))
    assert read_json(rep)["perturbation_norm"] == np.abs(phi(lam) - lam).max()

    # missing map parameters are argument errors
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "affine", "--out", out,
    ) == 2
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "boundary-push", "--out", out,
    ) == 2


def test_surgery_graph(tmp_path):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0.2 + 0.1j, -0.4 + 0j, 0.3j]))
    out = tmp_path / "out.json"
    rep = tmp_path / "rep.json"
    assert run(
        "surgery", "graph", "--matrix", mat, "--eps", 0.25, "--out", out, "--report", rep,
    ) == 0
    doc = read_json(rep)
    assert doc["output_defect"] <= 1e-9
    assert doc["output_norm"] <= doc["r"] + 1e-12
    assert doc["perturbation_norm"] <= doc["bound"] + 1e-9


def test_truncate_csv(tmp_path):
    out = tmp_path / "scale.csv"
    assert run(
        "truncate", "--coeffs", "0,0,1", "--K", 8, "--grid", "2,4,6",
        "--seed", 1, "--restarts", 1, "--max-sweeps", 30, "--out", out,
    ) == 0
    cols, rows, comments = read_csv(out)
    assert cols[0] == "lambda"
    assert "passed" in cols
    assert len(rows) == 3
    assert all(r[cols.index("passed")] == "1" for r in rows)
    assert any(c.startswith("config=") for c in comments)


def test_pseudospec_csv(tmp_path, capsys):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0j, 1 + 0j]))
    out = tmp_path / "ps.csv"
    assert run(
        "pseudospec", "--matrix", mat, "--eps", 0.3, "--resolution", 41, "--out", out,
    ) == 0
    cols, rows, comments = read_csv(out)
    assert cols == ["re", "im", "sigma_min"]
    pts = np.array([float(r[0]) + 1j * float(r[1]) for r in rows])
    # every member is within eps of the spectrum (input is normal)
    d = np.minimum(np.abs(pts), np.abs(pts - 1.0))
    assert (d < 0.3 + 1e-12).all()
    assert any("d_eps=" in c for c in comments)
    evaluated = capsys.readouterr().out.splitlines()[-1]
    assert evaluated.startswith("sigma_min at ") and evaluated.endswith(" of 1681 grid points")


def test_scatter_shift_family(tmp_path):
    out = tmp_path / "sc.csv"
    assert run(
        "scatter", "--shift", "2,4", "--seed", 0, "--restarts", 1,
        "--max-sweeps", 40, "--out", out,
    ) == 0
    cols, rows, _ = read_csv(out)
    assert cols == ["defect", "dist_op_witness", "dist_frob_exact", "lower_bound_op"]
    assert len(rows) == 2


def test_scatter_shift_frobenius_ratio(tmp_path):
    # over the shift family the Frobenius distance is sqrt(m)/2, so the
    # ratio to the commutator Frobenius norm sqrt(m) is constant 0.5
    out = tmp_path / "ratio.csv"
    dims = [2, 4, 8, 16, 32, 64]
    assert run(
        "scatter", "--shift", ",".join(map(str, dims)), "--seed", 0,
        "--restarts", 1, "--max-sweeps", 60, "--out", out,
    ) == 0
    cols, rows, _ = read_csv(out)
    fe = cols.index("dist_frob_exact")
    for m, row in zip(dims, rows):
        assert float(row[fe]) / np.sqrt(m) == pytest.approx(0.5, abs=1e-7)


def test_missing_file_is_exit_2(tmp_path):
    assert run("nearest", "--matrix", tmp_path / "nope.json", "--seed", 0,
               "--report", tmp_path / "r.json") == 2


def test_bad_arguments_exit_2():
    assert run("gallery", "shift", "--m", "3", "--out", "/tmp/x.json") == 2  # odd m
    assert run("nope-command") == 2
    assert run() == 2


def test_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scatter", "--shift", "2,4", "--seed", 3, "--restarts", 1,
            "--max-sweeps", 30]
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    # the config echo embeds the out path; strip the one differing line
    l1 = [ln for ln in b1.splitlines() if not ln.startswith(b"# config=")]
    l2 = [ln for ln in b2.splitlines() if not ln.startswith(b"# config=")]
    assert l1 == l2

    # identical full command (same out path) reproduces identical bytes
    assert run(*args, "--out", out1) == 0
    assert out1.read_bytes() == b1
