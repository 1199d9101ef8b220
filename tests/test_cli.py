"""End-to-end command line runs, in process through main()."""

from __future__ import annotations

import base64
import functools
import json
import math

import numpy as np
import pytest

from almostnormal import (
    OpenDisc,
    RadialCollapse,
    SpectralDecomp,
    load_matrix,
    normal_spectral_decomp,
    perturbed_normal,
    save_matrix,
    shift_example,
)
from almostnormal import cli
from almostnormal.cli import main
from almostnormal.fileio import format_float
from util import read_csv, tangled_normal, triangular_blocks


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
    assert doc["restart_stop_reasons"] == ["tolerance", "tolerance"]
    assert len(doc["restart_stationarity"]) == 2
    assert all(0.0 <= s <= 1e-6 for s in doc["restart_stationarity"])
    assert doc["directions"] == {"frobenius_exact": "upper", "distances": "upper",
                                 "lower_bounds": "lower"}
    w, _ = load_matrix(wit)
    assert w.shape == (4, 4)


def test_nearest_warns_when_sweep_cap_is_hit(tmp_path, capsys):
    rng = np.random.default_rng(6)
    mat, rep = tmp_path / "a.json", tmp_path / "near.json"
    save_matrix(mat, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert run("nearest", "--matrix", mat, "--seed", 0, "--max-sweeps", 1,
               "--report", rep) == 0
    doc = read_json(rep)
    assert doc["converged"] is False and "cap" in doc["restart_stop_reasons"]
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


def test_laurent_comm_bound_is_the_bound_the_window_certifies(tmp_path):
    # laurent_multiplication checks ||[G, A]|| against this sum, taken by
    # np.sum; a Python sum of the same terms differs in the last bit here
    coeffs = np.array([0.1 + 0.1j, 0, 0.1 + 0.1j])
    certified = float(np.sum(np.abs(coeffs) * np.abs(np.arange(-1, 2))))
    oa, og = tmp_path / "la.json", tmp_path / "lg.json"
    assert run("gallery", "laurent", "--coeffs", "0.1,0.1;0,0;0.1,0.1", "--K", 4,
               "--out-a", oa, "--out-g", og) == 0
    assert load_matrix(oa)[1]["comm_bound"] == certified


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


@pytest.mark.parametrize("sub, argv", [
    (("partition",), ("--side", 0.5, "--report")),
    (("surgery", "graph"), ("--eps", 0.25, "--out")),
])
def test_defect_over_the_reconstruction_bound_exits_3(tmp_path, capsys, sub, argv):
    # defect 4.2e-9 ||A||^2: no basis reconstructs A to 1e-9 ||A||
    mat = tmp_path / "blocks.json"
    save_matrix(mat, triangular_blocks(2.1e-9))
    assert run(*sub, "--matrix", mat, *argv, tmp_path / "out.json") == 3
    assert "defect ||[A*,A]|| = 4.2e-09" in capsys.readouterr().err


def test_partition_accepts_tangled_real_parts(tmp_path):
    mat, rep = tmp_path / "tangled.json", tmp_path / "part.json"
    a, _ = tangled_normal(64, 1.2e-8, 0)
    save_matrix(mat, a)
    assert run("partition", "--matrix", mat, "--side", 0.5, "--report", rep) == 0
    doc = read_json(rep)
    assert sum(doc["ranks"]) == 64
    assert doc["error_actual"] <= doc["error_bound"]


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

    # the push from anchor 0 lands 0.5 on the unit circle and leaves 2 alone
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "boundary-push",
        "--center", "0,0", "--radius", 1, "--anchor", "0,0", "--out", out, "--report", rep,
    ) == 0
    b, _ = load_matrix(out)
    assert np.allclose(sorted(np.diagonal(b).real), [1.0, 2.0])
    assert read_json(rep)["perturbation_norm"] == pytest.approx(0.5)

    # missing map parameters are argument errors
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "affine", "--out", out,
    ) == 2
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "boundary-push", "--out", out,
    ) == 2
    assert run(
        "surgery", "transport", "--matrix", mat, "--map", "radial-collapse",
        "--center", "0,0", "--out", out,
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


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
def test_surgery_graph_refuses_a_bound_it_cannot_keep(tmp_path, capsys, eps):
    # f's slope, about 2 pi ||A|| / eps, magnifies the rounding of each
    # landing point past the printed bound
    mat = tmp_path / "n.json"
    save_matrix(mat, perturbed_normal(16, 0.0, 3))
    out = tmp_path / "out.json"
    rep = tmp_path / "rep.json"
    assert run(
        "surgery", "graph", "--matrix", mat, "--eps", eps, "--out", out, "--report", rep,
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: graph approximation at eps = {eps:g} with ||A|| = ")
    assert "over its bound" in err
    assert not out.exists() and not rep.exists()


def test_surgery_graph_far_from_unit_scale(tmp_path):
    # [A*, A] of this input overflows unless its defect is taken scaled
    mat = tmp_path / "n.json"
    save_matrix(mat, 2.0 ** 520 * perturbed_normal(8, 0.0, 3))
    rep = tmp_path / "rep.json"
    assert run(
        "surgery", "graph", "--matrix", mat, "--eps", math.ldexp(0.05, 520),
        "--out", tmp_path / "out.json", "--report", rep,
    ) == 0
    assert math.isfinite(read_json(rep)["output_defect"])


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
    # the comments carry the same count, after grid_step=
    step = next(i for i, c in enumerate(comments) if c.startswith("grid_step="))
    assert comments[step + 1] == f"evaluated={evaluated.split()[2]}"
    # threads is echoed as given, so the core count leaves the bytes alone
    config = json.loads(next(c for c in comments if c.startswith("config="))[len("config="):])
    assert config["threads"] is None


def test_pseudospec_reference_sets_d_eps(tmp_path):
    mat, out = tmp_path / "n.json", tmp_path / "ps.csv"
    save_matrix(mat, np.diag([0j, 1 + 0j]))
    assert run("pseudospec", "--matrix", mat, "--eps", 0.3, "--resolution", 21,
               "--reference", "2,0", "--out", out) == 0
    _, rows, comments = read_csv(out)
    pts = np.array([float(r[0]) + 1j * float(r[1]) for r in rows])
    want = np.abs(pts - 2.0).max()
    assert f"d_eps={format_float(want)}" in comments


def test_pseudospec_reference_is_empty_for_a_non_normal_matrix(tmp_path):
    mat, out = tmp_path / "blocks.json", tmp_path / "ps.csv"
    save_matrix(mat, triangular_blocks(2.1e-9))
    assert run("pseudospec", "--matrix", mat, "--eps", 0.3, "--resolution", 11, "--out", out) == 0
    _, _, comments = read_csv(out)
    config = json.loads(next(c for c in comments if c.startswith("config="))[len("config="):])
    assert config["reference"] == []


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


_GOOD_MATRIX = {"dim": 1, "data": [[[0.5, 0.0]]]}
_GOOD_REGION = {"kind": "disc", "center": [0.5, 0.0], "radius": 0.1}


@pytest.mark.parametrize(
    "matrix, cover, spec",
    [
        ({"data": [[[None, 0]]]}, None, None),
        ({"data": 5}, None, None),
        ({"dim": None, "data": [[[0.5, 0.0]]]}, None, None),
        ({"data": [[[0.5, 0.0]]], "metadata": [1]}, None, None),
        (_GOOD_MATRIX, {"regions": [3]}, None),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "center": [0, None]}]}, None),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "radius": None}]}, None),
        (_GOOD_MATRIX, {"regions": 3}, None),
        (_GOOD_MATRIX, {"regions": []}, None),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "kind": "hexagon"}]}, None),
        (None, None, []),
        (None, None, [{"params": {"m": 2}}]),
        (None, None, [{"kind": "shift_example", "params": [1]}]),
        (None, None, [{"kind": "shift_example", "params": {"m": 2}, "seed": [1]}]),
        (None, None, [{"kind": "shift_example", "params": {"m": [2]}}]),
        (None, None, [{"kind": "laurent_multiplication", "params": {"coeffs": "1", "K": 2}}]),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "center": ["0", "0"]}]}, None),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "center": [False, False]}]}, None),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "radius": "1"}]}, None),
        (_GOOD_MATRIX, {"regions": [{**_GOOD_REGION, "radius": True}]}, None),
        (None, None, [{"kind": "perturbed_normal", "params": {"dim": 3, "delta": 0.5}, "seed": True}]),
        (None, None, [{"kind": "shift_example", "params": {"m": "4"}}]),
        (None, None, [{"kind": "perturbed_normal", "params": {"dim": 3, "delta": "0.5"}, "seed": 1}]),
        (None, None, [{"kind": "laurent_multiplication", "params": {"coeffs": [0, 0, 1], "K": 3.5}}]),
        (None, None, [{"kind": "laurent_multiplication", "params": {"coeffs": [True, 0, 1], "K": 3}}]),
    ],
    ids=["matrix-null-cell", "matrix-data-5", "matrix-dim-null", "matrix-metadata-list",
         "cover-region-3", "cover-center-null", "cover-radius-null", "cover-regions-3",
         "cover-regions-empty", "cover-kind-unknown", "spec-empty", "spec-kind-missing",
         "spec-params-list", "spec-seed-list", "spec-param-list", "spec-coeffs-string",
         "cover-center-strings", "cover-center-bools", "cover-radius-string", "cover-radius-true",
         "spec-seed-true", "spec-m-string", "spec-delta-string", "spec-K-fraction",
         "spec-coeffs-bool"],
)
def test_malformed_input_files_exit_2(tmp_path, capsys, matrix, cover, spec):
    def dump(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    if spec is not None:
        argv = ["scatter", "--spec", dump("spec.json", spec), "--seed", 0,
                "--out", tmp_path / "s.csv"]
    elif cover is not None:
        argv = ["partition", "--matrix", dump("m.json", matrix),
                "--cover", dump("cover.json", cover), "--report", tmp_path / "r.json"]
    else:
        argv = ["nearest", "--matrix", dump("m.json", matrix), "--seed", 0,
                "--report", tmp_path / "r.json"]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("region, named", [
    ({"kind": "disc", "center": [0, 0]}, "'radius'"),
    ({"kind": "disc", "radius": 0.1}, "'center'"),
    ({**_GOOD_REGION, "center": [0, "x"]}, "center must be a number, got 'x'"),
    ({**_GOOD_REGION, "center": {"a": 1}}, "0"),
    ({**_GOOD_REGION, "center": [False, 0]}, "center must be a number, got False"),
    ({**_GOOD_REGION, "radius": "1"}, "radius must be a number, got '1'"),
], ids=["no-radius", "no-center", "center-string", "center-object", "center-bool", "radius-string"])
def test_bad_cover_region_exits_2_naming_the_region(tmp_path, capsys, region, named):
    matrix, cover = tmp_path / "m.json", tmp_path / "cover.json"
    matrix.write_text(json.dumps(_GOOD_MATRIX))
    cover.write_text(json.dumps({"regions": [region]}))
    assert run("partition", "--matrix", matrix, "--cover", cover, "--report", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == f"error: region 0: bad center or size: {named}\n"


def _c128le(*entries) -> str:
    return base64.b64encode(np.array(entries, "<c16").tobytes()).decode("ascii")


# a whole payload of dim 64 whose first 64 KiB characters, one decode chunk,
# end in padding; the decoded length is right, so only the padding is wrong
_CUT = 49151
_CHUNKED = np.arange(64 * 64, dtype="<c16").tobytes()
_CHUNK_PADDED = (base64.b64encode(_CHUNKED[:_CUT]) + base64.b64encode(_CHUNKED[_CUT:])).decode()


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"c128le": _c128le(0.5), "dim": 1, "data": [[[0.5, 0.0]]]}, "no 'data'"),
        ({"c128le": "*" + _c128le(0.5)[1:], "dim": 1}, "c128le payload is not base64: Only base64 data"),
        ({"c128le": "\u00e9" + _c128le(0.5)[1:], "dim": 1}, "c128le payload is not base64: string argument"),
        ({"c128le": base64.b64encode(bytes(8)).decode() * 2, "dim": 1}, "padded at its end"),
        ({"c128le": _CHUNK_PADDED, "dim": 64}, "padded at its end"),
        ({"c128le": _c128le(0.5)[:-3], "dim": 1}, "c128le payload is not base64: Invalid base64"),
        ({"c128le": _c128le(0.5)[:-4], "dim": 1}, "16 n"),
        ({"c128le": _c128le(0.5, 0.5), "dim": 1}, "16 n"),
        ({"c128le": "", "dim": 1}, "16 n"),
        ({"c128le": _c128le(0.5)}, "dim n"),
        ({"c128le": _c128le(0.5), "dim": 2}, "dim n"),
        ({"c128le": _c128le(0.5), "dim": True}, "dim n"),
        ({"c128le": _c128le(*[0.5] * 4), "dim": -2}, "dim n"),
        ({"c128le": 5, "dim": 1}, "not a base64 string"),
        ({"c128le": _c128le(complex(math.nan, 0.0)), "dim": 1}, "finite"),
        ({"c128le": _c128le(complex(0.0, math.inf)), "dim": 1}, "finite"),
    ],
    ids=["both-fields", "alphabet", "non-ascii", "padding-mid", "padding-at-chunk-end",
         "cut-mid-quantum", "cut", "too-long", "empty", "dim-missing", "dim-mismatch", "dim-bool",
         "dim-negative", "not-a-string", "nan", "inf"],
)
def test_malformed_binary_matrix_exits_2(tmp_path, capsys, doc, match):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert run("nearest", "--matrix", path, "--seed", 0, "--report", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


@pytest.mark.parametrize("reader", ["cover", "spec"])
def test_deeply_nested_cover_or_spec_exits_2_naming_the_file(tmp_path, capsys, reader):
    deep = tmp_path / "deep.json"
    deep.write_text('{"regions": [], "x": %s}' % ("[" * 5000 + "]" * 5000))
    if reader == "cover":
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps(_GOOD_MATRIX))
        argv = ["partition", "--matrix", matrix, "--cover", deep, "--report", tmp_path / "r.json"]
    else:
        argv = ["scatter", "--spec", deep, "--seed", 0, "--out", tmp_path / "s.csv"]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


def test_empty_shift_list_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run("scatter", "--shift", ",", "--seed", 0, "--out", out) == 2
    assert "empty int list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("truncate", "--coeffs", "0,0,1", "--K", 4, "--grid", ",", "--seed", 1, "--out", "o"),
     "empty float list"),
    (("truncate", "--coeffs", ",", "--K", 4, "--grid", "2,3", "--seed", 1, "--out", "o"),
     "empty coefficient list"),
    (("pseudospec", "--matrix", "m.json", "--eps", 0.1, "--reference", ";", "--out", "o"),
     "empty complex list"),
    (("nearest", "--matrix", "m.json", "--seed", 0, "--p", "1e400", "--report", "o"),
     "cannot parse p list"),
    (("truncate", "--coeffs", "0,0,1", "--K", 4, "--grid", "nan", "--seed", 0, "--out", "o"),
     "truncation level must be a number, got nan"),
])
def test_bad_lists_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    save_matrix("m.json", np.diag([0j, 1 + 0j]))
    assert run(*argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("nearest", "--matrix", "m.json", "--restarts", 1, "--report", "o"),
    ("nearest", "--matrix", "m.json", "--restarts", 2, "--report", "o"),
    ("scatter", "--shift", "2,4", "--out", "o"),
    ("truncate", "--coeffs", "0,0,1", "--K", 4, "--grid", "2,3", "--out", "o"),
    ("gallery", "perturbed", "--dim", 3, "--delta", 0.1, "--out", "o"),
], ids=["nearest-one-start", "nearest-two-starts", "scatter", "truncate", "gallery-perturbed"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the identity start never reads the seed, so a single start must check it too
    monkeypatch.chdir(tmp_path)
    save_matrix("m.json", shift_example(4))
    assert run(*argv, "--seed", -1) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_spec_seed_names_the_member(tmp_path, capsys):
    spec, out = tmp_path / "spec.json", tmp_path / "s.csv"
    spec.write_text(json.dumps(
        [{"kind": "perturbed_normal", "params": {"dim": 3, "delta": 0.5}, "seed": -1}]
    ))
    assert run("scatter", "--spec", spec, "--seed", 0, "--out", out) == 2
    assert "spec 0: 'seed' must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "dir"
    out.mkdir()
    assert run("gallery", "shift", "--m", 4, "--out", out) == 2
    assert "error:" in capsys.readouterr().err
    assert out.is_dir()


def test_complex_argument_error_names_the_form(tmp_path, capsys):
    assert run("surgery", "remove-disc", "--matrix", tmp_path / "m.json", "--center", "1,x",
               "--radius", 0.1, "--out", tmp_path / "o.json") == 2
    assert "'re' or 're,im'" in capsys.readouterr().err


def test_main_runs_a_handler_replaced_after_the_parser_is_built(tmp_path, monkeypatch):
    # the parser is built once per process; a handler wrapped on the module
    # afterwards (as functools.wraps wrappers do) must still be the one run
    assert run("gallery", "shift", "--m", 2, "--out", tmp_path / "a.json") == 0
    calls = []
    original = cli.cmd_gallery_shift

    @functools.wraps(original)
    def wrapped(args):
        calls.append(args.m)
        original(args)

    monkeypatch.setattr(cli, "cmd_gallery_shift", wrapped)
    assert run("gallery", "shift", "--m", 4, "--out", tmp_path / "b.json") == 0
    assert calls == [4]


_OPTIMIZER_ARGV = {
    "nearest": ("--report", "r.json"),
    "scatter": ("--shift", "2,4", "--out", "s.csv"),
    "truncate": ("--coeffs", "0,0,1", "--K", 4, "--grid", "2,3", "--out", "t.csv"),
}


@pytest.mark.parametrize("flag, value", [
    ("--max-sweeps", -3), ("--obj-tol", "nan"), ("--obj-tol", "inf"), ("--obj-tol", -1e-12),
])
@pytest.mark.parametrize("sub", list(_OPTIMIZER_ARGV))
def test_bad_optimizer_arguments_exit_2(tmp_path, capsys, sub, flag, value):
    mat = tmp_path / "a.json"
    save_matrix(mat, shift_example(4))
    *head, out = _OPTIMIZER_ARGV[sub]
    argv = [sub, *head, tmp_path / out, "--seed", 0, f"{flag}={value}"]
    if sub == "nearest":
        argv += ["--matrix", mat]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("argv, name", [
    (("--eps", 0.3, "--threads", 0), "threads"),
    (("--eps", 0.3, "--threads", -2), "threads"),
    (("--eps", "nan"), "eps"),
    (("--eps", 0.3, "--center", "1e308,0"), "grid corners"),
    (("--eps", 0.3, "--half-width", 1e308), "grid width"),
    (("--eps", 0.3, "--center", "nan,0"), "center"),
])
def test_bad_pseudospec_arguments_exit_2(tmp_path, capsys, argv, name):
    mat = tmp_path / "n.json"
    save_matrix(mat, np.diag([0j, 1 + 0j]))
    assert run("pseudospec", "--matrix", mat, "--resolution", 11, *argv,
               "--out", tmp_path / "ps.csv") == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


# the flags of each spectrum move; its config echoes these and the command
_MOVE_ARGV = {
    "partition": ("partition", "--side", 0.5, "--report", "r.json"),
    "remove-disc": ("surgery", "remove-disc", "--center", "0,0", "--radius", 0.5,
                    "--out", "o.json", "--report", "r.json"),
    "remove-arc": ("surgery", "remove-arc", "--center", "0,0", "--radius", 0.6,
                   "--e-minus=-0.6", "--e-plus", 0.6, "--out", "o.json", "--report", "r.json"),
    "transport": ("surgery", "transport", "--map", "affine", "--a", 0.5, "--b", 0.1,
                  "--out", "o.json", "--report", "r.json"),
    "graph": ("surgery", "graph", "--eps", 0.2, "--out", "o.json", "--report", "r.json"),
}
_MOVE_FLAGS = {
    "partition": {"matrix", "side", "cover", "report", "approx"},
    "remove-disc": {"matrix", "center", "radius", "mu", "out", "report"},
    "remove-arc": {"matrix", "center", "radius", "e_minus", "e_plus", "out", "report"},
    "transport": {"matrix", "map", "a", "b", "center", "radius", "anchor", "out", "report"},
    "graph": {"matrix", "eps", "out", "report"},
}


def _run_move(tmp_path, monkeypatch, op, *extra):
    monkeypatch.chdir(tmp_path)
    save_matrix("n.json", np.diag([0j, 0.2 + 0j, 1.5 + 0j, -1.2 + 0.5j]))
    assert run(*_MOVE_ARGV[op], "--matrix", "n.json", *extra) == 0


@pytest.mark.parametrize("op, extra, builds", [
    ("partition", (), 0),
    ("partition", ("--approx", "o.json"), 1),
    *((op, (), 1) for op in list(_MOVE_ARGV)[1:]),
])
def test_move_output_is_built_only_when_written(tmp_path, monkeypatch, op, extra, builds):
    calls = []
    original = SpectralDecomp.reconstruct

    def counted(self):
        calls.append(self.dim)
        return original(self)

    monkeypatch.setattr(SpectralDecomp, "reconstruct", counted)
    _run_move(tmp_path, monkeypatch, op, *extra)
    assert calls == [4] * builds


@pytest.mark.parametrize("op", list(_MOVE_ARGV))
def test_move_config_echoes_exactly_the_op_flags(tmp_path, monkeypatch, op):
    extra = ("--approx", "o.json") if op == "partition" else ()
    _run_move(tmp_path, monkeypatch, op, *extra)
    config = read_json(tmp_path / "r.json")["config"]
    named = {"command"} if op == "partition" else {"command", "op"}
    assert set(config) == _MOVE_FLAGS[op] | named
    assert load_matrix(tmp_path / "o.json")[1]["config"] == config


@pytest.mark.parametrize("command", [
    "", "gallery", "gallery shift", "gallery pair", "gallery perturbed", "gallery laurent",
    "nearest", "partition", "surgery", "surgery remove-disc", "surgery remove-arc",
    "surgery transport", "surgery graph", "truncate", "pseudospec", "scatter",
])
def test_every_help_exits_0(capsys, command):
    assert run(*command.split(), "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: almostnormal {command}".rstrip())


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
