"""Inputs, command lists and output checks of the benchmark workloads.

Every input is generated from the workload seed and written to a file; the
program sees only those files and its argv.  Each workload runs its commands
back to back from one client (a closed loop).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from almostnormal import fileio, gallery

SHIFT_M = 32
GAUSS_N = 32
SPECTRAL_N = 256
PSEUDO_N = 32
PSEUDO_EPS = 0.1
DISC_ANCHOR = 0.2 - 0.1j
DISC_RADIUS = 0.3


@dataclass(frozen=True)
class Command:
    sub: str
    argv: tuple
    artifacts: tuple
    # the certified value the report must give, where it is known exactly
    expect: float | None = None


class Checks:
    """Counts checked outcomes; each failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


# ---------------------------------------------------------------- inputs


def _setup_nearest(seed: int, inp: Path) -> None:
    fileio.save_matrix(inp / "shift32.json", gallery.shift_example(SHIFT_M))
    rng = np.random.default_rng([seed, 1])
    z = rng.standard_normal((GAUSS_N, GAUSS_N)) + 1j * rng.standard_normal((GAUSS_N, GAUSS_N))
    fileio.save_matrix(inp / "gauss32.json", z / np.linalg.norm(z, 2))


def _ensemble_spec(seed: int) -> list[dict]:
    # Dimensions are fixed so every seed does similar optimizer work; the
    # seed picks the perturbed normals and the optimizer's restart bases.
    member_seeds = np.random.default_rng([seed, 2]).integers(0, 2**31, size=6)
    specs = [{"kind": "shift_example", "params": {"m": m}} for m in (2, 4, 6, 8, 10, 12)]
    specs += [{"kind": "almost_commuting_pair", "params": {"m": m}} for m in (2, 4, 6, 8, 10)]
    specs += [
        {"kind": "perturbed_normal", "params": {"dim": d, "delta": 0.5}, "seed": int(s)}
        for d, s in zip((3, 4, 5, 6, 8, 10), member_seeds)
    ]
    specs += [
        {"kind": "laurent_multiplication", "params": {"coeffs": [0, 0, 1], "K": 3}},
        {"kind": "laurent_multiplication", "params": {"coeffs": [0.25, 0.5, 1], "K": 5}},
    ]
    return specs


def _setup_ensemble(seed: int, inp: Path) -> None:
    (inp / "spec.json").write_text(json.dumps(_ensemble_spec(seed), indent=1) + "\n")


def _setup_spectral(seed: int, inp: Path) -> None:
    rng = np.random.default_rng([seed, 3])
    s_normal, s_pert = (int(s) for s in rng.integers(0, 2**31, size=2))
    a = gallery.perturbed_normal(SPECTRAL_N, 0.0, s_normal)
    fileio.save_matrix(inp / "normal256.json", a)
    fileio.save_matrix(inp / "pert32.json", gallery.perturbed_normal(PSEUDO_N, 0.05, s_pert))
    # The disc is centred on an eigenvalue, so the largest push is the radius
    # on every seed and the certified perturbation does not vary with it.
    eigs = np.linalg.eigvals(a)
    z = complex(eigs[np.argmin(np.abs(eigs - DISC_ANCHOR))])
    (inp / "disc_center.txt").write_text(f"{z.real!r},{z.imag!r}\n")


# ---------------------------------------------------------------- commands


def _commands_nearest(seed, inp, out, threads):
    return [
        # criterion 01's instance: shift m=32, seed 0, two restarts
        Command(
            "nearest",
            ("nearest", "--matrix", inp / "shift32.json", "--seed", 0, "--restarts", 2,
             "--report", out / "near_shift.json"),
            (out / "near_shift.json",),
            expect=math.sqrt(SHIFT_M / 4.0),
        ),
        Command(
            "nearest",
            ("nearest", "--matrix", inp / "gauss32.json", "--seed", seed, "--restarts", 1,
             "--report", out / "near_gauss.json"),
            (out / "near_gauss.json",),
        ),
    ]


def _commands_ensemble(seed, inp, out, threads):
    return [
        Command(
            "scatter",
            ("scatter", "--spec", inp / "spec.json", "--seed", seed, "--out", out / "scatter.csv"),
            (out / "scatter.csv",),
        ),
        Command(
            "truncate",
            ("truncate", "--coeffs", "0,0,1", "--K", 16, "--grid", "2,3,4,5,6,7,8",
             "--seed", seed, "--out", out / "truncate.csv"),
            (out / "truncate.csv",),
        ),
    ]


def _commands_spectral(seed, inp, out, threads):
    mat = inp / "normal256.json"
    return [
        Command(
            "partition",
            ("partition", "--matrix", mat, "--side", 0.02, "--report", out / "partition.json"),
            (out / "partition.json",),
        ),
        Command(
            "surgery",
            ("surgery", "graph", "--matrix", mat, "--eps", 0.05,
             "--out", out / "graph.json", "--report", out / "graph_report.json"),
            (out / "graph.json", out / "graph_report.json"),
        ),
        Command(
            "surgery",
            ("surgery", "remove-disc", "--matrix", mat,
             "--center", (inp / "disc_center.txt").read_text().strip(),
             "--radius", DISC_RADIUS, "--out", out / "disc.json", "--report", out / "disc_report.json"),
            (out / "disc.json", out / "disc_report.json"),
            # the eigenvalue at the centre is pushed out by the whole radius
            expect=DISC_RADIUS,
        ),
        Command(
            "pseudospec",
            ("pseudospec", "--matrix", inp / "pert32.json", "--eps", PSEUDO_EPS,
             "--resolution", 201, "--threads", threads, "--out", out / "pseudospec.csv"),
            (out / "pseudospec.csv",),
        ),
    ]


@dataclass(frozen=True)
class Workload:
    setup: object
    commands: object
    # whether a command runs more than one thread (pseudospec --threads)
    threaded: bool = False


WORKLOADS = {
    "nearest-large": Workload(_setup_nearest, _commands_nearest),
    "ensemble-small": Workload(_setup_ensemble, _commands_ensemble),
    "spectral": Workload(_setup_spectral, _commands_spectral, threaded=True),
}


def argv_strings(cmd: Command) -> list[str]:
    return [str(x) for x in cmd.argv]


# ---------------------------------------------------------------- checks


def _csv_rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(body))


def _read_matrix(path: Path) -> np.ndarray:
    data = np.asarray(json.loads(Path(path).read_text())["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


def _check_pseudospec(path: Path, check: Checks) -> None:
    """Membership on a fixed sample of grid points against a direct SVD."""
    comments, rows = _csv_rows(path)
    cfg = json.loads(next(c for c in comments if c.startswith("config="))[len("config="):])
    a = _read_matrix(Path(cfg["matrix"]))
    eps = float(cfg["eps"])
    center = complex(*cfg["center"])
    hw = float(cfg["half_width"])
    res = int(cfg["resolution"])
    xs = np.linspace(center.real - hw, center.real + hw, res)
    ys = np.linspace(center.imag - hw, center.imag + hw, res)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    members = {(float(r["re"]), float(r["im"])) for r in rows}
    member_idx = [k for k, z in enumerate(zs) if (z.real, z.imag) in members]
    check("pseudospec: every member is a grid point", len(member_idx) == len(members))
    sample = set(range(0, zs.size, 157)) | set(member_idx[:: max(1, len(member_idx) // 64)])
    eye = np.eye(a.shape[0])
    for k in sorted(sample):
        smin = np.linalg.svd(a - zs[k] * eye, compute_uv=False)[-1]
        if abs(smin - eps) <= 1e-9 * eps:
            continue  # too close to eps to call either way
        inside = (zs[k].real, zs[k].imag) in members
        check(f"pseudospec: grid point {k} membership", bool(smin < eps) == inside)


def check_artifacts(cmd: Command, check: Checks) -> tuple[float, int]:
    """Check one command's artifacts; return (certified distance sum, unconverged)."""
    cert = 0.0
    unconverged = 0
    if cmd.sub == "nearest":
        rep = json.loads(Path(cmd.artifacts[0]).read_text())
        cert += rep["frobenius_exact"]
        unconverged += not rep["converged"]
        for p, lb in rep["lower_bounds"].items():
            check(f"nearest: lower bound p={p} <= distance", lb <= rep["distances"][p] + 1e-9)
        if cmd.expect is not None:
            err = abs(rep["frobenius_exact"] - cmd.expect)
            check("nearest: shift distance is sqrt(m/4)", err <= 1e-7 * cmd.expect)
    elif cmd.sub == "scatter":
        _, rows = _csv_rows(cmd.artifacts[0])
        check("scatter: rows present", len(rows) > 0)
        for i, r in enumerate(rows):
            cert += float(r["dist_frob_exact"])
            check(f"scatter: row {i} witness distance above its floor",
                  float(r["dist_op_witness"]) >= float(r["lower_bound_op"]) - 1e-9)
    elif cmd.sub == "truncate":
        _, rows = _csv_rows(cmd.artifacts[0])
        check("truncate: rows present", len(rows) > 0)
        for r in rows:
            cert += float(r["dist1_witness"])
            check(f"truncate: lambda={r['lambda']} passed", r["passed"] == "1")
    elif cmd.sub == "partition":
        rep = json.loads(Path(cmd.artifacts[0]).read_text())
        cert += rep["error_actual"]
        check("partition: error within bound", rep["error_actual"] <= rep["error_bound"])
    elif cmd.sub == "surgery":
        rep = json.loads(Path(cmd.artifacts[-1]).read_text())
        cert += rep["perturbation_norm"]
        check(f"surgery {cmd.argv[1]}: perturbation within bound",
              rep["perturbation_norm"] <= rep["bound"])
        if cmd.expect is not None:
            err = abs(rep["perturbation_norm"] - cmd.expect)
            check(f"surgery {cmd.argv[1]}: perturbation is the radius", err <= 1e-9 * cmd.expect)
    elif cmd.sub == "pseudospec":
        _check_pseudospec(Path(cmd.artifacts[0]), check)
    return cert, unconverged
