#!/usr/bin/env python3
"""Per-layer timings of the almostnormal package, written to BENCH_<short sha>.json.

Run from the repository root:

    python3 bench/layers.py              # the full record, under a minute
    python3 bench/layers.py --quick      # small inputs and one repeat: a smoke test
    python3 bench/layers.py --compare BENCH_a.json BENCH_b.json

Every case calls the package in this checkout's src/ on fixed seeded inputs
and is repeated a fixed number of times; the file keeps each case's median
and quartiles in seconds, and a machine block (cores, numpy, BLAS and its
thread count, commit), the one perfbench records.  BLAS runs on one thread.
Host speed drifts, so a file is a trajectory record: a speed claim still
rests on alternated parent/change runs.  --compare prints each case's
median in both files and their ratio.

The start-up cases time whole fresh processes, with bytecode writing off
as perfbench runs its set-ups: one that imports the CLI, and one that runs
`almostnormal nearest` once; each keeps the almostnormal modules it loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
# perfbench's run.py pins BLAS to one thread before numpy loads
PERFBENCH = runpy.run_path(str(ROOT / "perfbench" / "run.py"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import numpy.linalg as npl  # noqa: E402

import workloads  # noqa: E402
from almostnormal import cli, core, experiments, fileio, nearest  # noqa: E402
from almostnormal.gallery import perturbed_normal, shift_example  # noqa: E402

EPS = 0.1  # the benchmark's pseudospectrum level
THREADS = 2  # pseudospec's pool, as in the benchmark on a 2-core host
# a fresh process: import the CLI, run the command line given, if any, and
# print the almostnormal modules then loaded
STARTUP_PROBE = (
    "import json, sys, almostnormal.cli as cli; "
    "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('almostnormal')))); "
    "sys.exit(code)"
)


def timed(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "repeats": repeats}


def sigma_min_cases(n: int, points: int, repeats: int) -> dict:
    """sigma_min per grid point near the spectrum of perturbed_normal(n, 0.05):
    the SVD path, and the inverse-Lanczos path with the setup pseudospectrum
    gives it (eigendecomposition once), each in the parts pseudospectrum runs
    (_svd_chunk(n) matrices, _lanczos_batch(n) points) and in one stack."""
    a = perturbed_normal(n, 0.05, 1)
    rng = np.random.default_rng(n)
    eig = experiments._lanczos_setup(a, EPS, 0.0, *npl.eig(a))
    assert eig is not None, "kappa(V) past KAPPA_MAX: pseudospectrum would not take this path"
    lam = eig[1]
    zs = lam[rng.integers(0, n, points)] + 0.05 * (rng.standard_normal(points) + 1j * rng.standard_normal(points))
    chunk, step = experiments._svd_chunk(n), experiments._lanczos_batch(n)
    stack = np.empty((chunk, n, n), dtype=complex)
    cases = {
        "svd": lambda: [experiments._sigma_min_batch(a, zs[k:k + chunk], stack) for k in range(0, points, chunk)],
        "lanczos": lambda: [experiments._lanczos_bounds(a, zs[k:k + step], *eig, stack)
                            for k in range(0, points, step)],
    }
    out = {}
    for path, fn in cases.items():
        rec = timed(fn, repeats)
        rec["us_per_point"] = rec["median_s"] / points * 1e6
        out[f"pseudospectrum.sigma_min.{path}.n{n}"] = rec
    return out


def crossover_cases(n: int, resolution: int, repeats: int) -> dict:
    """pseudospectrum on perturbed_normal(n, 0.05) with the Lanczos path forced
    off and on, the comparison behind LANCZOS_MIN_DIM; both paths give the same
    members and `evaluated`."""
    a = perturbed_normal(n, 0.05, 1)
    grid = experiments.GridSpec(center=0j, half_width=npl.norm(a, 2) + 2 * EPS, resolution=resolution)
    out, default = {}, experiments.LANCZOS_MIN_DIM
    try:
        for path, min_dim in (("svd", n + 1), ("lanczos", 1)):
            experiments.LANCZOS_MIN_DIM = min_dim
            rep = experiments.pseudospectrum(a, EPS, grid, threads=THREADS)
            rec = timed(lambda: experiments.pseudospectrum(a, EPS, grid, threads=THREADS), repeats)
            rec.update(members=int(rep.members.size), evaluated=rep.evaluated, svd=rep.svd)
            out[f"pseudospectrum.{path}.n{n}.res{resolution}"] = rec
    finally:
        experiments.LANCZOS_MIN_DIM = default
    return out


def pseudospec_case(n: int, resolution: int, repeats: int) -> dict:
    """The CLI's pseudospec end to end on perturbed_normal(n, 0.05)."""
    with tempfile.TemporaryDirectory() as tmp:
        mat, out = Path(tmp) / "m.json", Path(tmp) / "ps.csv"
        fileio.save_matrix(mat, perturbed_normal(n, 0.05, 1))
        argv = ["pseudospec", "--matrix", str(mat), "--eps", str(EPS), "--resolution", str(resolution),
                "--threads", str(THREADS), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):  # the command's summary lines
            rec = timed(lambda: cli.main(argv), repeats)
        counts = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                      if line[2:].split("=", 1)[0] in ("members", "evaluated", "svd"))
    rec.update({k: int(v) for k, v in counts.items()})
    return {f"cli.pseudospec.n{n}.res{resolution}": rec}


def captured(name: str, argv: list) -> tuple:
    """A copy of the arguments of the first nearest.<name> call that the CLI
    command argv makes."""
    seen, real = [], getattr(nearest, name)

    def spy(*args):
        if not seen:
            seen.append(copy.deepcopy(args))
        return real(*args)

    setattr(nearest, name, spy)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the command's summary line
            cli.main([str(v) for v in argv])
    finally:
        setattr(nearest, name, real)
    return seen[0]


def optimizer_cases(repeats: int, calls: int) -> dict:
    """The optimizer's layers: one Hessian product and one preconditioner
    application at n = 8 and 32 (complex Gaussian B, horizontal X, timed over
    `calls` calls), one _run_sweeps sweep over the stack of the benchmark's
    scatter, and the trust-region finish of its gauss32 start (seed 1)."""
    out, rng = {}, np.random.default_rng(8)
    for n in (8, 32):
        b, z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        hess, x = nearest._Hessian(b), nearest._horizontal(z)
        for name, fn in (("hessian_product", hess), ("precondition", hess.precondition)):
            rec = timed(lambda: [fn(x) for _ in range(calls)], repeats)
            rec["us_per_call"] = rec["median_s"] / calls * 1e6
            out[f"nearest.{name}.n{n}"] = rec
    with tempfile.TemporaryDirectory() as tmp:
        spec, report = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec.write_text(json.dumps(workloads._ensemble_spec(1)))
        w, dims, _, obj_tol, fro2 = captured("_run_sweeps", ["scatter", "--spec", spec, "--seed", 1, "--out", report])
        workloads._setup_nearest(1, Path(tmp))
        finish = captured("_finish", ["nearest", "--matrix", Path(tmp) / "gauss32.json", "--seed", 1,
                                      "--restarts", 1, "--report", report])
    out["nearest.sweep.scatter"] = timed(lambda: nearest._run_sweeps(w.copy(), dims, 1, obj_tol, fro2), repeats)
    a, u, b, history, *rest = finish
    out["nearest.finish.gauss32"] = timed(lambda: nearest._finish(a, u, b, list(history), *rest), repeats)
    return out


def startup_cases(repeats: int) -> dict:
    """Fresh-process `import almostnormal.cli`, and a one-shot
    `almostnormal nearest` on shift_example(8), each timed from outside."""
    src = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        mat = Path(tmp) / "shift8.json"
        fileio.save_matrix(mat, shift_example(8))
        nearest_argv = ["nearest", "--matrix", str(mat), "--seed", "1", "--report", str(Path(tmp) / "r.json")]
        for name, argv in (("import_cli", []), ("nearest.shift8", nearest_argv)):
            loaded = []

            def run():
                proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *argv], env=env,
                                      capture_output=True, text=True, timeout=120, check=True)
                loaded[:] = json.loads(proc.stdout.splitlines()[-1])

            rec = timed(run, repeats)
            rec["modules"] = loaded
            out[f"startup.{name}"] = rec
    return out


def decomposition_case(repeats: int) -> dict:
    """core.normal_spectral_decomp on normal256, the normal n = 256 input of the
    benchmark's spectral workload at seed 1."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads._setup_spectral(1, Path(tmp))
        a, _ = fileio.load_matrix(Path(tmp) / "normal256.json")
    return {"core.normal_spectral_decomp.n256": timed(lambda: core.normal_spectral_decomp(a), repeats)}


def compare(old: Path, new: Path) -> None:
    a, b = (json.loads(p.read_text())["layers"] for p in (old, new))
    for name in sorted(a.keys() & b.keys()):
        ma, mb = a[name]["median_s"], b[name]["median_s"]
        print(f"{name:45s} {ma * 1e3:10.2f} ms {mb * 1e3:10.2f} ms  x{ma / mb:.2f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true", help="small inputs and one repeat")
    p.add_argument("--out-dir", default=str(ROOT), help="where BENCH_<sha>.json goes (default the root)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    repeats, points, resolution = (1, 256, 41) if args.quick else (7, 2048, 201)
    layers = startup_cases(3 if args.quick else 21)
    layers.update(optimizer_cases(repeats, 20 if args.quick else 1000))
    layers.update(decomposition_case(repeats if args.quick else 21))
    for n in (4, 8, 16, 32, 64):
        layers.update(sigma_min_cases(n, points, repeats))
    for n in (4, 8, 12, experiments.LANCZOS_MIN_DIM):  # below the cutoff and at it
        layers.update(crossover_cases(n, resolution, 1 if args.quick else 5))
    for n in (8, 64):  # the CLI on the SVD path alone, and on both
        layers.update(pseudospec_case(n, resolution, 1 if args.quick else 5))
    machine = PERFBENCH["machine_block"](THREADS)
    record = {"quick": args.quick, "machine": machine, "layers": layers}
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(args.out_dir) / f"BENCH_{(machine['commit'] or 'unknown')[:7]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
