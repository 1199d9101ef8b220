"""The layer bench script runs end to end and writes its record."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from almostnormal import experiments

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layer_bench_quick_run_writes_a_record_that_compares(tmp_path):
    run = [sys.executable, str(SCRIPT)]
    proc = subprocess.run([*run, "--quick", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    record = json.loads(path.read_text())
    assert record["quick"] is True
    assert {"cpus", "numpy", "blas", "blas_threads", "commit"} <= record["machine"].keys()
    assert record["machine"]["blas_threads"] in (1, None)  # pinned, where OpenBLAS says
    paths, cut = ("svd", "lanczos"), experiments.LANCZOS_MIN_DIM
    names = {f"pseudospectrum.sigma_min.{path}.n{n}" for path in paths for n in (4, 8, 16, 32, 64)}
    crossover = (4, 8, 12, cut)
    names |= {f"pseudospectrum.{path}.n{n}.res41" for path in paths for n in crossover}
    names |= {f"nearest.{layer}.n{n}" for layer in ("hessian_product", "precondition") for n in (8, 32)}
    names |= {"nearest.sweep.scatter", "nearest.finish.gauss32"}
    names |= {"startup.import_cli", "startup.nearest.shift8", "core.normal_spectral_decomp.n256"}
    assert record["layers"].keys() == names | {"cli.pseudospec.n8.res41", "cli.pseudospec.n64.res41"}
    for case in record["layers"].values():
        assert 0 < case["q1_s"] <= case["median_s"] <= case["q3_s"]
    for n in crossover:  # forcing a path moves the SVD count only
        svd, lanczos = (record["layers"][f"pseudospectrum.{path}.n{n}.res41"] for path in paths)
        assert (svd["members"], svd["evaluated"]) == (lanczos["members"], lanczos["evaluated"])
        assert svd["svd"] == svd["evaluated"] and lanczos["svd"] < lanczos["evaluated"]
    # the CLI loads the optimizer and the experiments only for a command that runs them
    cli_modules, nearest_modules = (set(record["layers"][f"startup.{case}"]["modules"])
                                    for case in ("import_cli", "nearest.shift8"))
    assert "almostnormal.cli" in cli_modules and not {"almostnormal.nearest", "almostnormal.experiments"} & cli_modules
    assert nearest_modules - cli_modules == {"almostnormal.nearest"}
    small, large = record["layers"]["cli.pseudospec.n8.res41"], record["layers"]["cli.pseudospec.n64.res41"]
    assert small["svd"] == small["evaluated"]  # below LANCZOS_MIN_DIM
    assert large["members"] <= large["evaluated"] and large["svd"] < large["evaluated"]
    proc = subprocess.run([*run, "--compare", str(path), str(path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == len(record["layers"]) and all(line.endswith("x1.00") for line in proc.stdout.splitlines())
