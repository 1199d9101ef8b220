"""Benchmark of the almostnormal command line.

Run from the repository root:

    python3 perfbench/run.py --workload nearest-large --seed 1 --seconds 20 --trace 0

One client issues the workload's commands back to back through
``almostnormal.cli.main(argv)`` in this process (a closed loop) and repeats
the whole list until ``--seconds`` have passed, at least twice.  Every input
is generated from ``--seed`` and written to a file before timing starts.
Each artifact is checked, and repeats must write identical bytes.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
tracing off.  Their times are scaled to a fixed host speed, sampled on the
same CPUs while the work runs (see hostspeed.py).  ``--trace 1`` runs the list
once to warm up, once untraced and once with the package's public functions
wrapped (see tracer.py), and reports the per-layer metrics.  A workload whose
commands use one thread runs pinned to one CPU.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
a full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: the CLI's --threads is the
# only parallelism, so the total stays within the core count.  Two BLAS
# threads under a two-thread pool made the pseudospectrum slower, not faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ITERS = 2
# set-ups per run, each in a fresh process; the run reports their median
SETUP_REPEATS = 11
# no new repeat starts if it could end past this many seconds of the run
TIME_LIMIT_S = 150.0
SUBCOMMANDS = ("nearest", "scatter", "truncate", "pseudospec", "partition", "surgery")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", dest="setup_only", metavar="DIR",
                   help="generate the inputs into DIR, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    """Import almostnormal from this checkout's src/ (never an installed copy)."""
    init = SRC / "almostnormal" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import almostnormal
    import almostnormal.cli

    if Path(almostnormal.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported almostnormal from {almostnormal.__file__}")
    import workloads

    return workloads


def workload_of(wl, name):
    if name not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {sorted(wl.WORKLOADS)}")
    return wl.WORKLOADS[name]


# ---------------------------------------------------------------- machine block


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = None
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cli_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------- runs


def run_setups(args, inputs: Path) -> list[tuple[float, float, float]]:
    """Set up in fresh processes (import, generate, write); return each
    one's time and the perf_counter window it ran in."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(inputs)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        times.append((rec["setup_s"], rec["t0"], rec["t1"]))
    return times


def run_iteration(wl, cmds, check, digests, tracer=None) -> list[tuple[str, float, float]]:
    """Issue every command once; return each one's (subcommand, start, end)."""
    import almostnormal.cli

    spans = []
    for cmd in cmds:
        for path in cmd.artifacts:
            path.unlink(missing_ok=True)
        span = tracer.span(f"bench.main.{cmd.sub}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            with span:
                code = almostnormal.cli.main(wl.argv_strings(cmd))
            spans.append((cmd.sub, t0, time.perf_counter()))
        check(f"{' '.join(wl.argv_strings(cmd)[:2])}: exit code 0", code == 0)
        for path in cmd.artifacts:
            if not check(f"{path.name}: written", path.is_file()):
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if path in digests:
                check(f"{path.name}: identical bytes on repeat", digest == digests[path])
            else:
                digests[path] = digest
    return spans


def per_sub(spans, scale=lambda t0, t1: 1.0) -> dict:
    """Wall time per subcommand, each command's time multiplied by scale()."""
    times = defaultdict(float)
    for sub, t0, t1 in spans:
        times[sub] += (t1 - t0) * scale(t0, t1)
    return dict(times)


def check_outputs(wl, cmds, check) -> tuple[float, int]:
    cert = 0.0
    unconverged = 0
    for cmd in cmds:
        # a missing artifact has already failed its "written" check
        if all(p.is_file() for p in cmd.artifacts):
            c, u = wl.check_artifacts(cmd, check)
            cert += c
            unconverged += u
    return cert, unconverged


def measure(args, wl, cmds, started, speed) -> tuple[dict, dict]:
    """Untraced closed loop; return (end-to-end metrics, record)."""
    check = wl.Checks()
    digests = {}
    passes = []
    loop_start = time.perf_counter()
    while True:
        spans = run_iteration(wl, cmds, check, digests)
        passes.append(spans)
        if len(passes) == 1:
            cert, unconverged = check_outputs(wl, cmds, check)
        now = time.perf_counter()
        last = now - spans[0][1]
        if len(passes) >= MIN_ITERS and now - loop_start >= args.seconds:
            break
        if now - started + last > TIME_LIMIT_S:
            break
    speed.load()
    raw = [per_sub(spans) for spans in passes]
    scaled = [per_sub(spans, speed.factor) for spans in passes]
    metrics = {
        "wall_s": statistics.median(sum(t.values()) for t in scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cert_sum": cert,
    }
    sub_medians = {f"{s}_s": statistics.median(t[s] for t in scaled)
                   for s in SUBCOMMANDS if s in scaled[0]}
    record = {"passes": [{"spans": spans, "factors": [speed.factor(t0, t1) for _, t0, t1 in spans]}
                         for spans in passes],
              "wall_unscaled_s": statistics.median(sum(t.values()) for t in raw),
              "subcommand_medians": sub_medians, "unconverged": unconverged, "checks": check}
    return metrics, record


def traced(args, wl, workload, inputs, out, threads) -> tuple[dict, dict]:
    """Set up under the tracer, then run the list to warm up, untraced and
    traced; return (per-layer metrics, record)."""
    import almostnormal.experiments
    from tracer import Tracer, summarize

    tracer = Tracer()
    check = wl.Checks()
    digests = {}
    tracer.install()
    with tracer.span("bench.setup"):
        workload.setup(args.seed, inputs)
    tracer.uninstall()
    cmds = workload.commands(args.seed, inputs, out, threads)
    # the first pass warms caches and the allocator, so that neither timed
    # pass pays first-run costs the other does not
    run_iteration(wl, cmds, check, digests)
    check_outputs(wl, cmds, check)
    untraced = per_sub(run_iteration(wl, cmds, check, digests))
    tracer.install()
    traced_times = per_sub(run_iteration(wl, cmds, check, digests, tracer))
    tracer.uninstall()
    wall_untraced = sum(untraced.values())
    wall_traced = sum(traced_times.values())

    stats, counts = summarize(tracer.spans, lambda root: root.startswith("bench.main."))
    # The package's own top-level spans, the cli.cmd_* handlers, must account
    # for the traced wall time (the untraced wall_s plus trace.overhead_s)
    # but for main()'s argument parsing.  A handler that the tracer failed to
    # wrap leaves its time uncovered.
    roots = {r[0] for r in tracer.spans if r[1] is None and r[2].startswith("bench.main.")}
    top = sum(r[4] - r[3] for r in tracer.spans if r[1] in roots and r[2].startswith("cli.cmd_"))
    check("trace: cli.cmd_* spans cover the traced wall time within 2%",
          wall_traced - top <= 0.02 * wall_traced)

    def stat(name, key):
        return stats[name][key] if name in stats else 0

    def busy(name):
        return stat(name, "busy_s")

    m = {}
    for sub in SUBCOMMANDS:
        root = f"bench.main.{sub}"  # main(): argparse and dispatch
        sub_stats, _ = summarize(tracer.spans, lambda r, root=root: r == root)
        m[f"cli.{sub}.self_s"] = sum(st["self_s"] for n, st in sub_stats.items()
                                     if n == root or n.startswith("cli."))
    calls = stat("nearest.nearest_normal", "calls")
    sweeps = counts["nearest.sweeps"]
    converged = counts["nearest.converged"]
    m["nearest.nearest_normal.self_s"] = stat("nearest.nearest_normal", "self_s")
    m["nearest.sweeps"] = sweeps
    m["nearest.s_per_sweep"] = busy("nearest.nearest_normal") / sweeps if sweeps else 0.0
    m["nearest.converged_ratio"] = converged / calls if calls else 0.0
    m["nearest.unconverged"] = calls - converged
    m["nearest.commutator_lower_bound.busy_s"] = busy("nearest.commutator_lower_bound")
    m["core.schatten_norm.calls"] = stat("core.schatten_norm", "calls")
    for name in ("core.schatten_norm", "core.self_commutator", "core.normal_spectral_decomp",
                 "experiments.pseudospectrum", "experiments.verify_truncation_bounds",
                 "partition.square_cover", "partition.resolution_of_identity",
                 "surgery.graph_normal_approx", "surgery.remove_region",
                 "fileio.load_matrix", "fileio.save_matrix", "fileio.write_report",
                 "fileio.write_csv", "gallery.materialize"):
        m[f"{name}.busy_s"] = busy(name)
    for name in ("experiments.f_scatter", "experiments.truncation_scaling"):
        m[f"{name}.self_s"] = stat(name, "self_s")
    points = counts["experiments.pseudospectrum.points"]
    m["experiments.pseudospectrum.points"] = points
    m["experiments.pseudospectrum.members"] = counts["experiments.pseudospectrum.members"]
    m["experiments.pseudospectrum.us_per_point"] = (
        busy("experiments.pseudospectrum") / points * 1e6 if points else 0.0)
    m["experiments.pseudospectrum.serial_s"] = 0.0
    m["experiments.pseudospectrum.thread_speedup"] = 0.0
    if "experiments.pseudospectrum" in tracer.last_args:
        # the same call at threads=1: does the thread pool still pay?
        call_args, call_kwargs = tracer.last_args["experiments.pseudospectrum"]
        t0 = time.perf_counter()
        serial = almostnormal.experiments.pseudospectrum(*call_args, **{**call_kwargs, "threads": 1})
        serial_s = time.perf_counter() - t0
        m["experiments.pseudospectrum.serial_s"] = serial_s
        m["experiments.pseudospectrum.thread_speedup"] = serial_s / busy("experiments.pseudospectrum")
        check("pseudospec: threads=1 finds the same members",
              serial.members.size == counts["experiments.pseudospectrum.members"])
    for key in ("partition.regions", "partition.empty_regions", "partition.projection_bytes",
                "surgery.moved", "fileio.load_matrix.bytes", "fileio.save_matrix.bytes"):
        m[key] = counts[key]
    setup_stats, _ = summarize(tracer.spans, lambda root: root == "bench.setup")
    m["gallery.setup_busy_s"] = sum(st["busy_s"] for n, st in setup_stats.items()
                                    if n.startswith("gallery."))
    m["trace.overhead_s"] = wall_traced - wall_untraced

    spans_path = inputs.parent / "spans.json"
    spans_path.write_text(json.dumps(
        [dict(zip(("id", "parent", "name", "start", "end", "counts"), r)) for r in tracer.spans]
    ) + "\n")
    record = {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
              "untraced": untraced, "traced": traced_times, "cmd_spans_s": top,
              "spans": str(spans_path), "checks": check}
    return m, record


def emit(spec_metrics, values: dict, check, record: dict, path: Path) -> None:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    result = {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": metrics,
    }
    record = {**record, "checks": {"attempted": check.attempted, "failures": check.failures},
              "result": result}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for failure in check.failures:
        print(f"# FAILED: {failure}")
    for key, val in record.get("subcommand_medians", {}).items():
        print(f"# {key} = {val:.6g}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(json.dumps(result))


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.setup_only:
        wl = import_package()
        inputs = Path(args.setup_only)
        inputs.mkdir(parents=True, exist_ok=True)
        workload_of(wl, args.workload).setup(args.seed, inputs)
        ended = time.perf_counter()
        print(json.dumps({"setup_s": ended - started, "t0": started, "t1": ended}))
        return 0

    os.chdir(ROOT)
    spec_path = Path("BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    # fail before the long set-up when the package is missing
    wl = import_package()
    workload = workload_of(wl, args.workload)
    threads = min(2, len(os.sched_getaffinity(0)))
    machine = machine_block(threads)
    # one CPU for single-threaded commands, so that the host speed sampled on
    # that CPU is the speed they ran at
    cpus = sorted(os.sched_getaffinity(0))[: threads if workload.threaded else 1]
    os.sched_setaffinity(0, cpus)
    machine["cpus_pinned"] = cpus
    work = Path(".perfbench") / args.workload
    inputs, out = work / "inputs", work / "out"
    for d in (inputs, out):
        d.mkdir(parents=True, exist_ok=True)
        for f in d.iterdir():
            f.unlink()
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine}
    results = Path(".perfbench") / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    if args.trace:
        values, record = traced(args, wl, workload, inputs, out, threads)
        emit(spec["per_layer"], values, record.pop("checks"), {**base, **record}, results)
        return 0

    with HostSpeed(cpus, work) as speed:
        setups = run_setups(args, inputs)
        cmds = workload.commands(args.seed, inputs, out, threads)
        values, record = measure(args, wl, cmds, started, speed)
    values["setup_s"] = statistics.median(t * speed.factor(t0, t1) for t, t0, t1 in setups)
    record["setup_runs_s"] = setups
    record["setup_unscaled_s"] = statistics.median(t for t, _, _ in setups)
    emit(spec["end_to_end"], values, record.pop("checks"), {**base, **record}, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
