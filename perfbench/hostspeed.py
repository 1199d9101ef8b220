"""Host speed sampled next to the benchmark's work, on the same CPUs.

The host runs this benchmark's vCPUs at speeds that differ by up to about
1.5x, switching every few seconds, and the two vCPUs switch independently.
Process CPU time moves with wall time (there is no steal time), so neither
clock hides it.  A sampler process pinned to each CPU the work runs on wakes
every ``INTERVAL_S`` and times a fixed task (small complex matrix products,
the kind of work the optimizer does) in its own CPU time.  A stretch of work
from ``t0`` to ``t1`` is then scaled by ``NOMINAL_S`` over the mean task time
of the samples taken within it: the time the work would have taken on a host
that runs the task in ``NOMINAL_S``.

Run as a script, this file is the sampler:

    python3 perfbench/hostspeed.py CPU OUT_FILE

It appends one ``<perf_counter start> <task CPU seconds>`` line per sample to
OUT_FILE and exits when its parent does.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.05
TASK_STEPS = 100
WARM_STEPS = 20
# the timed task's CPU time on this host in its fast state (Xeon at 2.0 GHz)
NOMINAL_S = 0.0012
# a window with fewer samples than this takes the ones nearest its middle
MIN_SAMPLES = 4


def _task(m0, steps: int) -> None:
    import numpy as np

    m = m0
    for _ in range(steps):
        m = m @ m.conj().T
        m /= np.linalg.norm(m)


def _sample(cpu: int, out: Path) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    rng = np.random.default_rng(0)
    m0 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    _task(m0, TASK_STEPS)
    with open(out, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            # warm the caches the work has just used, so that the timed task
            # measures the host and not how much the work evicted
            _task(m0, WARM_STEPS)
            start = time.perf_counter()
            c0 = time.thread_time()
            _task(m0, TASK_STEPS)
            fh.write(f"{start!r} {time.thread_time() - c0!r}\n")
            fh.flush()


class HostSpeed:
    """Samplers on ``cpus`` for the life of a ``with`` block."""

    def __init__(self, cpus, workdir: Path):
        self.cpus = sorted(cpus)
        self.files = [workdir / f"hostspeed-cpu{c}.txt" for c in self.cpus]
        self.procs = []
        self.samples = []

    def __enter__(self):
        for cpu, path in zip(self.cpus, self.files):
            path.unlink(missing_ok=True)
            self.procs.append(subprocess.Popen([sys.executable, __file__, str(cpu), str(path)]))
        # wait for every sampler's first sample, so no work goes unsampled
        deadline = time.monotonic() + 60.0
        while not all(p.is_file() and p.stat().st_size for p in self.files):
            if time.monotonic() > deadline or any(p.poll() is not None for p in self.procs):
                self.stop()
                raise SystemExit("error: host speed sampler did not start")
            time.sleep(INTERVAL_S)
        return self

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()
        self.procs = []

    def __exit__(self, *exc):
        self.stop()

    def load(self) -> None:
        """Read every sample taken so far."""
        samples = []
        for path in self.files:
            for line in path.read_text(encoding="utf-8").splitlines():
                parts = line.split()
                if len(parts) == 2:  # skip a line cut short by a stop
                    samples.append((float(parts[0]), float(parts[1])))
        self.samples = sorted(samples)

    def factor(self, t0: float, t1: float) -> float:
        """Scale for work that ran from ``t0`` to ``t1`` (perf_counter)."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        return NOMINAL_S / statistics.mean(inside)


if __name__ == "__main__":
    _sample(int(sys.argv[1]), Path(sys.argv[2]))
