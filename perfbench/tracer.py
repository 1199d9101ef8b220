"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records a span (id, parent id, name, start, end, counts)
in memory.  A function is patched at its module and at every module that
bound it with ``from .x import y``, so no call escapes the wrapper.  Per-pivot
helpers (``adjoint``, ``as_cmatrix``) are left alone: wrapping them would
measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "almostnormal"


def _pseudospectrum_counts(args, kwargs, rep):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return {
        "experiments.pseudospectrum.points": grid.resolution ** 2,
        "experiments.pseudospectrum.members": rep.members.size,
    }


def _roi_counts(args, kwargs, roi):
    sizes = np.bincount(roi.assignment, minlength=len(roi.cover))
    return {
        "partition.projection_bytes": sum(p.nbytes for p in roi.projections),
        "partition.empty_regions": int((sizes == 0).sum()),
    }


# module -> {function: counts(args, kwargs, result) -> dict, or None}
TARGETS = {
    "cli": {},  # every cmd_* handler, filled in at install time
    "core": dict.fromkeys(
        ("operator_norm", "normality_defect", "self_commutator", "schatten_norm",
         "normal_spectral_decomp")
    ),
    "nearest": {
        "nearest_normal": lambda a, k, r: {
            "nearest.sweeps": r.sweeps, "nearest.converged": int(r.converged),
        },
        "commutator_lower_bound": None,
    },
    "experiments": {
        "pseudospectrum": _pseudospectrum_counts,
        "f_scatter": None,
        "truncation_scaling": None,
        "verify_truncation_bounds": None,
        "laurent_truncation_model": None,
    },
    "partition": {
        "square_cover": lambda a, k, r: {"partition.regions": len(r.regions)},
        "resolution_of_identity": _roi_counts,
        "finite_spectrum_approx": None,
    },
    "surgery": {
        "graph_normal_approx": None,
        "remove_region": lambda a, k, r: {"surgery.moved": r.moved_count},
    },
    "fileio": {
        "load_matrix": lambda a, k, r: {"fileio.load_matrix.bytes": os.path.getsize(a[0])},
        "save_matrix": lambda a, k, r: {"fileio.save_matrix.bytes": os.path.getsize(a[0])},
        "write_report": None,
        "write_csv": None,
    },
    "gallery": dict.fromkeys(
        ("materialize", "shift_example", "almost_commuting_pair", "perturbed_normal",
         "laurent_multiplication")
    ),
}


class Tracer:
    """Keeps spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, counts]
        self.last_args = {}  # name -> (args, kwargs) of its latest call
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a call into the package."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [len(self.spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
        self.spans.append(rec)
        stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name: str, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.last_args[name] = (args, kwargs)
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for short, funcs in TARGETS.items():
            mod = sys.modules[prefix + short]
            if short == "cli":
                funcs = {n: None for n in vars(mod) if n.startswith("cmd_")}
            for fname, counts in funcs.items():
                original = getattr(mod, fname)
                wrapper = self._wrap(original, f"{short}.{fname}", counts)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans, keep_root) -> tuple[dict, dict]:
    """Calls, busy and self time per span name, and summed counts, over the
    span trees whose root name passes ``keep_root``.

    Busy time counts a name once where it nests inside itself; self time
    subtracts the part of a span that its child spans cover.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[1] is not None:
            children[rec[1]].append(rec)
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    counts = defaultdict(float)

    def visit(rec, open_names):
        st = stats[rec[2]]
        dur = rec[4] - rec[3]
        st["calls"] += 1
        if rec[2] not in open_names:
            st["busy_s"] += dur
        kids = children[rec[0]]
        st["self_s"] += dur - _covered((k[3], k[4]) for k in kids)
        for key, val in (rec[5] or {}).items():
            counts[key] += val
        for k in kids:
            visit(k, open_names | {rec[2]})

    for rec in spans:
        if rec[1] is None and keep_root(rec[2]):
            visit(rec, frozenset())
    return stats, counts
