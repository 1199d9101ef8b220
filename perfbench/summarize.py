"""Summarize benchmark records: median and quartiles per workload and metric.

Run from the repository root after some ``perfbench/run.py`` runs:

    python3 perfbench/summarize.py [--out FILE]

Reads every record in ``.perfbench/results/``.  For each workload and metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median, over the seeds that were run.  The
unscaled times of the end-to-end records, ``wall_unscaled_s`` and
``setup_unscaled_s``, are summarized beside the metrics.
``--out`` also writes the summary, with each run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(records) -> dict:
    values = defaultdict(lambda: defaultdict(dict))
    machine = None
    for rec in records:
        machine = rec["machine"]
        for name, metric in rec["result"]["metrics"].items():
            values[rec["workload"]][name][rec["seed"]] = metric["value"]
        for name in ("wall_unscaled_s", "setup_unscaled_s"):
            if name in rec:
                values[rec["workload"]][name][rec["seed"]] = rec[name]
        values[rec["workload"]]["failed"][rec["seed"]] = rec["result"]["failed"]
    out = {"machine": machine, "workloads": {}}
    for workload, metrics in sorted(values.items()):
        rows = {}
        for name, by_seed in metrics.items():
            vals = list(by_seed.values())
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "runs": {str(s): v for s, v in sorted(by_seed.items())}}
        out["workloads"][workload] = rows
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)
    paths = sorted(Path(".perfbench/results").glob("*.json"))
    if not paths:
        raise SystemExit("error: no records in .perfbench/results; run perfbench/run.py first")
    records = [json.loads(p.read_text()) for p in paths]
    summary = {}
    for trace in (0, 1):
        chosen = [r for r in records if r["trace"] == trace]
        if chosen:
            summary["end_to_end" if trace == 0 else "per_layer"] = summarize(chosen)
    for kind, block in summary.items():
        for workload, rows in block["workloads"].items():
            for name, row in rows.items():
                print(f"{kind:10s} {workload:15s} {name:45s} n={len(row['runs']):2d} "
                      f"median={row['median']:<12.6g} spread={row['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
