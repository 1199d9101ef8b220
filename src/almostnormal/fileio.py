"""Matrix and table serialization.

The native matrix format is JSON: {"dim": n, "metadata": {...}, "data": rows}
where every entry is a [re, im] pair.  Floats are written with repr fidelity
so a save/load round trip is bit exact.  Encoding is one (n, n, 2) float64
array's tolist(); decoding is one numpy conversion of "data" plus a shape
check.  A plain CSV reader is provided for matrices produced elsewhere;
cells are either a real number or a quoted "re,im" pair.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import stat

import numpy as np

from .core import as_cmatrix

ARTIFACT_VERSION = "almostnormal 0.1.0"


def format_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    return f"{float(x):.17g}"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def _write_text(path, *parts: str) -> None:
    """Write the parts to path as a new file.  A writable regular file there is
    unlinked first: a rewrite skips truncating its blocks, and a hard link or
    open reader keeps the old bytes.  The one place the package opens to write."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)


def save_matrix(path, a, metadata=None) -> None:
    a = as_cmatrix(a)
    data = np.stack([a.real, a.imag], -1).tolist()
    doc = {"dim": int(a.shape[0]), "metadata": dict(metadata or {}), "data": data}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    _write_text(path, text, "\n")


def _matrix_from_json(doc) -> tuple[np.ndarray, dict]:
    if not isinstance(doc, dict) or "data" not in doc:
        raise ValueError("matrix JSON must be an object with a 'data' field")
    try:
        data = np.array(doc["data"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix data is not a grid of [re, im] pairs: {exc}") from None
    if data.size == 0:
        raise ValueError("matrix data is empty")
    if data.ndim != 3 or data.shape[1:] != (data.shape[0], 2):
        raise ValueError(f"matrix data has shape {data.shape}, expected n x n [re, im] pairs")
    n = len(data)
    if doc.get("dim", n) != n:
        raise ValueError(f"declared dim {doc['dim']} does not match data ({n} rows)")
    meta = doc.get("metadata") or {}
    if not isinstance(meta, dict):
        raise ValueError("matrix metadata must be an object")
    return as_cmatrix(data.view(np.complex128)[..., 0]), meta


def parse_complex(text: str, what: str) -> complex:
    """'re' or 're,im' as a complex number; raises ValueError naming `what`."""
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*map(float, parts))
    except ValueError:
        pass
    raise ValueError(f"cannot parse {what} {text!r}: expected 're' or 're,im'")


def _matrix_from_csv(text: str) -> tuple[np.ndarray, dict]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError("matrix CSV is empty")
    n = len(rows)
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} cells, expected {n} (square)")
        for j, cell in enumerate(row):
            out[i, j] = parse_complex(cell.strip(), f"matrix cell ({i},{j})")
    return as_cmatrix(out), {}


def load_matrix(path) -> tuple[np.ndarray, dict]:
    """Load a matrix from JSON (native) or CSV, sniffed from content."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: file is empty")
    if stripped[0] == "{":
        return _matrix_from_json(json.loads(text))
    return _matrix_from_csv(text)


def _sanitize(value):
    """JSON cannot carry inf/nan; encode them as strings."""
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return [_sanitize(value.real), _sanitize(value.imag)]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value

def write_report(path, payload: dict) -> None:
    """Deterministic JSON report: sorted keys, repr floats, sanitized inf."""
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False)
    _write_text(path, text, "\n")


def write_csv(path, columns, rows, comments=()) -> None:
    """Write a CSV table with optional leading '# ' comment lines.

    Floats go through format_float so reruns are byte identical.
    """
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    _write_text(path, buf.getvalue())

