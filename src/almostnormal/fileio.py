"""Matrix and table serialization.

A native matrix file is one JSON object, {"dim": n, "metadata": {...}} plus
the entries.  Up to n = TEXT_MAX_DIM they are "data": rows of [re, im] pairs
in repr-exact text, coded a row at a time, which a reader can check by eye.
Larger ones, where text cost a third of a command's time, are "c128le": the
little-endian complex128 bytes, row-major, in base64.  CSV matrices made
elsewhere load too; a cell is a real number or a quoted "re,im" pair.
"""

from __future__ import annotations

import binascii
import bisect
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
TEXT_MAX_DIM = 64  # larger matrices are written as base64
_NUMBERS = (int, float, np.integer, np.floating, np.bool_)  # their cells need no CSV quoting


def format_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    return f"{float(x):.17g}"


def _format_cell(value) -> str:
    if type(value) is float:  # most cells: format_float's text without its call
        return f"{value:.17g}"
    if isinstance(value, (bool, np.bool_)):
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
    doc = {"dim": int(a.shape[0]), "metadata": dict(metadata or {})}
    tail = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if len(a) > TEXT_MAX_DIM:  # three rows are 48 n bytes, whole base64 quanta
        parts = [binascii.b2a_base64(np.ascontiguousarray(a[k:k + 3], "<c16"), newline=False).decode()
                 for k in range(0, len(a), 3)]
        return _write_text(path, '{"c128le":"', *parts, '",', tail[1:], "\n")
    parts = []
    for row in np.stack([a.real, a.imag], -1):
        parts += (",", json.dumps(row.tolist(), separators=(",", ":"), allow_nan=False))
    parts[0] = '{"data":['  # "data" sorts before "dim" and "metadata"
    _write_text(path, *parts, "],", tail[1:], "\n")


def _token(text: str, i: int, allowed: str) -> tuple[str, int]:
    """Skip JSON whitespace, then one of `allowed` and whitespace: (that one, next index)."""
    i = json.decoder.WHITESPACE.match(text, i).end()
    if not text.startswith(tuple(allowed), i):
        raise json.JSONDecodeError(f"Expecting one of {allowed!r}", text, i)
    return text[i], json.decoder.WHITESPACE.match(text, i + 1).end()


def _rows(text: str, i: int, decode) -> tuple[np.ndarray, int]:
    """The JSON array at text[i] as (n, n, 2) float64, decoded one row at a time."""
    sep, i = _token(text, i, "[")
    data, k, starts = np.empty((0, 0, 2)), 0, [i]
    while sep != "]":
        cells, i = ([], i) if k == 0 and text.startswith("]", i) else decode(text, i)
        try:
            row = np.array(cells, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix data is not a grid of [re, im] pairs: {exc}") from None
        if k == 0 and not row.size:  # [] or [[]]
            raise ValueError("matrix data is empty")
        if k == 0 and row.ndim:  # n from the first row; no more rows than fit at 5 characters a pair
            data = np.empty((min(len(row), len(text) // (5 * len(row))), len(row), 2))
        if row.shape != data.shape[1:]:
            raise ValueError(f"matrix data row {k} has shape {row.shape}, expected "
                             f"{data.shape[1:]}: n x n [re, im] pairs")
        if k == len(data):  # every row fits the cap from the text, so k is n here
            raise ValueError(f"matrix data has more rows than its {k} columns: n x n [re, im] pairs")
        data[k], k = row, k + 1
        sep, i = _token(text, i, ",]")
        starts.append(i)
    # np.array reads "1.5" as 1.5, true as 1 and null as nan; no JSON number,
    # NaN or Infinity holds any of these characters, and every string, true,
    # false and null does
    found = [p for p in (text.find(c, starts[0], i) for c in '"lru') if p >= 0]
    if found:
        row = bisect.bisect(starts, min(found)) - 1
        raise ValueError(f"matrix data row {row} holds a string, true, false or null, "
                         "not a number: n x n [re, im] pairs")
    return data[:k], i


def _payload(text: str, i: int) -> tuple[memoryview, int]:
    """The base64 string at text[i], decoded a chunk at a time into one buffer."""
    end = text.find('"', i + 1) if text.startswith('"', i) else -1
    if end < 0 or text.find("=", i + 1, end - 2) >= 0:  # a2b_base64 takes a chunk ending in "="
        raise ValueError("matrix c128le payload is not a base64 string padded at its end only")
    buf, pos = memoryview(bytearray((end - i - 1) // 4 * 3)), 0
    for s in range(i + 1, end, 1 << 16):  # chunks of whole 4-character quanta
        try:  # binascii.Error is a ValueError, as is a non-ASCII character
            part = binascii.a2b_base64(text[s:min(s + (1 << 16), end)], strict_mode=True)
        except ValueError as err:
            raise ValueError(f"matrix c128le payload is not base64: {err}") from None
        buf[pos:pos + len(part)], pos = part, pos + len(part)
    return buf[:pos], end + 1


def _matrix_from_json(text: str) -> tuple[np.ndarray, dict]:
    decode, doc = json.JSONDecoder().raw_decode, {}
    sep, i = _token(text, 0, "{")
    sep, i = _token(text, i, "}") if text.startswith("}", i) else (sep, i)  # {} has no data
    while sep != "}":
        if not text.startswith('"', i):
            raise json.JSONDecodeError("Expecting property name", text, i)
        key, i = decode(text, i)
        _, i = _token(text, i, ":")
        by_row = key == "data" and text.startswith("[", i)
        doc[key], i = (_payload(text, i) if key == "c128le"
                       else _rows(text, i, decode) if by_row else decode(text, i))
        sep, i = _token(text, i, ",}")
    if i < len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    if "c128le" in doc:
        raw, dim = doc.pop("c128le"), doc.get("dim")
        if "data" in doc or type(dim) is not int or dim < 1 or len(raw) != 16 * dim * dim:
            raise ValueError(f"a c128le payload ({len(raw)} bytes) needs dim n, 16 n^2 bytes and no 'data'")
        doc["data"] = np.frombuffer(raw, "<f8").reshape(dim, dim, 2).astype(np.float64, copy=False)
    if "data" not in doc:
        raise ValueError("matrix JSON must be an object with a 'data' field")
    data, shape = doc["data"], getattr(doc["data"], "shape", ())  # () unless an array
    if len(shape) != 3 or shape[1:] != (shape[0], 2):
        raise ValueError(f"matrix data has shape {shape}, expected n x n [re, im] pairs")
    dim = doc.get("dim", len(data))
    if type(dim) is not int or dim != len(data):  # a bool is not a dim
        raise ValueError(f"declared dim {dim} does not match data ({len(data)} rows)")
    meta = {} if doc.get("metadata") is None else doc["metadata"]
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
    if stripped[0] != "{":
        return _matrix_from_csv(text)
    try:
        return _matrix_from_json(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


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

    Floats go through format_float so reruns are byte identical.  Rows are
    sequences; a row of numbers is joined directly, others are csv-quoted.
    """
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = [_format_cell(v) for v in row]
        if all(isinstance(v, _NUMBERS) for v in row):
            buf.write(",".join(cells) + "\n")
        else:
            writer.writerow(cells)
    _write_text(path, buf.getvalue())

