"""Matrix and table serialization.

A native matrix file is one JSON object, {"dim": n, "metadata": {...}} plus
the entries.  Up to n = TEXT_MAX_DIM they are "data": rows of [re, im] pairs
in repr-exact text, which a reader can check by eye.
Larger ones, where text cost a third of a command's time, are "c128le": the
little-endian complex128 bytes, row-major, in base64.  CSV matrices made
elsewhere load too; a cell is a real number or a quoted "re,im" pair.
"""

from __future__ import annotations

import binascii
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


def _payload(text) -> memoryview:
    """The base64 string `text`, decoded a chunk at a time into one buffer."""
    # a2b_base64 would take a chunk that ends in "=", so padding is checked here
    if not isinstance(text, str) or text.find("=", 0, len(text) - 2) >= 0:
        raise ValueError("matrix c128le payload is not a base64 string padded at its end only")
    buf, pos = memoryview(bytearray(len(text) // 4 * 3)), 0
    for s in range(0, len(text), 1 << 16):  # chunks of whole 4-character quanta
        try:  # binascii.Error is a ValueError, as is a non-ASCII character
            part = binascii.a2b_base64(text[s:s + (1 << 16)], strict_mode=True)
        except ValueError as err:
            raise ValueError(f"matrix c128le payload is not base64: {err}") from None
        buf[pos:pos + len(part)], pos = part, pos + len(part)
    return buf[:pos]


def _matrix_from_json(doc: dict) -> tuple[np.ndarray, dict]:
    if "c128le" in doc:
        raw, dim = _payload(doc.pop("c128le")), doc.get("dim")
        if "data" in doc or type(dim) is not int or dim < 1 or len(raw) != 16 * dim * dim:
            raise ValueError(f"a c128le payload ({len(raw)} bytes) needs dim n, 16 n^2 bytes and no 'data'")
        data = np.frombuffer(raw, "<f8").reshape(dim, dim, 2).astype(np.float64, copy=False)
    elif "data" not in doc:
        raise ValueError("matrix JSON must be an object with a 'data' field")
    else:
        try:
            data = np.array(doc["data"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix data is not a grid of [re, im] pairs: {exc}") from None
        if not data.size:  # [] or [[]]
            raise ValueError("matrix data is empty")
        if data.ndim > 1 and len(data) > data.shape[1]:
            raise ValueError(f"matrix data has more rows than its {data.shape[1]} columns: "
                             "n x n [re, im] pairs")
        if data.ndim != 3 or data.shape[1:] != (len(data), 2):
            raise ValueError(f"matrix data has shape {data.shape}, expected n x n [re, im] pairs")
        # np.array reads "1.5" as 1.5, true as 1 and null as nan
        for k, row in enumerate(doc["data"]):
            if not {type(x) for pair in row for x in pair} <= {int, float}:
                raise ValueError(f"matrix data row {k} holds a string, true, false or null, "
                                 "not a number: n x n [re, im] pairs")
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


def _read_text(path) -> str:
    """The text of an input file; a leading UTF-8 byte order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _decode_json(text: str, path):
    """The JSON document in the text of path, the package's one JSON decode;
    text that does not decode is a ValueError naming the file."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path):
    """The JSON document in path, such as a cover or an ensemble spec."""
    return _decode_json(_read_text(path), path)


def load_matrix(path) -> tuple[np.ndarray, dict]:
    """Load a matrix from JSON (native) or CSV, sniffed from content."""
    text = _read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: file is empty")
    if stripped[0] != "{":
        parse, doc = _matrix_from_csv, text
    else:
        parse, doc = _matrix_from_json, _decode_json(text, path)
    del text, stripped  # else a payload's text, string and buffer are alive at once
    try:
        return parse(doc)
    except OverflowError as exc:  # an integer entry past the double range
        raise ValueError(f"{path}: matrix data holds a number past the double range: {exc}") from None
    except ValueError as exc:  # the content errors name the file too
        raise ValueError(f"{path}: {exc}") from None


def _sanitize(value):
    """JSON cannot carry inf/nan; encode them as strings, and keys with str()."""
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
        return {str(k): _sanitize(v) for k, v in value.items()}
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
    floats = ",".join(["%.17g"] * len(columns)) + "\n"  # a row of Python floats: one format
    for row in rows:
        if len(row) == len(columns) and all(type(v) is float for v in row):
            buf.write(floats % tuple(row))
            continue
        cells = [_format_cell(v) for v in row]
        if all(isinstance(v, _NUMBERS) for v in row):
            buf.write(",".join(cells) + "\n")
        else:
            writer.writerow(cells)
    _write_text(path, buf.getvalue())

