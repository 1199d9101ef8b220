"""Serialization round trips and byte determinism of artifacts."""

from __future__ import annotations

import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from almostnormal import load_matrix, save_matrix, write_csv, write_report
from almostnormal.fileio import format_float

from util import read_csv, reference_matrix_json

# signed zeros, the smallest subnormal and normal, and the ends of the range
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308]
_ENTRIES = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(_ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)


def test_save_load_bit_exact(tmp_path):
    a = np.array(
        [
            [1 / 3 + 1e-300j, -0.0 + 2j],
            [math.pi - 1j / 7, 123456789.123456789 + 0j],
        ]
    )
    path = tmp_path / "m.json"
    save_matrix(path, a, metadata={"tag": "case"})
    b, meta = load_matrix(path)
    assert np.array_equal(a, b)
    assert b.dtype == complex
    assert meta == {"tag": "case"}


@given(a=_matrices(), transpose=st.booleans())
def test_codec_matches_per_cell_reference_bitwise(tmp_path_factory, a, transpose):
    if transpose:
        a = a.T  # a non-contiguous view
    path = tmp_path_factory.mktemp("codec") / "m.json"
    meta = {"tag": "case", "k": 1}
    save_matrix(path, a, metadata=meta)
    assert path.read_text(encoding="utf-8") == reference_matrix_json(a, meta)
    b, got_meta = load_matrix(path)
    assert b.dtype == np.complex128
    # bit patterns, so signed zeros count
    assert b.tobytes() == np.ascontiguousarray(a).tobytes()
    assert got_meta == meta


def test_save_is_deterministic(tmp_path):
    a = np.array([[0.1 + 0.2j, 0], [1, 2]], dtype=complex)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(p1, a, metadata={"z": 1, "a": 2})
    save_matrix(p2, a, metadata={"a": 2, "z": 1})
    assert p1.read_bytes() == p2.read_bytes()


# each writer at version k; version 1 is longer than version 0, so bytes
# left over from a longer old file would show
_WRITERS = {
    "save_matrix": lambda path, k: save_matrix(path, np.eye(k + 1) / 3, metadata={"k": k}),
    "write_report": lambda path, k: write_report(path, {"k": k, "x": [1 / 3] * (k + 1)}),
    "write_csv": lambda path, k: write_csv(path, ["k", "x"], [[k, 1 / 3]] * (k + 1),
                                           comments=[f"version {k}"]),
}


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
def test_rewrite_gives_the_bytes_of_a_fresh_write(tmp_path, write):
    fresh, path = tmp_path / "fresh", tmp_path / "out"
    write(fresh, 0)
    write(path, 1)
    write(path, 0)
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
def test_rewrite_replaces_the_file_instead_of_truncating_it(tmp_path, write):
    path, link = tmp_path / "out", tmp_path / "old"
    write(path, 1)
    old = path.read_bytes()
    os.link(path, link)
    write(path, 0)
    assert link.read_bytes() == old
    assert path.read_bytes() != old


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
def test_symlinked_output_is_written_through(tmp_path, write):
    fresh, target, path = tmp_path / "fresh", tmp_path / "target", tmp_path / "out"
    write(fresh, 0)
    write(target, 1)
    path.symlink_to(target)
    write(path, 0)
    assert path.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
def test_fifo_output_is_written_through(tmp_path, write):
    fresh, path = tmp_path / "fresh", tmp_path / "out"
    write(fresh, 0)
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write(path, 0)
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(path.lstat().st_mode)
    assert got == fresh.read_bytes()


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
def test_read_only_output_is_refused_as_open_refuses_it(tmp_path, write):
    path = tmp_path / "out"
    write(path, 1)
    old = path.read_bytes()
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        pytest.skip("this user may write any file, read-only ones too")
    with pytest.raises(PermissionError):
        write(path, 0)
    assert path.read_bytes() == old


def test_load_rejects_dim_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"dim": 3, "data": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dim"):
        load_matrix(path)


def test_load_rejects_bad_cells(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": [[0.5]]}))
    with pytest.raises(ValueError, match="pair"):
        load_matrix(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_matrix(path)


@pytest.mark.parametrize(
    "data, match",
    [
        ([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "pair"),  # ragged rows
        ([[0.5]], "pair"),
        ([[[0.0, 1.0, 2.0]]], "pair"),  # a 3-element cell
        ("0,0", "pair"),
        ([], "empty"),
        ([[["x", 0.0]]], "pair"),
        ({"0": 1}, "pair"),
    ],
)
def test_load_rejects_malformed_data(tmp_path, data, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": data}))
    with pytest.raises(ValueError, match=match):
        load_matrix(path)


def test_load_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('0,"1,-2"\n"0,1",3.5\n')
    a, meta = load_matrix(path)
    assert np.array_equal(a, np.array([[0, 1 - 2j], [1j, 3.5]]))
    assert meta == {}


def test_load_csv_rejects_rectangular(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="square"):
        load_matrix(path)
    path.write_text("1,apple\n2,3\n")
    with pytest.raises(ValueError, match="cell"):
        load_matrix(path)


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        ("x", "flag", "k"),
        [[0.1, True, 3], [float("nan") if False else 2.5, False, -1]],
        comments=["alpha", "beta=1"],
    )
    cols, rows, comments = read_csv(path)
    assert cols == ["x", "flag", "k"]
    assert rows == [["0.10000000000000001", "1", "3"], ["2.5", "0", "-1"]]
    assert comments == ["alpha", "beta=1"]
    # floats survive the text round trip exactly
    assert float(rows[0][0]) == 0.1


def test_read_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(path)


def test_write_report_handles_special_values(tmp_path):
    path = tmp_path / "r.json"
    write_report(
        path,
        {
            "d": math.inf,
            "neg": -math.inf,
            "z": 1 + 2j,
            "arr": np.array([1.0, 2.0]),
            "n": np.int64(4),
        },
    )
    doc = json.loads(path.read_text())
    assert doc["d"] == "inf"
    assert doc["neg"] == "-inf"
    assert doc["z"] == [1.0, 2.0]
    assert doc["arr"] == [1.0, 2.0]
    assert doc["n"] == 4


def test_write_report_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(p1, {"b": 1.5, "a": {"y": 2, "x": 3}})
    write_report(p2, {"a": {"x": 3, "y": 2}, "b": 1.5})
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "x", [0.1, 1 / 3, 1e-300, 1e300, -0.0, 2.0, math.pi, 5e-324]
)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
