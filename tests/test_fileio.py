"""Serialization round trips and byte determinism of artifacts."""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from almostnormal import fileio, load_matrix, save_matrix, write_csv, write_report
from almostnormal.core import as_cmatrix
from almostnormal.fileio import TEXT_MAX_DIM, format_float

from util import read_csv, reference_matrix_json, traced_peak

# signed zeros, the smallest subnormal and normal, and the ends of the range
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308]
_ENTRIES = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
# JSON metadata nested a few levels; hypothesis draws dict keys in no sorted order
_METADATA = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=4)
        | st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=8,
    ),
    max_size=4,
)


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 8))
    parts = draw(st.lists(_ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)


_JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def _matrix_texts(draw):
    """A matrix and its metadata (None: absent or null) written in a drawn
    JSON layout: (text, matrix, metadata, offsets of the top-level colons,
    offset of the closing bracket of "data")."""
    a, meta = draw(_matrices()), draw(st.none() | _METADATA)
    doc = {"data": np.stack([a.real, a.imag], -1).tolist(), "dim": len(a), "metadata": meta}
    if draw(st.booleans()):
        del doc["dim"]
    if meta is None and draw(st.booleans()):
        del doc["metadata"]
    layout = {"indent": draw(st.sampled_from([None, 0, 2, "\t"])),
              "separators": draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")]))}
    text, colons = draw(_JSON_SPACE) + "{", []
    for k, key in enumerate(draw(st.permutations(list(doc)))):
        text += draw(_JSON_SPACE) + ("," if k else "") + draw(_JSON_SPACE) + json.dumps(key)
        text += draw(_JSON_SPACE)
        colons.append(len(text))
        text += ":" + draw(_JSON_SPACE) + json.dumps(doc[key], **layout)
        if key == "data":
            data_end = len(text) - 1
    text += draw(_JSON_SPACE) + "}" + draw(_JSON_SPACE)
    return text, a, meta, colons, data_end


def _whole_document_decode(text: str) -> tuple[np.ndarray, dict]:
    """The reader that decoding one row at a time replaced: json.loads of the
    whole text, one numpy conversion of "data", and the same checks."""
    if not text.strip():
        raise ValueError("file is empty")
    doc = json.loads(text)
    if not isinstance(doc, dict) or "data" not in doc:
        raise ValueError("no 'data' field")
    try:
        data = np.array(doc["data"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not [re, im] pairs: {exc}") from None
    if data.size == 0 or data.ndim != 3 or data.shape[1:] != (len(data), 2):
        raise ValueError(f"data of shape {data.shape}")
    dim = doc.get("dim", len(data))
    if type(dim) is not int or dim != len(data):
        raise ValueError(f"dim {dim!r}")
    meta = {} if doc.get("metadata") is None else doc["metadata"]
    if not isinstance(meta, dict):
        raise ValueError("metadata is not an object")
    return as_cmatrix(data.view(np.complex128)[..., 0]), meta


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


@given(a=_matrices(), transpose=st.booleans(), meta=_METADATA)
def test_codec_matches_per_cell_reference_bitwise(tmp_path_factory, a, transpose, meta):
    if transpose:
        a = a.T  # a non-contiguous view
    path = tmp_path_factory.mktemp("codec") / "m.json"
    save_matrix(path, a, metadata=meta)
    assert path.read_text(encoding="utf-8") == reference_matrix_json(a, meta)
    b, got_meta = load_matrix(path)
    assert b.dtype == np.complex128
    # bit patterns, so signed zeros count
    assert b.tobytes() == np.ascontiguousarray(a).tobytes()
    assert got_meta == meta


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_save_refuses_non_json_metadata_and_keeps_the_old_file(tmp_path, bad):
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(2), metadata={"k": 0})
    old = path.read_bytes()
    with pytest.raises(ValueError, match="JSON compliant"):
        save_matrix(path, np.eye(3), metadata={"outer": {"x": [1.0, bad]}})
    assert path.read_bytes() == old


def test_save_holds_about_one_copy_of_the_text(tmp_path, monkeypatch):
    # the row strings and the (n, n, 2) array take about 1.4 times the 2.8 MB
    # of text; nested lists of the whole matrix, encoded at once, near 5 times
    monkeypatch.setattr(fileio, "TEXT_MAX_DIM", 256)
    a = np.random.default_rng(0).standard_normal((256, 512)).view(np.complex128)
    path = tmp_path / "m.json"
    _, peak = traced_peak(lambda: save_matrix(path, a, metadata={"n": 256}))
    assert peak < 2 * path.stat().st_size


def test_load_holds_about_one_copy_of_the_text(tmp_path, monkeypatch):
    # reading the 2.7 MB file holds its bytes and its text at once, 2.0 times
    # its size; decoding holds the text, the (n, n, 2) array and one row, about
    # 1.4 times; nested lists of the whole matrix, decoded at once, over 5 times
    monkeypatch.setattr(fileio, "TEXT_MAX_DIM", 256)
    a = np.random.default_rng(0).standard_normal((256, 512)).view(np.complex128)
    path = tmp_path / "m.json"
    save_matrix(path, a, metadata={"n": 256})
    (b, _), peak = traced_peak(lambda: load_matrix(path))
    assert b.tobytes() == a.tobytes()
    assert peak < 2.5 * path.stat().st_size


@pytest.mark.parametrize("transpose", [False, True])
def test_binary_save_holds_about_one_copy_of_the_file(tmp_path, transpose):
    # the base64 parts take the 1.4 MB of the file; a transposed input is
    # copied three rows at a time, not whole
    a = np.random.default_rng(0).standard_normal((256, 512)).view(np.complex128)
    path = tmp_path / "m.json"
    _, peak = traced_peak(lambda: save_matrix(path, a.T if transpose else a, metadata={"n": 256}))
    assert peak < 1.25 * path.stat().st_size


def test_binary_load_holds_no_more_than_the_text_bound(tmp_path):
    # reading the 1.4 MB file holds its bytes and its text at once, 2.0 times
    # its size; decoding holds the text, the 1 MB buffer and one 64 KiB chunk
    a = np.random.default_rng(0).standard_normal((256, 512)).view(np.complex128)
    path = tmp_path / "m.json"
    save_matrix(path, a, metadata={"n": 256})
    (b, _), peak = traced_peak(lambda: load_matrix(path))
    assert b.tobytes() == a.tobytes()
    assert peak < 2.5 * path.stat().st_size


@st.composite
def _matrices_near_the_threshold(draw):
    """n on both sides of TEXT_MAX_DIM and in each residue mod 3 (base64
    padding); seeded normal entries with drawn edge values at drawn places."""
    n = TEXT_MAX_DIM + draw(st.sampled_from([-1, 0, 1, 2, 3]))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(2 * n * n)
    for k, v in draw(st.lists(st.tuples(st.integers(0, 2 * n * n - 1), _ENTRIES), max_size=16)):
        x[k] = v
    return x.view(np.complex128).reshape(n, n)


@given(a=_matrices_near_the_threshold(), transpose=st.booleans(), meta=_METADATA)
def test_binary_codec_round_trip_is_bitwise(tmp_path_factory, a, transpose, meta):
    if transpose:
        a = a.T  # a non-contiguous view
    path = tmp_path_factory.mktemp("binary") / "m.json"
    save_matrix(path, a, metadata=meta)
    text = path.read_text(encoding="utf-8")
    if len(a) <= TEXT_MAX_DIM:
        assert text == reference_matrix_json(a, meta)
    else:
        doc = json.loads(text)
        assert list(doc) == ["c128le", "dim", "metadata"]
        raw = np.ascontiguousarray(a, "<c16").tobytes()
        assert doc["c128le"] == base64.b64encode(raw).decode("ascii")
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    b, got_meta = load_matrix(path)
    assert b.dtype == np.complex128 and b.flags.writeable
    assert b.tobytes() == np.ascontiguousarray(a).tobytes()
    assert got_meta == (meta or {})


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
        ([[]], "empty"),
        ([[["1.5", "0"]]], "row 0 holds a string, true, false or null"),
        ([[[True, False]]], "row 0 holds a string, true, false or null"),
        ([[[1.5, True]]], "row 0 holds a string, true, false or null"),
        ([[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [None, 0.0]]], "row 1 holds a string"),
        ([[[math.nan, 0.0]]], "finite"),  # written as NaN, Infinity, -Infinity
        ([[[math.inf, 0.0]]], "finite"),
        ([[[-math.inf, 0.0]]], "finite"),
        ([[[1.5, 0.0]], [[0.0, 0.0]]], "more rows than its 1 columns"),
        ([[[1.5, 0.0], [0.0, 0.0]]] * 3, "more rows than its 2 columns"),
    ],
)
def test_load_rejects_malformed_data(tmp_path, data, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": data}))
    with pytest.raises(ValueError, match=match):
        load_matrix(path)


def test_deeply_nested_json_is_a_value_error_naming_the_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"data": [[[1, 0]]], "metadata": {"x": %s}}' % ("[" * 5000 + "]" * 5000))
    with pytest.raises(ValueError, match="deep.json: JSON nested too deeply"):
        load_matrix(path)


@pytest.mark.parametrize("text", ["{}", " { \n} ", '{"dim": 1}', '{"metadata": {}}'])
def test_load_rejects_an_object_without_data(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="'data' field"):
        load_matrix(path)


def test_load_allocates_no_more_rows_than_the_file_can_hold(tmp_path):
    # a first row of 1000 pairs implies a 1000 x 1000 matrix, 16 MB, but the
    # 6 KB file holds one such row at most
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": [[[0, 0]] * 1000]}, separators=(",", ":")))
    _, peak = traced_peak(lambda: pytest.raises(ValueError, load_matrix, path))
    assert peak < 1 << 20
    with pytest.raises(ValueError, match=r"shape \(1, 1000, 2\).*pairs"):
        load_matrix(path)


@pytest.mark.parametrize(
    "field, value",
    [("metadata", []), ("metadata", 0), ("metadata", ""), ("metadata", False),
     ("metadata", [1]), ("dim", True), ("dim", 1.0), ("dim", None), ("dim", "1")],
)
def test_load_rejects_metadata_and_dim_of_the_wrong_type(tmp_path, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": [[[1.0, 0.0]]], field: value}))
    with pytest.raises(ValueError, match=field):
        load_matrix(path)


@pytest.mark.parametrize("extra", [{}, {"metadata": None}])
def test_absent_or_null_metadata_loads_as_empty(tmp_path, extra):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"data": [[[1.0, 0.0]]], **extra}))
    assert load_matrix(path)[1] == {}


@given(case=_matrix_texts())
def test_load_matches_the_whole_document_decode_bitwise(tmp_path_factory, case):
    text, a, meta, _, _ = case
    path = tmp_path_factory.mktemp("layout") / "m.json"
    path.write_text(text, encoding="utf-8")
    b, got_meta = load_matrix(path)
    want, want_meta = _whole_document_decode(text)
    assert b.tobytes() == want.tobytes() == a.tobytes()
    # repr, so key order and signed zeros count
    assert repr(got_meta) == repr(want_meta) == repr({} if meta is None else meta)


@given(case=_matrix_texts(), how=st.sampled_from(["cut", "comma", "colon", "trailing"]),
       draw=st.data())
def test_corrupt_text_is_refused_by_both_readers(tmp_path_factory, case, how, draw):
    text, _, _, colons, data_end = case
    if how == "cut":  # anywhere before the closing brace
        k = draw.draw(st.integers(0, len(text.rstrip()) - 1))
        bad = text[:k]
    elif how == "comma":  # after the last row or the last field
        k = draw.draw(st.sampled_from([data_end, len(text.rstrip()) - 1]))
        bad = text[:k] + "," + text[k:]
    elif how == "colon":
        k = draw.draw(st.sampled_from(colons))
        bad = text[:k] + text[k + 1:]
    else:
        bad = text + draw.draw(st.sampled_from(["0", "x", ",", "}", "{}", "[]", '""', "null"]))
    path = tmp_path_factory.mktemp("corrupt") / "m.json"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(ValueError):
        _whole_document_decode(bad)
    with pytest.raises(ValueError):
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
    table = [[0.1, True, 3], [float("nan") if False else 2.5, False, -1],
             [np.float64(0.5), np.True_, np.int64(7)], [np.float32(0.25), np.False_, 0],
             [-0.0, math.inf, -math.inf], [math.nan, 5e-324, 1.7976931348623157e308],
             ['a,"b"', 1.5, "c"]]
    write_csv(path, ("x", "flag", "k"), table, comments=["alpha", "beta=1"])
    cols, rows, comments = read_csv(path)
    assert cols == ["x", "flag", "k"]
    assert rows == [["0.10000000000000001", "1", "3"], ["2.5", "0", "-1"],
                    ["0.5", "1", "7"], ["0.25", "0", "0"], ["-0", "inf", "-inf"],
                    ["nan", "4.9406564584124654e-324", "1.7976931348623157e+308"],
                    ['a,"b"', "1.5", "c"]]
    assert comments == ["alpha", "beta=1"]
    # floats survive the text round trip exactly
    assert float(rows[0][0]) == 0.1
    # rows of numbers skip the csv module, yet the bytes are its bytes, and
    # the string that needs quoting keeps them
    ref = io.StringIO()
    ref.write("# alpha\n# beta=1\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(("x", "flag", "k"))
    writer.writerows([format_float(v) if isinstance(v, float) else fileio._format_cell(v)
                      for v in row] for row in table)
    assert path.read_bytes() == ref.getvalue().encode()
    assert '\n"a,""b""",1.5,c\n' in ref.getvalue()


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
