import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from eplab.cli import main
from eplab.core import as_matrix
from eplab.errors import BadShape, OperatorAnalysisError, ParseError
from eplab.matio import (MAX_DIMENSION, bytes_digest, file_digest,
                         matrix_from_json_dict, matrix_to_json_dict, read_matrix,
                         sniff_format, write_matrix)

from conftest import child_env, random_complex


def test_sniff_format():
    assert sniff_format("a.mtx") == "matrixmarket"
    assert sniff_format("A.MM") == "matrixmarket"
    assert sniff_format("b.json") == "json"
    with pytest.raises(ParseError, match=r"\.mtx, \.mm, \.json"):
        sniff_format("matrix.txt")


def test_matrix_market_round_trip_complex(tmp_path):
    rng = np.random.default_rng(0)
    a = random_complex(rng, 3, 5)
    path = tmp_path / "a.mtx"
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix(path), a)


def test_matrix_market_coordinate_input(tmp_path):
    path = tmp_path / "coord.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 3.0\n2 2 -1.5\n")
    np.testing.assert_array_equal(read_matrix(path),
                                  np.array([[3.0, 0.0], [0.0, -1.5]], dtype=complex))


def _fast_reader(monkeypatch):
    """scipy's threaded Matrix Market module, its thread count set to 3 for the test."""
    reader = pytest.importorskip("scipy.io._fast_matrix_market")
    monkeypatch.setattr(reader, "PARALLELISM", 3)
    return reader


def test_matrix_market_is_read_on_the_calling_thread(monkeypatch, tmp_path):
    reader = _fast_reader(monkeypatch)
    seen, open_cursor = [], reader._get_read_cursor

    def spy(*args, **kwargs):
        seen.append(reader.PARALLELISM)
        return open_cursor(*args, **kwargs)

    monkeypatch.setattr(reader, "_get_read_cursor", spy)
    path = tmp_path / "a.mtx"
    write_matrix(path, np.eye(3))
    read_matrix(path)
    assert seen and set(seen) == {1}
    assert reader.PARALLELISM == 3


def test_a_scipy_without_the_threaded_reader_keeps_the_callers_setting(monkeypatch, tmp_path):
    # scipy before 1.12 has no _fast_matrix_market; the reader the test
    # spies on stands in for its pure-Python one, which starts no thread.
    import scipy.io
    reader = _fast_reader(monkeypatch)
    seen, open_cursor = [], reader._get_read_cursor

    def spy(*args, **kwargs):
        seen.append(reader.PARALLELISM)
        return open_cursor(*args, **kwargs)

    monkeypatch.setattr(reader, "_get_read_cursor", spy)
    monkeypatch.delattr(scipy.io, "_fast_matrix_market")
    a = random_complex(np.random.default_rng(4), 4, 3)
    path = tmp_path / "a.mtx"
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix(path), a)
    assert seen and set(seen) == {3}


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix array integer general\n1 1\n99999999999999999999\n",
    "%%MatrixMarket matrix array complex general\n2 2\n1 0\n2 0\n",
], ids=["beyond_int64", "truncated"])
def test_a_failed_read_restores_the_callers_thread_count(monkeypatch, tmp_path, text):
    reader = _fast_reader(monkeypatch)
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_matrix(path)
    assert reader.PARALLELISM == 3


def _bits(a) -> tuple:
    return a.shape, a.dtype, a.tobytes()


def test_the_one_thread_read_is_bitwise_scipys_default(tmp_path):
    import scipy.io
    rng = np.random.default_rng(2)
    dense = tmp_path / "dense.mtx"
    write_matrix(dense, random_complex(rng, 64, 48))
    rows, cols = np.divmod(rng.choice(64 * 48, 400, replace=False), 48)
    sparse = tmp_path / "sparse.mtx"
    values = rng.standard_normal(400).tolist()
    sparse.write_text("%%MatrixMarket matrix coordinate real general\n64 48 400\n" + "".join(
        f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows, cols, values)))
    assert _bits(read_matrix(dense)) == _bits(scipy.io.mmread(dense))
    default = scipy.io.mmread(sparse).toarray().astype(np.complex128)
    assert _bits(read_matrix(sparse)) == _bits(default)


def _matrix_market(layout: str, field: str, symmetry: str) -> tuple[str, np.ndarray]:
    """A 3 x 3 Matrix Market file's text and the dense matrix it encodes.
    A symmetric file lists the lower triangle, a skew-symmetric one the part
    below the diagonal; an array file lists its entries by columns, and a
    coordinate file leaves out the antidiagonal."""
    text, dense = [], np.zeros((3, 3), dtype=complex)
    for j, i in itertools.product(range(3), repeat=2):
        if (symmetry != "general" and (i < j or i == j and symmetry == "skew-symmetric")
                or layout == "coordinate" and i + j == 2):
            continue
        value = {"real": (-1) ** i * (4 * i + j + 1) / 4, "integer": (-1) ** j * (3 * i + j),
                 "complex": complex(i - 2 * j, 0 if symmetry == "hermitian" and i == j
                                    else (i + 1) / (j + 2)),
                 "pattern": 1}[field]
        dense[i, j] = value
        if i != j and symmetry != "general":
            dense[j, i] = {"symmetric": value, "skew-symmetric": -value,
                           "hermitian": np.conj(value)}[symmetry]
        entry = {"complex": f"{complex(value).real!r} {complex(value).imag!r}",
                 "pattern": ""}.get(field, repr(value))
        text.append(entry if layout == "array" else f"{i + 1} {j + 1} {entry}".rstrip())
    size = "3 3" if layout == "array" else f"3 3 {len(text)}"
    return "\n".join([f"%%MatrixMarket matrix {layout} {field} {symmetry}", size, *text,
                      ""]), dense


# Every header the format allows: a pattern has no array layout and no
# skew-symmetric or Hermitian symmetry, and only a complex field is Hermitian.
_HEADERS = [(layout, field, symmetry)
            for layout, field, symmetry in itertools.product(
                ("array", "coordinate"), ("real", "integer", "complex", "pattern"),
                ("general", "symmetric", "skew-symmetric", "hermitian"))
            if not (field == "pattern" and (layout == "array" or symmetry in (
                "skew-symmetric", "hermitian")))
            and (symmetry != "hermitian" or field == "complex")]


@pytest.mark.parametrize("header", _HEADERS, ids="-".join)
def test_every_matrix_market_header_reads_as_its_dense_matrix(tmp_path, header):
    text, dense = _matrix_market(*header)
    path = tmp_path / "m.mtx"
    path.write_text(text)
    np.testing.assert_array_equal(read_matrix(path), dense)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = random_complex(rng, 4, 2)
    path = tmp_path / "a.json"
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix(path), a)


@pytest.mark.parametrize("name", ["a.mtx", "a.json"], ids=["matrixmarket", "json"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_write_to_unopenable_path_raises(tmp_path, name, target):
    # open raises before anything is written.
    if target == "directory":
        path = tmp_path / name
        path.mkdir()
    else:
        path = tmp_path / "missing" / name
    with pytest.raises(OSError):
        write_matrix(path, np.eye(2))
    written = [p.name for p in tmp_path.iterdir()]
    assert written == ([name] if target == "directory" else [])


def test_json_dict_codec():
    a = np.array([[1.0 + 2.0j, 0.0], [3.0, -4.0j]])
    data = matrix_to_json_dict(a)
    assert data["rows"] == 2 and data["cols"] == 2
    assert data["re"] == [1.0, 0.0, 3.0, 0.0]
    assert data["im"] == [2.0, 0.0, 0.0, -4.0]
    np.testing.assert_array_equal(matrix_from_json_dict(data), a)


def test_json_im_optional():
    data = {"rows": 1, "cols": 2, "re": [1.0, 2.0]}
    np.testing.assert_array_equal(matrix_from_json_dict(data),
                                  np.array([[1.0, 2.0]], dtype=complex))


def test_json_undeclared_key_rejected():
    # Else a misspelt "im" would read as a zero imaginary part.
    with pytest.raises(ParseError, match="unknown keys"):
        matrix_from_json_dict({"rows": 1, "cols": 1, "re": [1], "img": [2]})


def test_json_length_mismatch_rejected():
    with pytest.raises(ParseError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


@pytest.mark.parametrize("entries", [["1.5", 2], [True, False]], ids=["string", "bool"])
@pytest.mark.parametrize("key", ["re", "im"])
def test_json_entries_must_be_json_numbers(key, entries):
    data = {"rows": 1, "cols": 2, "re": [1.0, 2], "im": [0, -0.5]}
    data[key] = entries
    with pytest.raises(ParseError, match=key):
        matrix_from_json_dict(data)


def test_garbage_files_rejected(tmp_path):
    bad_mtx = tmp_path / "bad.mtx"
    bad_mtx.write_text("this is not a matrix\n")
    with pytest.raises(ParseError):
        read_matrix(bad_mtx)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        read_matrix(bad_json)


def test_digests_stable(tmp_path):
    p1 = tmp_path / "x.bin"
    p1.write_bytes(b"abc")
    assert file_digest([p1]) == file_digest([p1])
    assert file_digest([p1]).startswith("sha256:")
    assert bytes_digest(b"abc") != bytes_digest(b"abd")


def test_json_keeps_signed_zeros(tmp_path):
    data = {"rows": 1, "cols": 2, "re": [-0.0, 1.0], "im": [0.0, -0.0]}
    a = matrix_from_json_dict(data)
    np.testing.assert_array_equal(np.signbit(a.real), [[True, False]])
    np.testing.assert_array_equal(np.signbit(a.imag), [[False, True]])
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(data))
    b = read_matrix(path)
    np.testing.assert_array_equal(np.signbit(b.real), [[True, False]])
    np.testing.assert_array_equal(np.signbit(b.imag), [[False, True]])
    assert json.dumps(matrix_to_json_dict(b)) == json.dumps(data)


def test_import_leaves_scipy_io_unloaded():
    probe = "import sys, eplab; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# scipy's reader dies with SIGFPE on these headers, so they run in a child
# process: a missing check fails the test instead of killing the run.
@pytest.mark.parametrize("size", ["0 0", "0 3"])
def test_matrix_market_empty_array_header_exits_2(tmp_path, size):
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n")
    run = subprocess.run([sys.executable, "-m", "eplab.cli", "classify", str(path)],
                         env=child_env(), capture_output=True, text=True)
    assert run.returncode == 2 and "ParseError" in run.stderr


@pytest.mark.parametrize("size", ["0 0 0", f"{MAX_DIMENSION + 1} 1 0", "2 2 5"],
                         ids=["empty", "over_cap", "entries_over_rows_cols"])
def test_matrix_market_header_checked_before_read(tmp_path, size):
    path = tmp_path / "header.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size}\n"
                    + "1 1 1.0\n" * 5)
    with pytest.raises(ParseError, match="header"):
        read_matrix(path)


def test_matrix_market_at_cap_is_read(tmp_path):
    path = tmp_path / "column.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{MAX_DIMENSION} 1 1\n"
                    "2 1 4.0\n")
    a = read_matrix(path)
    assert a.shape == (MAX_DIMENSION, 1) and a[1, 0] == 4.0


def test_json_dimension_cap():
    column = {"rows": MAX_DIMENSION, "cols": 1, "re": [0.0] * MAX_DIMENSION}
    assert matrix_from_json_dict(column).shape == (MAX_DIMENSION, 1)
    column.update(rows=MAX_DIMENSION + 1, re=[0.0] * (MAX_DIMENSION + 1))
    with pytest.raises(ParseError, match="rows"):
        matrix_from_json_dict(column)


def test_as_matrix_shape_error_is_typed():
    assert issubclass(BadShape, ValueError) and issubclass(BadShape, OperatorAnalysisError)
    for bad in (np.zeros(3), np.zeros((0, 3)), np.zeros((2, 0))):
        with pytest.raises(BadShape):
            as_matrix(bad)


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix array integer general\n1 1\n99999999999999999999\n",
    "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 99999999999999999999\n",
], ids=["array", "coordinate"])
def test_matrix_market_integer_beyond_int64_exits_2(capsys, tmp_path, text):
    path = tmp_path / "big.mtx"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "ParseError" in captured.err and "Traceback" not in captured.err
