import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab.cli import main
from eplab.core import as_matrix
from eplab.errors import BadShape, OperatorAnalysisError, ParseError
from eplab.matio import (MAX_DIMENSION, bytes_digest, file_digest,
                         matrix_from_json_dict, matrix_to_json_dict, read_matrix,
                         sniff_format, write_matrix)

from conftest import random_complex


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


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = random_complex(rng, 4, 2)
    path = tmp_path / "a.json"
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix(path), a)


@pytest.mark.parametrize("fmt", ["matrixmarket", "json"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_write_to_unopenable_path_raises(tmp_path, fmt, target):
    # open raises before anything is written.
    if target == "directory":
        path = tmp_path / "a.out"
        path.mkdir()
    else:
        path = tmp_path / "missing" / "a.out"
    with pytest.raises(OSError):
        write_matrix(path, np.eye(2), fmt)
    written = [p.name for p in tmp_path.iterdir()]
    assert written == (["a.out"] if target == "directory" else [])


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


def test_format_override(tmp_path):
    rng = np.random.default_rng(2)
    a = random_complex(rng, 2, 2)
    path = tmp_path / "matrix.dat"
    write_matrix(path, a, fmt="json")
    np.testing.assert_array_equal(read_matrix(path, fmt="json"), a)


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(eplab.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    probe = "import sys, eplab; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(eplab.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    return env


# scipy's reader dies with SIGFPE on these headers, so they run in a child
# process: a missing check fails the test instead of killing the run.
@pytest.mark.parametrize("size", ["0 0", "0 3"])
def test_matrix_market_empty_array_header_exits_2(tmp_path, size):
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n")
    run = subprocess.run([sys.executable, "-m", "eplab.cli", "classify", str(path)],
                         env=_subprocess_env(), capture_output=True, text=True)
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
