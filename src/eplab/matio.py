"""Matrix file I/O: Matrix Market and a dense JSON format.

The JSON format stores complex entries as parallel row-major ``re``/``im``
arrays: ``{"rows": m, "cols": n, "re": [...], "im": [...]}``.  Formats are
sniffed from the extension (.mtx/.mm vs .json) and can be forced.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import as_matrix
from .errors import ParseError

FORMAT_MATRIXMARKET = "matrixmarket"
FORMAT_JSON = "json"

_EXTENSIONS = {
    ".mtx": FORMAT_MATRIXMARKET,
    ".mm": FORMAT_MATRIXMARKET,
    ".json": FORMAT_JSON,
}


def sniff_format(path) -> str:
    suffix = Path(path).suffix.lower()
    try:
        return _EXTENSIONS[suffix]
    except KeyError:
        raise ParseError(
            f"cannot infer matrix format from {path!r}; pass an explicit format"
        ) from None


def matrix_to_json_dict(a) -> dict:
    arr = as_matrix(a)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "re": [float(x) for x in arr.real.ravel()],
        "im": [float(x) for x in arr.imag.ravel()],
    }


def _dimension(data: dict, key: str) -> int:
    """``data[key]`` if it is a positive integer; ParseError otherwise."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"dense JSON matrix {key} must be a positive integer, got {value!r}")
    return value


def matrix_from_json_dict(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise ParseError("dense JSON matrix must be an object")
    try:
        rows, cols = _dimension(data, "rows"), _dimension(data, "cols")
        re = np.asarray(data["re"], dtype=np.float64)
        im = np.asarray(data["im"], dtype=np.float64) if "im" in data else np.zeros_like(re)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dense JSON matrix: {exc}") from exc
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ParseError(
            f"entry arrays must hold rows*cols={rows * cols} values, "
            f"got re={re.shape} im={im.shape}")
    # Set the parts one by one: re + 1j * im adds +0.0 to each, losing -0.0.
    out = np.empty(rows * cols, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out.reshape(rows, cols)


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Load a dense complex matrix from a Matrix Market or JSON file."""
    fmt = fmt or sniff_format(path)
    if fmt == FORMAT_MATRIXMARKET:
        # Imported here: scipy.io is most of the package's start-up time and
        # only Matrix Market files need it.
        import scipy.io
        import scipy.sparse
        try:
            loaded = scipy.io.mmread(str(path))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"invalid Matrix Market file {path!r}: {exc}") from exc
        if scipy.sparse.issparse(loaded):
            loaded = loaded.toarray()
        return as_matrix(loaded)
    if fmt == FORMAT_JSON:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON matrix file {path!r}: {exc}") from exc
        return as_matrix(matrix_from_json_dict(data))
    raise ParseError(f"unknown matrix format {fmt!r}")


def write_matrix(path, a, fmt: str | None = None) -> None:
    """Write a matrix in Matrix Market (precision 17, lossless) or JSON."""
    arr = as_matrix(a)
    fmt = fmt or sniff_format(path)
    if fmt == FORMAT_MATRIXMARKET:
        import scipy.io
        scipy.io.mmwrite(str(path), arr, precision=17)
    elif fmt == FORMAT_JSON:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(matrix_to_json_dict(arr), handle)
            handle.write("\n")
    else:
        raise ParseError(f"unknown matrix format {fmt!r}")


def file_digest(paths: Iterable) -> str:
    """sha256 over the raw bytes of the input files, NUL-separated."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
        digest.update(b"\x00")
    return f"sha256:{digest.hexdigest()}"


def bytes_digest(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"
