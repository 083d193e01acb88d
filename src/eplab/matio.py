"""Matrix file I/O (Matrix Market and a dense JSON format) and the JSON
record codec.

The JSON format stores complex entries as parallel row-major ``re``/``im``
arrays of JSON numbers: ``{"rows": m, "cols": n, "re": [...], "im": [...]}``;
any other key is a ParseError.
The suffix alone sets the format (.mtx/.mm vs .json), for reading and
writing alike; any other suffix is a ParseError.  Either format may declare
at most :data:`MAX_DIMENSION` rows and columns; a Matrix Market header is
checked before its body is read.  :func:`_malformed` alone
decides which failures to decode a file, spec or record are a ParseError.

One codec serves every JSON record of the package: report documents and
their envelope, the tolerance policy and operator specs.  Documents hold
numbers and verdicts; matrices go to files.  The codec walks the fields of
a dataclass or NamedTuple in declaration order and converts each value by
its type hint: ``bool``, ``int``, ``float``, ``str`` and ``dict`` (a plain
JSON object) as themselves, a ``str`` enum by its value, ``tuple[X, ...]``
as a list, ``X | None`` as X or null, and any other class as a nested
record.  A field typed ``np.ndarray`` stays in memory: it has no key and is
never encoded, and decoding gives it None, so such a field is optional.
Decoding is strict: an ``int`` takes only a non-bool JSON integer, a
``float`` any JSON number, ``bool`` and ``str`` only their own JSON type,
and a ``dict`` or a record only a JSON object; anything else is a
ParseError.  A missing key takes the field's default, or None for an
optional field, and is a ParseError for a field that has neither; a key
the record does not declare, a matrix field's name included, is a
ParseError, in specs and documents.
"""

from __future__ import annotations

import enum
import hashlib
import json
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .core import as_matrix
from .errors import BadSpec, ParseError

FORMAT_MATRIXMARKET = "matrixmarket"
FORMAT_JSON = "json"

# Largest row or column count of a matrix input or a zoo section.  A dense
# complex 4096 x 4096 matrix takes 268 MB.
MAX_DIMENSION = 4096

_EXTENSIONS = {
    ".mtx": FORMAT_MATRIXMARKET,
    ".mm": FORMAT_MATRIXMARKET,
    ".json": FORMAT_JSON,
}


@contextmanager
def _malformed(what: str):
    """ParseError for a missing key, a value of the wrong type or out of range
    (an out-of-range spec's BadSpec too), bad UTF-8, bad JSON syntax or
    nesting too deep while decoding ``what``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            BadSpec) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def sniff_format(path) -> str:
    suffix = Path(path).suffix.lower()
    try:
        return _EXTENSIONS[suffix]
    except KeyError:
        raise ParseError(f"cannot infer matrix format from {path!r}: its suffix must be "
                         f"one of {', '.join(_EXTENSIONS)}") from None


def matrix_to_json_dict(a) -> dict:
    arr = as_matrix(a)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "re": arr.real.ravel().tolist(),
        "im": arr.imag.ravel().tolist(),
    }


def _dimension(data: dict, key: str) -> int:
    """``data[key]`` if it is an integer in [1, MAX_DIMENSION]; ParseError otherwise."""
    value = data[key]
    if type(value) is not int or not 1 <= value <= MAX_DIMENSION:
        raise ParseError(f"dense JSON matrix {key} must be an integer in "
                         f"[1, {MAX_DIMENSION}], got {value!r}")
    return value


def _entries(data: dict, key: str) -> np.ndarray:
    """``data[key]`` if it is a list of JSON numbers (a bool or a string is
    not one); ParseError otherwise."""
    values = data[key]
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ParseError(f"dense JSON matrix {key} must be a list of JSON numbers")
    return np.asarray(values, dtype=np.float64)


def matrix_from_json_dict(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise ParseError("dense JSON matrix must be an object")
    unknown = set(data) - {"rows", "cols", "re", "im"}
    if unknown:
        raise ParseError(f"dense JSON matrix: unknown keys {sorted(unknown)}")
    with _malformed("malformed dense JSON matrix"):
        rows, cols = _dimension(data, "rows"), _dimension(data, "cols")
        re = _entries(data, "re")
        im = _entries(data, "im") if "im" in data else np.zeros_like(re)
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ParseError(
            f"entry arrays must hold rows*cols={rows * cols} values, "
            f"got re={re.shape} im={im.shape}")
    # Set the parts one by one: re + 1j * im adds +0.0 to each, losing -0.0.
    out = np.empty(rows * cols, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out.reshape(rows, cols)


@contextmanager
def _one_reader_thread():
    """Hold scipy's Matrix Market reader to the calling thread.

    By default each ``mmread`` starts two OS threads; the malloc arenas they
    free then serve the SVD thread of later analyses, and two arenas each
    grow to its working set.  The caller's setting comes back on the way
    out, also when the read raises.  scipy before 1.12 has no threaded
    reader and nothing is set.
    """
    import scipy.io
    reader = getattr(scipy.io, "_fast_matrix_market", None)
    if reader is None:
        yield
        return
    saved, reader.PARALLELISM = reader.PARALLELISM, 1
    try:
        yield
    finally:
        reader.PARALLELISM = saved


def read_matrix(path) -> np.ndarray:
    """Load a dense complex matrix from a Matrix Market or JSON file."""
    if sniff_format(path) == FORMAT_MATRIXMARKET:
        # Imported here: scipy.io is most of the package's start-up time and
        # only Matrix Market files need it.
        import scipy.io
        import scipy.sparse
        with _malformed(f"invalid Matrix Market file {path!r}"), _one_reader_thread():
            rows, cols, entries = scipy.io.mminfo(str(path))[:3]
            if not (1 <= rows <= MAX_DIMENSION and 1 <= cols <= MAX_DIMENSION
                    and entries <= rows * cols):
                raise ParseError(
                    f"Matrix Market header of {path!r} declares {rows}x{cols} with "
                    f"{entries} entries; rows and cols must lie in [1, {MAX_DIMENSION}] "
                    "and entries cannot exceed rows*cols")
            loaded = scipy.io.mmread(str(path))
        if scipy.sparse.issparse(loaded):
            loaded = loaded.toarray()
        return as_matrix(loaded)
    with open(path, "r", encoding="utf-8") as handle, \
            _malformed(f"invalid JSON matrix file {path!r}"):
        data = json.load(handle)
    return as_matrix(matrix_from_json_dict(data))


def write_matrix(path, a) -> None:
    """Write a matrix in Matrix Market (precision 17, lossless) or JSON."""
    arr = as_matrix(a)
    if sniff_format(path) == FORMAT_MATRIXMARKET:
        import scipy.io
        # Through a handle: given a name, mmwrite appends ".mtx" unless it ends so.
        with open(path, "wb") as handle:
            scipy.io.mmwrite(handle, arr, precision=17)
    else:
        # json.dumps, unlike json.dump to a file, uses the C encoder.
        Path(path).write_text(json.dumps(matrix_to_json_dict(arr)) + "\n", encoding="utf-8")


def file_digest(paths: Iterable) -> str:
    """sha256 over the raw bytes of the input files, NUL-separated."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
        digest.update(b"\x00")
    return f"sha256:{digest.hexdigest()}"


def bytes_digest(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


# Types the codec reads and writes as the JSON value itself.
_LEAVES = (bool, int, float, str, dict)
_NONE = type(None)
# Record keys that differ from the field name.
_KEYS = {"condition_id": "id"}

_hints = cache(get_type_hints)


def _split_optional(hint) -> tuple[object, bool]:
    """``(X, True)`` for the hint ``X | None``, else ``(hint, False)``."""
    args = get_args(hint)
    if _NONE in args:
        return next(arg for arg in args if arg is not _NONE), True
    return hint, False


@cache
def _fields(record: type) -> dict[str, tuple[str, object]]:
    """The JSON key of each encoded field of ``record``, with the field's name
    and hint; a field typed ``np.ndarray`` has none."""
    return {_KEYS.get(name, name): (name, hint) for name, hint in _hints(record).items()
            if _split_optional(hint)[0] is not np.ndarray}


def _json(kind: type, data):
    """``data`` if it has the JSON type ``kind`` (a JSON integer below 2^1023
    also serves as a float, a bool never as a number); ParseError otherwise."""
    if kind is float and type(data) is int and abs(data) < 2.0 ** 1023:
        data = float(data)
    if type(data) is not kind:
        raise ParseError(f"expected {kind.__name__}, got {data!r:.40}")
    return data


def _encode(hint, value):
    hint, optional = _split_optional(hint)
    if optional and value is None:
        return None
    if get_origin(hint) is tuple:
        return [_encode(get_args(hint)[0], item) for item in value]
    if hint in _LEAVES:
        return hint(value)
    if issubclass(hint, enum.Enum):
        return value.value
    return {key: _encode(field_hint, getattr(value, name))
            for key, (name, field_hint) in _fields(hint).items()}


def _decode(hint, data):
    hint, optional = _split_optional(hint)
    if optional and data is None:
        return None
    if get_origin(hint) is tuple:
        return tuple(_decode(get_args(hint)[0], item) for item in _json(list, data))
    if hint in _LEAVES:
        return _json(hint, data)
    with _malformed(hint.__name__):
        if issubclass(hint, enum.Enum):
            return hint(_json(str, data))
        data = _json(dict, data)
        unknown = set(data) - set(_fields(hint))
        if unknown:
            raise ParseError(f"{hint.__name__}: unknown keys {sorted(unknown)}")
        kwargs = {}
        for name, field_hint in _hints(hint).items():
            key = _KEYS.get(name, name)
            if key in data:
                kwargs[name] = _decode(field_hint, data[key])
            elif _split_optional(field_hint)[1]:
                kwargs[name] = None
        return hint(**kwargs)
