"""Hypothesis fuzzing of the CLI's and the library's input boundaries.

Malformed dense JSON matrices, Matrix Market files and operator specs, and
arbitrary bytes as a matrix or spec file, go through ``cli.main`` in
process; each must end in exit 0 or in a typed error with exit 2, never in
an exception escaping ``main``.  Every generated dimension is at most 8 or
exactly ``MAX_DIMENSION + 1``, so an input that slipped past a size check
could not allocate much.  Nested lists and object arrays of numbers,
strings and ``None`` go to the library's analyses, which must return or
raise an eplab error.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eplab import classify, douglas_analysis, majorization_witness
from eplab.cli import main
from eplab.errors import OperatorAnalysisError
from eplab.matio import MAX_DIMENSION
from eplab.zoo import Family

fuzz = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

DIMENSIONS = st.one_of(st.integers(-1, 8), st.just(MAX_DIMENSION + 1))
JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=True),
                 st.text(max_size=4), st.lists(st.integers(-1, 3), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
INTEGER_OR_JUNK = st.one_of(DIMENSIONS, JUNK)
ENTRY = st.one_of(st.floats(-1e3, 1e3), st.integers(-5, 5),
                  st.sampled_from([0.0, -0.0, float("inf"), float("nan"), 1e308, 10**400]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main([str(arg) for arg in argv])
    assert "Traceback" not in err.getvalue()
    return code


@st.composite
def dense_json_matrices(draw):
    rows, cols = draw(INTEGER_OR_JUNK), draw(INTEGER_OR_JUNK)
    size = rows * cols if all(type(d) is int and 0 <= d <= 8 for d in (rows, cols)) else 4
    length = st.sampled_from([size, max(size - 1, 0), size + 1])
    entries = st.one_of(length.flatmap(lambda k: st.lists(ENTRY, min_size=k, max_size=k)),
                        JUNK)
    matrix = draw(st.fixed_dictionaries(
        {}, optional={"rows": st.just(rows), "cols": st.just(cols),
                      "re": entries, "im": entries}))
    return draw(st.one_of(st.just(matrix), JUNK))


@fuzz
@given(dense_json_matrices())
def test_dense_json_input_exits_0_or_2(workdir, data):
    path = workdir / "matrix.json"
    path.write_text(json.dumps(data))
    assert run_cli("classify", path) in (0, 2)


@st.composite
def well_shaped_dense_json_matrices(draw):
    """Valid ``rows`` and ``cols`` with ENTRY values, so every example
    reaches the conversion of the entries, which the shape-fuzzing
    generator above seldom does."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols)
    return {"rows": rows, "cols": cols, "re": draw(entries), "im": draw(entries)}


@fuzz
@given(well_shaped_dense_json_matrices())
def test_dense_json_entries_exit_0_or_2(workdir, data):
    path = workdir / "matrix.json"
    path.write_text(json.dumps(data))
    assert run_cli("classify", path) in (0, 2)


BANNER_WORDS = st.tuples(
    st.sampled_from(["%%MatrixMarket", "%MatrixMarket", "garbage"]),
    st.sampled_from(["matrix", "vector"]),
    st.sampled_from(["array", "coordinate", "sparse"]),
    st.sampled_from(["real", "complex", "integer", "pattern", "double"]),
    st.sampled_from(["general", "symmetric", "skew-symmetric", "hermitian", "odd"]))
NUMBER_TEXT = st.one_of(st.integers(-2, 9).map(str), ENTRY.map(repr),
                        st.sampled_from(["x", "1e400", ""]))


@st.composite
def matrix_market_files(draw):
    banner = " ".join(draw(BANNER_WORDS))
    rows, cols = draw(DIMENSIONS), draw(DIMENSIONS)
    size = [rows, cols] + draw(st.lists(st.integers(-1, 9), max_size=1))
    body = draw(st.lists(st.lists(NUMBER_TEXT, min_size=1, max_size=4), max_size=10))
    lines = [banner, " ".join(map(str, size))] + [" ".join(line) for line in body]
    return "\n".join(lines) + "\n"


@fuzz
@given(matrix_market_files())
def test_matrix_market_input_exits_0_or_2(workdir, text):
    path = workdir / "matrix.mtx"
    path.write_text(text)
    assert run_cli("classify", path) in (0, 2)


SPEC = st.fixed_dictionaries({}, optional={
    "family": st.one_of(st.sampled_from([f.value for f in Family]), JUNK),
    "n": INTEGER_OR_JUNK,
    "rank": INTEGER_OR_JUNK,
    "seed": st.one_of(st.integers(-2, 2**70), JUNK),
    "expected": JUNK,  # no spec field: a draw of an undeclared key
})


@fuzz
@given(st.one_of(SPEC, JUNK))
def test_zoo_spec_exits_0_or_2(workdir, spec):
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli("zoo", path, "--out", workdir / "zoo.mtx") in (0, 2)


@fuzz
@given(st.binary(max_size=64))
def test_arbitrary_bytes_exit_0_or_2(workdir, data):
    matrix_path, spec_path = workdir / "bytes.json", workdir / "bytes_spec.json"
    matrix_path.write_bytes(data)
    spec_path.write_bytes(data)
    assert run_cli("classify", matrix_path) in (0, 2)
    assert run_cli("zoo", spec_path, "--out", workdir / "zoo.mtx") in (0, 2)


LIBRARY_ENTRY = st.one_of(ENTRY, st.complex_numbers(max_magnitude=1e3), st.none(),
                          st.text(max_size=3), st.sampled_from(["1", "-2.5", "1+2j", "inf"]))
NESTED = st.recursive(LIBRARY_ENTRY, lambda inner: st.lists(inner, max_size=3), max_leaves=12)


@st.composite
def object_arrays(draw):
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    arr = np.empty(shape, dtype=object)
    for index in np.ndindex(*shape):
        arr[index] = draw(NESTED)
    return arr


LIBRARY_INPUTS = st.one_of(NESTED, object_arrays())


@fuzz
@given(LIBRARY_INPUTS, LIBRARY_INPUTS)
def test_library_inputs_end_in_a_report_or_an_eplab_error(a, x):
    for call in (lambda: classify(a), lambda: douglas_analysis(np.eye(2), a),
                 lambda: majorization_witness(np.eye(2), x)):
        with np.errstate(all="ignore"):
            try:
                call()
            except OperatorAnalysisError:
                pass
