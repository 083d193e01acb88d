import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eplab
from eplab import (DouglasReport, TolerancePolicy, ZooReport, check_perturbation,
                   classify, cli, douglas_analysis, penrose_verify, pinv)
from eplab.errors import NonFinite, ParseError
from eplab.matio import _decode, _encode
from eplab.reports import decode_document, dump_document, make_document

from conftest import random_complex


def roundtrip(doc):
    return json.loads(dump_document(doc))


def test_tolerance_round_trip():
    for tol in (TolerancePolicy(rank_abs=1e-12, subspace_tol=1e-7, psd_tol=1e-10),
                TolerancePolicy()):
        assert _decode(TolerancePolicy, _encode(TolerancePolicy, tol)) == tol


def test_classification_document_round_trip():
    rep = classify(np.diag([1.0, 2.0, 0.0]))
    doc = make_document("classification", rep, "sha256:xyz", TolerancePolicy())
    kind, decoded, digest, tol = decode_document(roundtrip(doc))
    assert kind == "classification" and digest == "sha256:xyz"
    assert tol == TolerancePolicy()
    assert decoded == rep


def test_penrose_document_round_trip():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 3, 4)
    rep = penrose_verify(a, pinv(a))
    doc = make_document("penrose", rep, "sha256:abc", TolerancePolicy())
    _, decoded, _, _ = decode_document(roundtrip(doc))
    assert decoded == rep


def test_douglas_document_round_trip():
    rng = np.random.default_rng(1)
    b = random_complex(rng, 4, 3)
    rep = douglas_analysis(b @ random_complex(rng, 3, 2), b)
    doc = make_document("douglas", rep, "sha256:d", TolerancePolicy())
    _, decoded, _, _ = decode_document(roundtrip(doc))
    assert decoded.range_included == rep.range_included
    assert decoded.residual_range == rep.residual_range
    assert decoded.residual_bc_a == rep.residual_bc_a
    assert decoded.bound_k == rep.bound_k
    assert decoded.contraction_ok is None
    np.testing.assert_array_equal(decoded.factor_c, rep.factor_c)


def test_undeclared_key_in_a_matrix_payload_is_parse_error():
    rng = np.random.default_rng(1)
    b = random_complex(rng, 4, 3)
    doc = roundtrip(make_document("douglas", douglas_analysis(b @ random_complex(rng, 3, 2), b),
                                  "sha256:d", TolerancePolicy()))
    doc["report"]["factor_c"]["bogus"] = 1
    with pytest.raises(ParseError, match="unknown keys"):
        decode_document(doc)


def test_perturbation_document_round_trip():
    a = np.diag([2.0, 2.0, 0.0])
    b = np.diag([0.5, 0.0, 0.0])
    rep = check_perturbation(a, b)
    doc = make_document("perturbation", rep, "sha256:p", TolerancePolicy())
    _, decoded, _, _ = decode_document(roundtrip(doc))
    assert decoded == rep


def test_document_carries_version_and_tolerance():
    rep = classify(np.eye(2))
    tol = TolerancePolicy(subspace_tol=1e-5)
    doc = make_document("classification", rep, "sha256:v", tol)
    assert doc["tool_version"] == eplab.__version__
    assert doc["tolerance"]["subspace_tol"] == 1e-5
    assert doc["tolerance"]["rank_rel"] is None


def test_dump_document_deterministic():
    rep = classify(np.diag([1.0, 0.0]))
    doc = make_document("classification", rep, "sha256:s", TolerancePolicy())
    assert dump_document(doc) == dump_document(
        make_document("classification", classify(np.diag([1.0, 0.0])),
                      "sha256:s", TolerancePolicy()))


def test_signed_zeros_round_trip_byte_exactly():
    c = np.empty((2, 2), dtype=np.complex128)
    c.real = [[-0.0, 1.0], [0.0, -2.0]]
    c.imag = [[0.0, -0.0], [-0.0, 3.0]]
    rep = DouglasReport(range_included=True, residual_range=0.0, factor_c=c,
                        residual_bc_a=-0.0, bound_k=0.5, contraction_ok=None)
    text = dump_document(make_document("douglas", rep, "sha256:z", TolerancePolicy()))
    assert text.count("-0.0") == 4
    kind, decoded, digest, tol = decode_document(json.loads(text))
    assert dump_document(make_document(kind, decoded, digest, tol)) == text


def test_decoding_is_strict_about_json_types():
    assert _decode(TolerancePolicy, {"subspace_tol": 1}).subspace_tol == 1.0
    for bad in ({"subspace_tol": True}, {"subspace_tol": "1e-8"}, {"subspace_tol": 10**400},
                {"subspace_tol": [1e-8]}, [1e-8], {"subspace_tol": 1e-8, "subspace": 1e-8}):
        with pytest.raises(ParseError):
            _decode(TolerancePolicy, bad)
    doc = json.loads(dump_document(make_document(
        "classification", classify(np.eye(2)), "sha256:t", TolerancePolicy())))
    for value in (2.0, True, "2"):
        doc["report"]["rank"] = value
        with pytest.raises(ParseError):
            decode_document(doc)
    doc["report"]["rank"] = 2
    decode_document(doc)
    for record in (doc["report"], doc["report"]["conditions"][0]):
        record["extra"] = 0
        with pytest.raises(ParseError, match="unknown keys"):
            decode_document(doc)
        del record["extra"]


@pytest.mark.parametrize("argv, report_type", [
    (["zoo", '{"family":"RandomEP","n":4,"rank":2,"seed":3}', "--out", "z.json"], ZooReport),
    (["zoo", '{"family":"WeightedShift","n":3}', "--out", "z.mtx"], ZooReport),
    (["propsuite", "--count", "3"], dict),
], ids=["zoo_json", "zoo_mtx", "propsuite"])
def test_cli_documents_decode_to_their_record(capsys, monkeypatch, tmp_path, argv,
                                               report_type):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    kind, report, digest, tol = decode_document(json.loads(text))
    assert kind == argv[0] and type(report) is report_type
    assert dump_document(make_document(kind, report, digest, tol)) == text


def _classification_document() -> dict:
    return roundtrip(make_document("classification", classify(np.eye(2)), "sha256:m",
                                   TolerancePolicy()))


def _without(key: str):
    return lambda doc: {name: value for name, value in doc.items() if name != key}


_ENVELOPE_KEYS = ("tool_version", "input_digest", "tolerance", "kind", "report")


@pytest.mark.parametrize("edit", [
    lambda doc: {},
    lambda doc: [],
    *[_without(key) for key in _ENVELOPE_KEYS],
    lambda doc: {**doc, "extra": 0},
    lambda doc: {**doc, "input_digest": 5},
    lambda doc: {**doc, "kind": "nosuch"},
    lambda doc: {**doc, "kind": "propsuite", "report": []},
], ids=["empty_object", "list", *[f"without_{key}" for key in _ENVELOPE_KEYS],
        "undeclared_key", "numeric_digest", "unknown_kind", "propsuite_list_report"])
def test_malformed_document_is_parse_error(edit):
    doc = _classification_document()
    decode_document(doc)
    with pytest.raises(ParseError):
        decode_document(edit(doc))


@pytest.mark.parametrize("edit", [
    lambda report: report["spec"].update(n=0),
    lambda report: report.update(rows=-3),
    lambda report: report.update(cols=5000),
], ids=["spec_n_zero", "negative_rows", "cols_above_cap"])
def test_out_of_range_zoo_document_is_parse_error(capsys, monkeypatch, tmp_path, edit):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["zoo", '{"family":"WeightedShift","n":3}', "--out", "z.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    decode_document(doc)
    edit(doc["report"])
    with pytest.raises(ParseError):
        decode_document(doc)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**100, 2**100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, float("nan"),
                     float("inf"), -float("inf")]),
    st.text(max_size=6),
    st.sampled_from([", ", "[1, 2]", "{}", '"', "\\", "\n", "é€𝄞", ",\n  "]))
_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5), st.dictionaries(st.text(max_size=4), children, max_size=5)),
    max_leaves=40)


def _indented(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TREES)
@example([])
@example({})
@example([[], {}, [[]], {"a": {}, "b": [[], [{}]]}])
@example({"re": [1.5, -0.0, 2**64], "im": ["a, b", None, True]})
@example({"bound_k": float("inf")})
@example({"re": [1.5, float("nan")], "im": [-float("inf")]})
def test_dump_document_matches_indented_json_dumps(tree):
    try:
        json.dumps(tree, allow_nan=False)
    except ValueError:
        with pytest.raises(NonFinite):
            dump_document(tree)
    else:
        assert dump_document(tree) == _indented(tree)


@pytest.mark.parametrize("tree, found", [
    ({"report": {"bound_k": float("inf"), "a": 1.0}}, "report.bound_k: inf"),
    ({"report": {"c": {"re": [1.5, float("nan")], "im": [-float("inf")]}}},
     "report.c.im[0]: -inf"),
    ([{"x": [0.0, [np.float64(-np.inf)]]}], "[0].x[1][0]: -inf"),
])
def test_non_finite_names_the_first_key_path_in_key_order(tree, found):
    with pytest.raises(NonFinite, match=re.escape(f"no JSON form: {found}") + "$"):
        dump_document(tree)


@pytest.mark.parametrize("argv", [
    ["classify", "a.json"],
    ["pinv", "a.json", "--out", "p.json"],
    ["douglas", "a.json", "a.json"],
    ["perturb", "a.json", "b.json"],
    ["zoo", '{"family":"RandomEP","n":4,"rank":2,"seed":3}', "--out", "z.json"],
    ["propsuite", "--count", "3"],
], ids=lambda argv: argv[0])
def test_cli_documents_render_as_indented_json_dumps(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    a = eplab.zoo.random_ep(5, 3, np.random.default_rng(0))
    eplab.write_matrix(tmp_path / "a.json", a)
    eplab.write_matrix(tmp_path / "b.json", eplab.generate_admissible(a, 0.5, 0))
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert text == _indented(json.loads(text))
