import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eplab
from eplab import (ConditionCheck, DouglasReport, TolerancePolicy, ZooReport,
                   check_perturbation, classify, cli, douglas_analysis, penrose_verify, pinv)
from eplab.errors import NonFinite, ParseError
from eplab.matio import _decode, _encode
from eplab.propsuite import run_property_suite
from eplab.reports import _REPORT_TYPES, decode_document, dump_document, make_document

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


def _douglas_report():
    rng = np.random.default_rng(1)
    b = random_complex(rng, 4, 3)
    return douglas_analysis(b @ random_complex(rng, 3, 2), b)


def test_douglas_document_round_trip():
    # The factor C stays in memory: the document has no key for it.
    rep = _douglas_report()
    assert rep.factor_c is not None
    doc = make_document("douglas", rep, "sha256:d", TolerancePolicy())
    assert "factor_c" not in doc["report"]
    _, decoded, _, _ = decode_document(roundtrip(doc))
    assert decoded.conditions == rep.conditions
    assert decoded.residual_bc_a == rep.residual_bc_a
    assert decoded.bound_k == rep.bound_k
    assert decoded.contraction_ok is None
    assert decoded.factor_c is None


@pytest.mark.parametrize("factor_c", [None, {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}],
                         ids=["null", "matrix"])
def test_douglas_document_with_a_factor_c_key_is_parse_error(factor_c):
    # An earlier version wrote the factor C into the document.
    doc = roundtrip(make_document("douglas", _douglas_report(), "sha256:d", TolerancePolicy()))
    decode_document(doc)
    doc["report"]["factor_c"] = factor_c
    with pytest.raises(ParseError, match=re.escape("unknown keys ['factor_c']")):
        decode_document(doc)


def _payloads(value, path: str = "") -> list[str]:
    """The key path of every matrix payload, an object with ``re`` or ``im``,
    in ``value``."""
    if isinstance(value, dict):
        found = [path] if {"re", "im"} & set(value) else []
        return found + [p for key, item in value.items() for p in _payloads(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [p for index, item in enumerate(value) for p in _payloads(item, f"{path}[{index}]")]
    return []


def test_no_document_kind_carries_a_matrix_payload():
    # Documents hold numbers and verdicts; matrices go to files.  The
    # propsuite's disagreement reproducers, which call matrix_to_json_dict
    # themselves, are the exception; a clean run has none.
    a = eplab.zoo.random_ep(5, 3, np.random.default_rng(0))
    spec = eplab.OperatorSpec(eplab.Family.RANDOM_EP, 4, 2, 3)
    reports = {
        "classification": classify(a),
        "penrose": penrose_verify(a, pinv(a)),
        "douglas": douglas_analysis(a, a),
        "perturbation": check_perturbation(a, eplab.generate_admissible(a, 0.5, 0)),
        "zoo": ZooReport(spec, eplab.generate(spec)[1], "z.json"),
        "propsuite": run_property_suite(3),
    }
    assert set(reports) == set(_REPORT_TYPES)
    assert reports["douglas"].factor_c is not None
    for kind, report in reports.items():
        assert _payloads(make_document(kind, report, "sha256:s", TolerancePolicy())) == [], kind


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


def test_signed_zero_report_value_round_trips_byte_exactly():
    # The factor's own signed zeros go to a matrix file (test_matio); the
    # document keeps those of its numbers.
    rep = DouglasReport(conditions=(ConditionCheck("range_included", -0.0, True),),
                        factor_c=-np.zeros((2, 2), dtype=complex), residual_bc_a=-0.0,
                        bound_k=0.5)
    text = dump_document(make_document("douglas", rep, "sha256:z", TolerancePolicy()))
    assert text.count("-0.0") == 2
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


# Reports of an earlier version, whose checks were bare field pairs.
_BARE_DOUGLAS = {"range_included": True, "residual_range": 0.0, "factor_c": None,
                 "residual_bc_a": None, "bound_k": None, "contraction_ok": None}
_BARE_PERTURBATION = {
    "hyp_norm_product": 0.25, "hyp_b_adag_a": 0.0, "hyp_a_adag_b": 0.0,
    "hypotheses_pass": True, "concl_ep": True, "concl_null_equal": True,
    "residual_null_equal": 0.0, "concl_range_equal": True, "residual_range_equal": 0.0,
    "concl_gamma_bound": True, "gamma_a": 2.0, "gamma_perturbed": 2.0, "norm_b": 0.5}


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
    lambda doc: {**doc, "kind": "douglas", "report": _BARE_DOUGLAS},
    lambda doc: {**doc, "kind": "perturbation", "report": _BARE_PERTURBATION},
], ids=["empty_object", "list", *[f"without_{key}" for key in _ENVELOPE_KEYS],
        "undeclared_key", "numeric_digest", "unknown_kind", "propsuite_list_report",
        "bare_field_douglas", "bare_field_perturbation"])
def test_malformed_document_is_parse_error(edit):
    doc = _classification_document()
    decode_document(doc)
    with pytest.raises(ParseError):
        decode_document(edit(doc))


@pytest.mark.parametrize("edit", [
    lambda report: report["spec"].update(n=0),
    # the earlier shape, which repeated spec.n as rows and cols
    lambda report: report.update(rows=3, cols=3),
], ids=["spec_n_zero", "rows_and_cols"])
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
