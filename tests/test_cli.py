import json
import warnings

import numpy as np
import pytest

from eplab import TolerancePolicy, classify, douglas_analysis, pinv
from eplab import cli
from eplab.cli import main
from eplab.errors import NonFinite
from eplab.matio import file_digest, read_matrix, write_matrix
from eplab.reports import dump_document, make_document
from eplab.zoo import haar_unitary

from conftest import douglas_cases


@pytest.fixture()
def diag120(tmp_path):
    path = tmp_path / "d120.mtx"
    write_matrix(path, np.diag([1.0, 2.0, 0.0]).astype(complex))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fixture(capsys, diag120):
    code, out, _ = run(capsys, "classify", diag120)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "classification"
    assert doc["report"]["is_ep"] is True
    assert doc["report"]["rank"] == 2


def test_classify_rectangular_exits_2(capsys, tmp_path):
    path = tmp_path / "rect.mtx"
    write_matrix(path, np.ones((2, 3), dtype=complex))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "NotSquare" in err


def test_classify_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/matrix.mtx")
    assert code == 2 and err


def test_classify_tolerance_contrast(capsys, tmp_path):
    # near-EP matrix: adjoint range tilted by 1e-5, rank kept clean
    rng = np.random.default_rng(0)
    n, r, eps = 5, 3, 1e-5
    u = haar_unitary(n, rng)[:, :r]
    w = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    v, _ = np.linalg.qr(u + eps * w)
    path = tmp_path / "near_ep.mtx"
    write_matrix(path, u @ v.conj().T)

    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and json.loads(out)["report"]["is_ep"] is False
    code, out, _ = run(capsys, "classify", str(path), "--tol-subspace", "1e-3")
    assert code == 0 and json.loads(out)["report"]["is_ep"] is True


def test_pinv_writes_matrix_and_report(capsys, diag120, tmp_path):
    out_path = tmp_path / "dagger.mtx"
    code, out, _ = run(capsys, "pinv", diag120, "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "penrose" and doc["report"]["passed"] is True
    np.testing.assert_allclose(read_matrix(out_path), np.diag([1.0, 0.5, 0.0]),
                               atol=1e-14)


def test_pinv_writes_the_format_of_the_out_suffix(capsys, diag120, tmp_path):
    out_path = tmp_path / "p.json"
    code, _, _ = run(capsys, "pinv", diag120, "--out", str(out_path))
    assert code == 0 and json.loads(out_path.read_text())["rows"] == 3
    code, out, _ = run(capsys, "classify", str(out_path))
    assert code == 0 and json.loads(out)["report"]["rank"] == 2


def test_pinv_out_over_its_input_records_the_input_digest(capsys, tmp_path):
    # The digest names the input read, not the pseudoinverse written over it.
    path = tmp_path / "b.json"
    write_matrix(path, np.diag([1.0, 2.0, 0.0]))
    digest = file_digest([path])
    code, out, _ = run(capsys, "pinv", str(path), "--out", str(path))
    assert code == 0 and json.loads(out)["input_digest"] == digest
    np.testing.assert_array_equal(read_matrix(path), np.diag([1.0, 0.5, 0.0]))


def test_pinv_overflow_names_the_pseudoinverse_and_writes_nothing(capsys, tmp_path):
    # [[1e-310]] is finite, but 1/sigma_r is past the float range.
    message = ("the pseudoinverse overflows: 1/sigma_r is past the float range "
               "at sigma_r = 1.000e-310")
    for analysis in (pinv, classify):
        with pytest.raises(NonFinite, match=message):
            analysis([[1e-310]])
    path, out_path = tmp_path / "tiny.json", tmp_path / "dag.json"
    write_matrix(path, np.array([[1e-310]]))
    code, out, err = run(capsys, "pinv", str(path), "--out", str(out_path))
    assert code == 2 and not out and not out_path.exists()
    assert err == f"error: NonFinite: {message}\n"


@pytest.mark.parametrize("command", ["zoo", "pinv"])
def test_unknown_out_suffix_exits_2_and_writes_nothing(capsys, diag120, tmp_path, command):
    source = '{"family":"DiagHarmonic","n":3}' if command == "zoo" else diag120
    out_path = tmp_path / "z.txt"
    code, out, err = run(capsys, command, source, "--out", str(out_path))
    assert code == 2 and not out and "ParseError" in err
    assert not out_path.exists()


def test_douglas_command(capsys, tmp_path):
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    a = b @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(a_path, a)
    write_matrix(b_path, b)
    code, out, _ = run(capsys, "douglas", str(a_path), str(b_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["conditions"][0]["id"] == "range_included"
    assert doc["report"]["conditions"][0]["passed"] is True
    assert doc["report"]["residual_bc_a"] < 1e-9


def test_douglas_not_included_still_exits_0(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(a_path, np.diag([0.0, 1.0]).astype(complex))
    write_matrix(b_path, np.diag([1.0, 0.0]).astype(complex))
    code, out, _ = run(capsys, "douglas", str(a_path), str(b_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["conditions"][0]["passed"] is False
    assert "factor_c" not in doc["report"]


def _douglas_pair(tmp_path, a, b):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, a)
    write_matrix(b_path, b)
    return str(a_path), str(b_path)


@pytest.mark.parametrize("suffix", [".json", ".mtx"])
def test_douglas_factor_out_writes_the_bytes_of_write_matrix(capsys, tmp_path, suffix):
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    a_path, b_path = _douglas_pair(tmp_path, b @ rng.standard_normal((3, 3)), b)
    c_path, expected = tmp_path / f"c{suffix}", tmp_path / f"expected{suffix}"
    code, out, _ = run(capsys, "douglas", a_path, b_path, "--factor-out", str(c_path))
    assert code == 0
    assert out == run(capsys, "douglas", a_path, b_path)[1]
    c = douglas_analysis(read_matrix(a_path), read_matrix(b_path), TolerancePolicy()).factor_c
    write_matrix(expected, c)
    assert c_path.read_bytes() == expected.read_bytes()
    if suffix == ".json":
        np.testing.assert_array_equal(read_matrix(c_path), c)


def test_douglas_factor_out_keeps_signed_zeros(capsys, tmp_path):
    # C = pinv(-I) diag(1, 0) has zero entries, some of them -0.0.
    a_path, b_path = _douglas_pair(tmp_path, np.diag([1.0, 0.0]), -np.eye(2))
    c_path = tmp_path / "c.json"
    assert run(capsys, "douglas", a_path, b_path, "--factor-out", str(c_path))[0] == 0
    c = douglas_analysis(read_matrix(a_path), read_matrix(b_path)).factor_c.view(float)
    assert (np.signbit(c) & (c == 0)).any()
    np.testing.assert_array_equal(np.signbit(read_matrix(c_path).view(float)), np.signbit(c))


def test_douglas_factor_out_over_input_a_records_the_input_digest(capsys, tmp_path):
    # The digest names the inputs read, not the factor written over A.
    a_path, b_path = _douglas_pair(tmp_path, np.diag([1.0, 2.0, 0.0]), np.diag([2.0, 1.0, 0.0]))
    digest = file_digest([a_path, b_path])
    code, out, _ = run(capsys, "douglas", a_path, b_path, "--factor-out", a_path)
    assert code == 0 and json.loads(out)["input_digest"] == digest
    np.testing.assert_array_equal(read_matrix(a_path), np.diag([0.5, 2.0, 0.0]))


def test_douglas_factor_out_unknown_suffix_exits_2_before_the_analysis(capsys, monkeypatch,
                                                                        tmp_path):
    a_path, b_path = _douglas_pair(tmp_path, np.eye(2), np.eye(2))
    monkeypatch.setattr(cli, "douglas_analysis", lambda *args: pytest.fail("analysis ran"))
    c_path, doc_path = tmp_path / "c.txt", tmp_path / "d.json"
    code, out, err = run(capsys, "douglas", a_path, b_path, "--factor-out", str(c_path),
                         "--out", str(doc_path))
    assert code == 2 and not out and "ParseError" in err
    assert not c_path.exists() and not doc_path.exists()


def test_douglas_factor_out_not_included_leaves_the_path_untouched(capsys, tmp_path):
    # R(A) is not in R(B), so there is no factor C to write.
    a_path, b_path = _douglas_pair(tmp_path, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    c_path = tmp_path / "c.json"
    c_path.write_text("earlier contents")
    code, out, _ = run(capsys, "douglas", a_path, b_path, "--factor-out", str(c_path))
    assert code == 0 and json.loads(out)["report"]["conditions"][0]["passed"] is False
    assert c_path.read_text() == "earlier contents"


def test_perturb_command(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(a_path, np.diag([2.0, 2.0, 0.0]).astype(complex))
    write_matrix(b_path, np.diag([0.5, 0.0, 0.0]).astype(complex))
    code, out, _ = run(capsys, "perturb", str(a_path), str(b_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["hypotheses_pass"] is True
    assert doc["report"]["concl_ep"] is True


def test_perturb_non_ep_base_exits_2(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(a_path, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    write_matrix(b_path, np.zeros((2, 2), dtype=complex))
    code, _, err = run(capsys, "perturb", str(a_path), str(b_path))
    assert code == 2 and "SourceNotEP" in err


def test_zoo_command(capsys, tmp_path):
    out_path = tmp_path / "h4.mtx"
    code, out, _ = run(capsys, "zoo", '{"family":"DiagHarmonic","n":4}',
                       "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["expected"]["ep"] == "Yes"
    matrix = read_matrix(out_path)
    np.testing.assert_array_equal(matrix, np.diag([1, 2, 3, 4]).astype(complex))


@pytest.mark.parametrize("name", ["h.mm", "h.MTX"])
def test_zoo_writes_matrix_market_at_the_named_path(capsys, tmp_path, name):
    out_path = tmp_path / name
    code, _, _ = run(capsys, "zoo", '{"family":"DiagHarmonic","n":3}', "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(out_path))
    assert code == 0 and json.loads(out)["report"]["rank"] == 3
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_zoo_bad_spec_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "zoo", '{"family":"NoSuchFamily","n":4}',
                       "--out", str(tmp_path / "x.mtx"))
    assert code == 2 and "BadSpec" in err


@pytest.fixture(params=["missing_dir", "directory"])
def unwritable_out(request, tmp_path):
    """An ``--out`` path that cannot be opened for writing."""
    if request.param == "directory":
        path = tmp_path / "out.mtx"
        path.mkdir()
        return str(path)
    return str(tmp_path / "missing" / "out.mtx")


@pytest.mark.parametrize("command", ["zoo", "pinv"])
def test_unwritable_out_exits_2(capsys, diag120, unwritable_out, command):
    source = '{"family":"DiagHarmonic","n":3}' if command == "zoo" else diag120
    code, out, err = run(capsys, command, source, "--out", unwritable_out)
    assert code == 2 and not out
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_rows(capsys):
    code, out, _ = run(capsys, "sweep", "DiagAlternating", "--sizes", "3,5,7")
    assert code == 0
    assert out.splitlines() == ["n,gamma,rank", "3,0.3333333333,3",
                                "5,0.2,5", "7,0.1428571429,7"]


def test_sweep_to_file(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "DiagHarmonic", "--sizes", "2,4",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().splitlines() == ["n,gamma,rank", "2,1,2", "4,1,4"]


@pytest.mark.parametrize("sizes", ["3, 5", "3,,5"])
def test_sweep_sizes_skip_blank_parts(capsys, sizes):
    code, out, _ = run(capsys, "sweep", "DiagHarmonic", "--sizes", sizes)
    assert code == 0
    assert out.splitlines() == ["n,gamma,rank", "3,1,3", "5,1,5"]


def test_propsuite_clean(capsys):
    code, out, _ = run(capsys, "propsuite", "--seed", "42", "--count", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["disagreement_count"] == 0
    assert doc["report"]["checks_run"]["seven_way"] == 100


def test_propsuite_count_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "propsuite", "--count", "0")
    assert code == 64 and "usage error" in err


def test_propsuite_overtight_tolerance_fails_loud(capsys):
    code, out, _ = run(capsys, "propsuite", "--seed", "42", "--count", "20",
                       "--tol-subspace", "1e-30")
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["disagreement_count"] > 0
    first = doc["report"]["disagreements"][0]
    # counterexamples carry the offending matrix verbatim
    assert "matrix" in first and first["matrix"]["rows"] >= 1
    assert "residual" in first["detail"] or "exceeds" in first["detail"]


def test_reports_byte_identical_across_runs(capsys, diag120):
    code1, out1, _ = run(capsys, "classify", diag120)
    code2, out2, _ = run(capsys, "classify", diag120)
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("case", douglas_cases(), ids=lambda case: case[0])
def test_douglas_command_is_douglas_analysis(capsys, tmp_path, case):
    _, a, b = case
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, a)
    write_matrix(b_path, b)
    code, out, _ = run(capsys, "douglas", str(a_path), str(b_path))
    assert code == 0
    tol = TolerancePolicy()
    report = douglas_analysis(read_matrix(a_path), read_matrix(b_path), tol)
    assert out == dump_document(make_document(
        "douglas", report, file_digest([a_path, b_path]), tol))


def test_douglas_pair_past_1e154_exits_0(capsys, tmp_path):
    # B B* - A A* is past the float range; the gap is formed on A / p and
    # B / p instead, so the pair is decided and no warning is raised.
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.diag([1e200, 3.0]))
    write_matrix(b_path, np.diag([1e200, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "douglas", str(a_path), str(b_path))
    assert (code, err) == (0, "")
    conditions = json.loads(out)["report"]["conditions"]
    assert conditions == [{"id": "range_included", "residual": 3.0, "passed": True},
                          {"id": "contraction", "residual": 1.0, "passed": True}]


# Bytes are written as they are: the first is not UTF-8.
@pytest.mark.parametrize("text", [
    '{"rows": -1, "cols": -1, "re": [1]}',
    '{"rows": 0, "cols": 0, "re": []}',
    '{"rows": 1e400, "cols": 1, "re": [1]}',
    '{"rows": 1, "cols": 1, "re": [1], "im": ["x"]}',
    b'\xff\xfe{"rows":1}',
    "[" * 100_000,
    f'{{"rows": 1, "cols": 1, "re": [{10**400}]}}',
    f'{{"rows": 1, "cols": 1, "re": [1], "im": [{10**400}]}}',
    f'{{"rows": 1, "cols": 1, "re": [{"7" * 5001}]}}',
], ids=["negative", "empty", "overflow", "bad_im", "bad_utf8", "deep_nesting",
        "re_int_overflow", "im_int_overflow", "int_digit_limit"])
def test_classify_malformed_json_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2 and not out
    assert "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["classify"],
    ["classify", "a.mtx", "--tol-rank-rel", "1", "--tol-rank-abs", "1"],
    ["propsuite", "--count", "abc"],
    ["propsuite", "--seed", "-1"],
    ["douglas", "a.json", "b.json", "--seed", "-1"],
    ["douglas", "a.json", "b.json", "--seed", "0"],
    ["sweep", "DiagHarmonic", "--sizes", "0"],
    ["sweep", "DiagHarmonic", "--sizes", "-3"],
    ["sweep", "DiagHarmonic", "--sizes", "+5"],
    ["sweep", "DiagHarmonic", "--sizes", "1_0"],
    ["sweep", "DiagHarmonic", "--sizes", ","],
    ["classify", "a.mtx", "--format", "json"],
], ids=["no_command", "unknown_command", "no_input", "exclusive_flags", "bad_int",
        "propsuite_negative_seed", "douglas_negative_seed", "douglas_has_no_seed",
        "sweep_zero_size", "sweep_negative_size", "sweep_signed_size",
        "sweep_underscored_size", "sweep_no_size", "classify_has_no_format"])
def test_argparse_errors_exit_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out
    assert "usage error" in err and "usage: eplab" in err


@pytest.mark.parametrize("flag, value", [("--tol-rank-abs", "1e400"),
                                         ("--tol-subspace", "inf")])
def test_non_finite_tolerance_exits_64(capsys, tmp_path, flag, value):
    path = tmp_path / "I.json"
    write_matrix(path, np.eye(2))
    code, out, err = run(capsys, "classify", str(path), flag, value)
    assert code == 64 and not out
    assert "finite and positive" in err


@pytest.mark.parametrize("command, a, b, field, flags", [
    ("douglas", np.eye(2), 1e-200 * np.eye(2), "report.bound_k: inf", []),
    ("perturb", np.diag([1.0, 1e-14]), np.diag([1e300, 0.0]), "report.hyp_norm_product: inf",
     []),
    ("douglas", np.eye(2), 1e-200 * np.eye(2), "report.bound_k: inf", ["--factor-out", "c.json"]),
], ids=["douglas_bound_k", "perturb_hyp_norm_product", "douglas_bound_k_factor_out"])
def test_non_finite_report_value_exits_2_without_a_document(capsys, monkeypatch, tmp_path,
                                                             command, a, b, field, flags):
    # bound_k = 5e399 and ||B|| ||A+|| = 1e314 overflow to inf, which has
    # no JSON form.  The factor C = 1e200 I is finite, but not written either.
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "a.json", a)
    write_matrix(tmp_path / "b.json", b)
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, command, str(tmp_path / "a.json"),
                         str(tmp_path / "b.json"), "--out", str(out_path), *flags)
    assert code == 2 and not out and not out_path.exists()
    assert not (tmp_path / "c.json").exists()
    assert err == f"error: NonFinite: the report holds a value with no JSON form: {field}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "usage: eplab" in capsys.readouterr().out


def test_parser_built_once(capsys, monkeypatch, diag120):
    run(capsys, "classify", diag120)
    monkeypatch.setattr(cli, "build_parser", None)
    assert run(capsys, "classify", diag120)[0] == 0


# The first nine were coerced (3.7 -> 3, true -> 1) or escaped as a raw
# exception before specs went through the strict record codec.
@pytest.mark.parametrize("spec", [
    '{"family":"DiagHarmonic","n":"abc"}',
    '{"family":"DiagHarmonic","n":1e400}',
    '{"family":"DiagHarmonic","n":[3]}',
    '{"family":"RandomEP","n":4,"rank":"x"}',
    '{"family":"DiagHarmonic","n":3,"expected":"Yes"}',
    '{"family":"RandomEP","n":4,"rank":2,"seed":-1}',
    '{"family":"DiagHarmonic","n":3.7}',
    '{"family":"DiagHarmonic","n":true}',
    '{"family":"RandomEP","n":4,"rank":2,"seed":1.5}',
    '{"family":"DiagHarmonic","n":4097}',
    '{"family":3,"n":3}',
    '{"family":"DiagHarmonic","n":3,"expected":{"ep":"Yes"}}',
    '{"family":"DiagHarmonic","n":3,"expected":{"ep":"Yes","hypo_ep":"Yes","note":5}}',
    '{"family":"WeightedShift","n":3,"expected":{"ep":"No","hypo_ep":"DivergesFromPaper"}}',
    '{"family":"RandomEP","n":4,"rank":2,"sede":7}',
    '{"family":"DiagHarmonic","n":3,"expected":{"ep":"Yes","hypo_ep":"Yes","nte":"x"}}',
    '{"family":"Custom","n":3}',
    '{"family":"DiagHarmonic","n":3,"expected":{"ep":"Yes","hypo_ep":"Yes"}}',
    '{"family":"DiagHarmonic","n":3,"rank":1,"seed":5}',
])
def test_zoo_malformed_spec_exits_2(capsys, tmp_path, spec):
    out_path = tmp_path / "z.json"
    code, out, err = run(capsys, "zoo", spec, "--out", str(out_path))
    assert code == 2 and not out and not out_path.exists()
    assert "BadSpec" in err


@pytest.mark.parametrize("data", [
    b'\xff\xfe{"family":"DiagHarmonic","n":3}',
    b"[" * 100_000,
    b'{"family":"DiagHarmonic","n":' + b"7" * 5001 + b"}",
], ids=["bad_utf8", "deep_nesting", "int_digit_limit"])
def test_zoo_undecodable_spec_file_exits_2(capsys, tmp_path, data):
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "z.mtx"
    spec_path.write_bytes(data)
    code, out, err = run(capsys, "zoo", str(spec_path), "--out", str(out_path))
    assert code == 2 and not out and not out_path.exists()
    assert "ParseError" in err and "Traceback" not in err


def test_zoo_unreadable_spec_file_exits_2(capsys, tmp_path):
    out_path = tmp_path / "z.mtx"
    code, out, err = run(capsys, "zoo", str(tmp_path / "missing.json"),
                         "--out", str(out_path))
    assert code == 2 and not out and not out_path.exists()
    assert "ParseError" in err


TOLERANCE_FLAGS = ["--tol-rank-rel", "--tol-rank-abs", "--tol-subspace", "--tol-psd"]


@pytest.mark.parametrize("command, flags", [
    ("classify", ["--out", *TOLERANCE_FLAGS]),
    ("pinv", ["--out", *TOLERANCE_FLAGS]),
    ("douglas", ["--out", "--factor-out", *TOLERANCE_FLAGS]),
    ("perturb", ["--out", *TOLERANCE_FLAGS]),
    ("zoo", ["--out"]),
    ("sweep", ["--sizes", "--out"]),
    ("propsuite", ["--seed", "--count", "--out", *TOLERANCE_FLAGS]),
])
def test_subcommand_help_lists_its_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    listed = {word.strip("[],") for word in capsys.readouterr().out.split()
              if word.lstrip("[").startswith("--")}
    assert listed == {"--help", *flags}


def test_perturb_overflowed_sum_exits_2_without_warnings(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.diag([1.5e308, 1.0]))
    write_matrix(b_path, np.diag([1.5e308, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "perturb", str(a_path), str(b_path))
    assert (code, out) == (2, "")
    assert err == "error: NonFinite: the perturbed matrix A + B overflows the float range\n"


def test_douglas_overflowed_factor_exits_2_without_warnings(capsys, tmp_path):
    # Both inputs are finite; the factor C = pinv(B) A = 1e310 I is not.
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, 1e150 * np.eye(2))
    write_matrix(b_path, 1e-160 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "douglas", str(a_path), str(b_path))
    assert (code, out) == (2, "")
    assert err == "error: NonFinite: the factor C = pinv(B) A overflows the float range\n"


def test_douglas_of_a_finite_hermitian_part_exits_0_without_warnings(capsys, tmp_path):
    # B B* = diag(1.69e308, 1) is finite, and A = 0 is majorized by it.
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.zeros((2, 2)))
    write_matrix(b_path, np.diag([1.3e154, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "douglas", str(a_path), str(b_path))
    assert (code, err) == (0, "")
    assert [(c["id"], c["passed"]) for c in json.loads(out)["report"]["conditions"]] == [
        ("range_included", True), ("contraction", True)]


@pytest.mark.parametrize("argv", [
    ["classify", "big.json"],
    ["pinv", "big.json", "--out", "p.json"],
    ["douglas", "big.json", "big.json"],
    ["perturb", "eye.json", "big.json"],
    ["douglas", "big.json", "cut.json"],
    ["douglas", "big.json", "eye.json"],
], ids=["classify", "pinv", "douglas", "perturb", "douglas_a_cut", "douglas_a_eye"])
def test_an_overflowed_two_norm_exits_2_without_warnings(capsys, monkeypatch, tmp_path, argv):
    # Every entry of big.json is finite; its 2-norm 4.5e308 is not.  The
    # Douglas A is no operand, yet its 2-norm is refused like an operand's.
    monkeypatch.chdir(tmp_path)
    write_matrix("big.json", np.full((3, 3), 1.5e308))
    write_matrix("eye.json", np.eye(3))
    write_matrix("cut.json", np.diag([1.0, 1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: NonFinite: the 2-norm sigma_1 of the matrix overflows the float range\n"
    assert not (tmp_path / "p.json").exists()
