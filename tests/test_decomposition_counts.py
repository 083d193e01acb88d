"""Upper bounds on the decompositions each entry point runs.

The operands are those of ``perfbench/counts.py`` at n=16: an EP matrix of
rank 12 and an admissible perturbation of it.  Both the public
``numpy.linalg`` functions and the names that ``numpy.linalg.norm`` calls
internally are counted, so a hidden SVD inside a matrix norm counts too.
"""

import gc
import inspect
from collections import Counter

import numpy as np
import pytest

from eplab import (check_perturbation, classify, closed_range_panel, dagger_identities,
                   douglas_analysis, ep_closure_suite, generate_admissible,
                   majorization_witness)
from eplab import cli, write_matrix
from eplab import douglas as douglas_module
from eplab.core import _Operand
from eplab.propsuite import run_property_suite
from eplab.zoo import random_ep

from conftest import douglas_cases

N = 16


@pytest.fixture(scope="module")
def operands():
    a = random_ep(N, 3 * N // 4, np.random.default_rng(0))
    return a, generate_admissible(a, 0.5, 0)


@pytest.fixture
def counts(monkeypatch):
    """Counter of ``svd`` (full), ``("svdvals", shape)`` (values only),
    ``eigvalsh`` and ``qr`` calls made while the test runs."""
    tally = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name == "svd" and not kwargs.get("compute_uv", True):
                tally["svdvals", np.shape(args[0])] += 1
            else:
                tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # The namespace numpy.linalg.norm resolves ``svd`` in.
    internal = inspect.unwrap(np.linalg.norm).__globals__
    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        monkeypatch.setitem(internal, name, counting(name, internal[name]))
    monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
    return tally


def test_classify_decompositions(operands, counts):
    a, _ = operands
    assert classify(a).is_ep
    assert counts["svd"] == 3
    # ep2's ||A A+ - A+ A|| is the one n x n norm.
    assert counts["svdvals", (N, N)] <= 1
    # ep6 and hypo2 share one ||R(A+)_perp* R(A)||.
    assert sum(n for key, n in counts.items() if key[0] == "svdvals") <= 7
    assert counts["eigvalsh"] == 1


def test_classify_hermitian_decomposes_a_once(operands, counts):
    # A* equals A by value (conj puts -0.0 where A has +0.0), so A's SVD
    # serves A*: one full SVD for A and one for A+.
    a, _ = operands
    assert classify(a + a.conj().T).is_ep
    assert counts["svd"] == 2


def _hermitian_adjoint_first(a):
    op = _Operand(a + a.conj().T)
    assert op.adjoint.factors is op.factors


# Full SVDs where a matrix equal by value to one already decomposed in the
# same analysis takes its factors, whichever is decomposed first.  The
# Hermitian panel and the property suite have tests of their own below.
SHARED_FACTOR_CASES = {
    "classify_zero": (lambda a: classify(np.zeros((5, 5))), 1),
    "ep_closure_suite_hermitian": (lambda a: ep_closure_suite(a + a.conj().T), 6),
    "dagger_identities_hermitian": (lambda a: dagger_identities(a + a.conj().T), 3),
    "dagger_identities_zero": (lambda a: dagger_identities(np.zeros((5, 5))), 1),
    "check_perturbation_zero": (lambda a: check_perturbation(a, np.zeros_like(a)), 3),
    "hermitian_adjoint_first": (_hermitian_adjoint_first, 1),
}


@pytest.mark.parametrize("case", SHARED_FACTOR_CASES)
def test_equal_matrices_share_one_svd(operands, counts, case):
    call, expected = SHARED_FACTOR_CASES[case]
    call(operands[0])
    assert counts["svd"] == expected


def test_adjoint_takes_factors_only_from_an_equal_matrix(operands):
    a, _ = operands
    op = _Operand(a)
    op.factors
    assert op.adjoint.adjoint.factors is op.factors  # A** is A
    assert "factors" not in op.adjoint.__dict__  # A* is not A
    herm = _Operand(a + a.conj().T)
    herm.factors
    assert herm.adjoint.factors is herm.factors


def test_check_perturbation_decompositions(operands, counts):
    a, b = operands
    assert check_perturbation(a, b).hypotheses_pass
    assert counts["svd"] <= 6
    # ||B||, and ep2 in the classification of A and of A + B; the
    # hypotheses are (n - r) x n cross products.
    assert counts["svdvals", (N, N)] <= 3
    # Only ep1..ep7 are read, so chain3 runs for neither matrix.
    assert counts["eigvalsh"] == 0


def test_ep_closure_suite_decompositions(operands, counts):
    a, _ = operands
    assert all(is_ep for _, is_ep in ep_closure_suite(a))
    # A, A* and A+; (A*)+ for the adjoint member, whose adjoint A** takes
    # A's SVD; then each exactly Hermitian member and its pseudoinverse,
    # the member's adjoint taking the member's SVD.
    assert counts["svd"] <= 10
    # Every verdict is ep1..ep7 alone, so chain3's eigvalsh never runs.
    assert counts["eigvalsh"] == 0


def test_closed_range_panel_decompositions(operands, counts):
    a, _ = operands
    assert all(item.passed for item in closed_range_panel(a))
    # A, A A*, A* and A* A; one values-only SVD per item's residual.
    assert counts["svd"] <= 4
    assert sum(n for key, n in counts.items() if key[0] == "svdvals") <= 3
    assert counts["eigvalsh"] == 0


def test_closed_range_panel_hermitian_decomposes_a_once(operands, counts):
    # The exactly Hermitian A* takes A's SVD, and A* A takes A A*'s.
    a, _ = operands
    assert all(item.passed for item in closed_range_panel(a + a.conj().T))
    assert counts["svd"] == 2


def test_douglas_analysis_excluded_pair_computes_no_growth_bound(counts):
    (_, a, b), = [case for case in douglas_cases() if case[0] == "not_included_majorized"]
    counts.clear()  # building the cases decomposes too
    assert not douglas_analysis(a, b).range_included
    assert counts["qr"] == 0


def test_majorization_witness_decompositions(operands, counts):
    # Only hypo1 and hypo2 are read: the SVDs of A, A* and A+, one cross
    # product for each and no chain3 eigvalsh.
    a, _ = operands
    majorization_witness(a, np.ones(N))
    assert counts["svd"] == 3
    assert sum(n for key, n in counts.items() if key[0] == "svdvals") <= 2
    assert counts["eigvalsh"] == 0


def test_dagger_identities_decompositions(operands, counts):
    a, _ = operands
    dagger_identities(a)
    assert counts["svd"] <= 6


def test_property_suite_decompositions(counts):
    assert run_property_suite(10, seed=0)["disagreement_count"] == 0
    assert counts["svd"] <= 78
    # chain3 and the two Gram PSD checks of each of the ten matrices.
    assert counts["eigvalsh"] <= 30


def test_cli_pinv_decomposes_a_and_its_pinv_once(operands, counts, tmp_path, capsys):
    a, _ = operands
    write_matrix(tmp_path / "a.json", a)
    assert cli.main(["pinv", str(tmp_path / "a.json"), "--out", str(tmp_path / "p.json")]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert counts["svd"] == 2


def test_operands_are_freed_without_the_cycle_collector(operands):
    # An operand in a reference cycle keeps its arrays until the cycle
    # collector runs, which numpy allocations do not trigger.
    a, _ = operands
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        classify(a)
        classify(a + a.conj().T)
        ep_closure_suite(a)
        run_property_suite(10, seed=0)
        dagger_identities(a)
        gc.collect()
        cyclic = [obj for obj in gc.garbage if isinstance(obj, _Operand)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not cyclic


def test_douglas_analysis_skips_factor_when_not_included(monkeypatch):
    # Not included but majorized: only contraction_ok is reported, so the
    # growth bound and ||B C - A|| must not be computed.
    (_, a, b), = [case for case in douglas_cases() if case[0] == "not_included_majorized"]

    def unused(*args, **kwargs):
        raise AssertionError("growth bound computed for a dropped factor")

    monkeypatch.setattr(douglas_module, "growth_bound", unused)
    report = douglas_analysis(a, b)
    assert (report.range_included, report.contraction_ok) == (False, True)
    assert report.factor_c is None and report.bound_k is None


def test_property_suite_computes_no_growth_bound(monkeypatch):
    # The suite's Douglas check reads the inclusion verdict and ||A C' - A C||
    # only, so the factor's growth bound is never needed.
    def unused(*args, **kwargs):
        raise AssertionError("growth bound computed for the property suite")

    monkeypatch.setattr(douglas_module, "growth_bound", unused)
    assert run_property_suite(10, seed=0)["disagreement_count"] == 0


def test_classify_subspace_products_avoid_n(operands, counts):
    # Rank 12 of 16: every subspace residual is a 4 x 12 or 12 x 4 product.
    a, _ = operands
    classify(a)
    other = [key[1] for key in counts
             if key[0] == "svdvals" and key[1] != (N, N) and N in key[1]]
    assert not other
