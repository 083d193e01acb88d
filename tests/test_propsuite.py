"""What the propsuite document says beyond its disagreement count, pinned at
an overtight subspace tolerance.  At 3e-16 every check fails on some of the
first 200 seed-0 corpus matrices, and hypo2 and chain3 disagree both ways:
hypo2 passes where chain3 fails, and the converse."""

from collections import defaultdict

import pytest

from eplab import TolerancePolicy, classify
from eplab.propsuite import _CHECKS, run_property_suite
from eplab.zoo import corpus_matrix

COUNT = 200
TOL = TolerancePolicy(subspace_tol=3e-16)


@pytest.fixture(scope="module")
def overtight():
    """The report of ``COUNT`` matrices at ``TOL``, and the ``classify`` report of each."""
    reports = [classify(corpus_matrix(i, seed=0).matrix, TOL) for i in range(COUNT)]
    return run_property_suite(COUNT, seed=0, tol=TOL), reports


def test_checks_run_counts_the_matrices_each_check_ran_on(overtight):
    suite, reports = overtight
    ep_count = sum(report.is_ep for report in reports)
    assert 0 < ep_count < COUNT
    assert suite["checks_run"] == {**dict.fromkeys(_CHECKS, COUNT), "closure": ep_count}
    assert list(suite["checks_run"]) == list(_CHECKS)


def test_chain_record_exactly_when_hypo2_and_chain3_disagree(overtight):
    suite, reports = overtight
    chain = {d["index"] for d in suite["disagreements"] if d["check"] == "chain"}
    verdicts = [(report.condition("hypo2").passed, report.condition("chain3").passed)
                for report in reports]
    assert {(True, False), (False, True)} <= set(verdicts)
    assert chain == {i for i, (hypo2, chain3) in enumerate(verdicts) if hypo2 != chain3}
    assert sum(d["check"] == "chain" for d in suite["disagreements"]) == len(chain)


def test_records_follow_check_order_within_a_matrix(overtight):
    suite, _ = overtight
    checks = defaultdict(list)
    for d in suite["disagreements"]:
        checks[d["index"]].append(_CHECKS.index(d["check"]))
    assert list(checks) == sorted(checks)
    assert any(len(set(order)) > 1 for order in checks.values())
    for order in checks.values():
        assert order == sorted(order)
