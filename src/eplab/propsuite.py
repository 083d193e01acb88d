"""Property-suite runner: theorem-level consistency sweeps over a corpus.

For each corpus matrix the runner checks that the seven EP condition
booleans agree pairwise, that the EP and hypo-EP verdicts coincide (they
must in finite dimension), that hypo2 and chain3 agree (chain2 and chain4
are hypo2's residual, so theirs cannot differ), that the pseudoinverse
identities hold at tolerance, that the EP closure suite stays EP, and that
a random Douglas factorization is sound.  Any violation is recorded with
the offending matrix verbatim.
"""

from __future__ import annotations

import numpy as np

from .classify import _EP_IDS, ClassificationReport, _classify, _closure
from .core import DEFAULT_TOL, ConditionCheck, TolerancePolicy, _Operand, op_norm
from .douglas import _inclusion
from .matio import matrix_to_json_dict
from .pinv import _identities
from .zoo import corpus_matrix

_CHECKS = ("seven_way", "collapse", "chain", "dagger", "closure", "douglas")


def _violations(op: _Operand, report: ClassificationReport, rng: np.random.Generator):
    """The ``(check, detail)`` pair of each violation on one corpus matrix, in
    ``_CHECKS`` order; ``report`` is ``_classify(op)``.  The closure check
    runs only when ``report`` is EP; the Douglas check draws its factor from
    ``rng``."""
    flags = [report.condition(cid).passed for cid in _EP_IDS]
    if len(set(flags)) > 1:
        yield "seven_way", (f"EP condition booleans disagree: {flags}, residuals="
                            f"{[report.condition(cid).residual for cid in _EP_IDS]}")
    if report.is_ep != report.is_hypo_ep:
        yield "collapse", f"is_ep={report.is_ep} but is_hypo_ep={report.is_hypo_ep}"
    chain = [report.condition(cid).passed for cid in ("hypo2", "chain2", "chain3", "chain4")]
    if chain[0] != chain[2]:
        yield "chain", f"implication chain broken: {chain}"
    for check in _identities(op):
        if not check.passed:
            yield "dagger", f"identity {check.condition_id} failed at residual {check.residual:.3e}"
    if report.is_ep:
        for name, is_ep in _closure(op):
            if not is_ep:
                yield "closure", f"closure member {name} did not classify EP"

    n = op.arr.shape[1]
    k = int(rng.integers(1, n + 1))
    c = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    product = op.arr @ c
    norm_product = op_norm(product)
    inclusion = _inclusion(product, norm_product, op)
    if not inclusion.passed:
        yield "douglas", f"R(A C) is not contained in R(A) (residual {inclusion.residual:.3e})"
        return
    # ||A C' - A C|| for the minimal-norm factor C' = A+ (A C).
    residual = op_norm(op.arr @ (op.pinv @ product) - product)
    bound = op.tol.residual_bound(norm_product)
    if not ConditionCheck.judge("factorization", residual, bound).passed:
        yield "douglas", f"factorization residual {residual:.3e} exceeds {bound:.3e}"


def run_property_suite(count: int, seed: int = 0, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Run all consistency sweeps over ``count`` seeded corpus matrices.

    Returns the propsuite document's report: ``count``, ``seed``,
    ``checks_run`` (the matrices each check ran on: ``count`` for every
    check but ``closure``, which runs on the matrices classified EP),
    ``disagreements`` (one object per violation, with the matrix) and
    ``disagreement_count``.
    """
    disagreements, ep_count = [], 0
    for index in range(count):
        label, a = corpus_matrix(index, seed=seed)
        op = _Operand(a, tol)
        report = _classify(op)
        ep_count += report.is_ep
        rng = np.random.default_rng([seed, index, 1])
        disagreements += ({"index": index, "label": label, "check": check, "detail": detail,
                           "matrix": matrix_to_json_dict(a)}
                          for check, detail in _violations(op, report, rng))
    checks_run = {**dict.fromkeys(_CHECKS, count), "closure": ep_count}
    return {"count": count, "seed": seed, "checks_run": checks_run,
            "disagreement_count": len(disagreements), "disagreements": disagreements}
