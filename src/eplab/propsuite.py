"""Property-suite runner: theorem-level consistency sweeps over a corpus.

For each corpus matrix the runner checks that the seven EP condition
booleans agree pairwise, that the EP and hypo-EP verdicts coincide (they
must in finite dimension), that the hypo-EP implication chain never breaks,
that the pseudoinverse identities hold at tolerance, that the EP closure
suite stays EP, and that a random Douglas factorization is sound.  Any
violation is recorded with the offending matrix verbatim.
"""

from __future__ import annotations

import numpy as np

from .classify import _EP_IDS, _classify, _closure
from .core import DEFAULT_TOL, TolerancePolicy, _Operand, op_norm
from .douglas import _inclusion
from .matio import matrix_to_json_dict
from .pinv import _identities
from .zoo import corpus_matrix

_CHECKS = ("seven_way", "collapse", "chain", "dagger", "closure", "douglas")


def _record(disagreements: list, index: int, label: str, check: str,
            detail: str, matrix) -> None:
    disagreements.append({
        "index": index,
        "label": label,
        "check": check,
        "detail": detail,
        "matrix": matrix_to_json_dict(matrix),
    })


def run_property_suite(count: int, seed: int = 0, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Run all consistency sweeps over ``count`` seeded corpus matrices.

    Returns the propsuite document's report: ``count``, ``seed``,
    ``checks_run`` (how often each check ran), ``disagreements`` (one
    object per violation, with the matrix) and ``disagreement_count``.
    """
    checks_run, disagreements = dict.fromkeys(_CHECKS, 0), []

    for index in range(count):
        label, a = corpus_matrix(index, seed=seed)
        rng = np.random.default_rng([seed, index, 1])

        op = _Operand(a, tol)
        report = _classify(op)
        flags = [report.condition(cid).passed for cid in _EP_IDS]
        checks_run["seven_way"] += 1
        if len(set(flags)) > 1:
            _record(disagreements, index, label, "seven_way",
                    f"EP condition booleans disagree: {flags}, residuals="
                    f"{[report.condition(cid).residual for cid in _EP_IDS]}", a)

        checks_run["collapse"] += 1
        if report.is_ep != report.is_hypo_ep:
            _record(disagreements, index, label, "collapse",
                    f"is_ep={report.is_ep} but is_hypo_ep={report.is_hypo_ep}", a)

        checks_run["chain"] += 1
        sequence = [report.condition(cid).passed
                    for cid in ("hypo2", "chain2", "chain3", "chain4")]
        for first, second in zip(sequence, sequence[1:]):
            if first and not second:
                _record(disagreements, index, label, "chain",
                        f"implication chain broken: {sequence}", a)
                break

        checks_run["dagger"] += 1
        for check in _identities(op):
            if not check.passed:
                _record(disagreements, index, label, "dagger",
                        f"identity {check.condition_id} residual {check.residual:.3e} "
                        f"exceeds {tol.residual_bound(op.scale):.3e}", a)

        if report.is_ep:
            checks_run["closure"] += 1
            for name, is_ep in _closure(op):
                if not is_ep:
                    _record(disagreements, index, label, "closure",
                            f"closure member {name} did not classify EP", a)

        checks_run["douglas"] += 1
        n = a.shape[1]
        k = int(rng.integers(1, n + 1))
        c = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        product = a @ c
        norm_product = op_norm(product)
        inclusion = _inclusion(product, norm_product, op)
        if not inclusion.ok:
            _record(disagreements, index, label, "douglas",
                    f"R(A C) is not contained in R(A) (residual {inclusion.residual:.3e})", a)
        else:
            # ||A C' - A C|| for the minimal-norm factor C' = A+ (A C).
            residual = op_norm(op.arr @ (op.pinv @ product) - product)
            bound = tol.residual_bound(norm_product)
            if residual > bound:
                _record(disagreements, index, label, "douglas",
                        f"factorization residual {residual:.3e} exceeds {bound:.3e}", a)

    return {"count": count, "seed": seed, "checks_run": checks_run,
            "disagreement_count": len(disagreements), "disagreements": disagreements}
