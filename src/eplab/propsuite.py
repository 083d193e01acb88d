"""Property-suite runner: theorem-level consistency sweeps over a corpus.

For each corpus matrix the runner checks that the seven EP condition
booleans agree pairwise, that the EP and hypo-EP verdicts coincide (they
must in finite dimension), that the hypo-EP implication chain never breaks,
that the pseudoinverse identities hold at tolerance, that the EP closure
suite stays EP, and that a random Douglas factorization is sound.  Any
violation is recorded with the offending matrix verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import _classify, _closure
from .core import DEFAULT_TOL, TolerancePolicy, _Operand, op_norm
from .douglas import _inclusion
from .matio import matrix_to_json_dict
from .pinv import _identities
from .zoo import corpus_matrix

_CHECKS = ("seven_way", "collapse", "chain", "dagger", "closure", "douglas")


@dataclass
class SuiteResult:
    count: int
    seed: int
    checks_run: dict = field(default_factory=dict)
    disagreements: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "checks_run": dict(self.checks_run),
            "disagreement_count": len(self.disagreements),
            "disagreements": list(self.disagreements),
        }


def _record(result: SuiteResult, index: int, label: str, check: str,
            detail: str, matrix) -> None:
    result.disagreements.append({
        "index": index,
        "label": label,
        "check": check,
        "detail": detail,
        "matrix": matrix_to_json_dict(matrix),
    })


def run_property_suite(count: int, seed: int = 0,
                       tol: TolerancePolicy = DEFAULT_TOL) -> SuiteResult:
    """Run all consistency sweeps over ``count`` seeded corpus matrices."""
    result = SuiteResult(count=count, seed=seed,
                         checks_run={name: 0 for name in _CHECKS})

    for index in range(count):
        label, a = corpus_matrix(index, seed=seed)
        rng = np.random.default_rng([seed, index, 1])

        op = _Operand(a, tol)
        report = _classify(op)
        flags = [report.condition(f"ep{i}").passed for i in range(1, 8)]
        result.checks_run["seven_way"] += 1
        if len(set(flags)) > 1:
            _record(result, index, label, "seven_way",
                    f"EP condition booleans disagree: {flags}, residuals="
                    f"{[report.condition(f'ep{i}').residual for i in range(1, 8)]}", a)

        result.checks_run["collapse"] += 1
        if report.is_ep != report.is_hypo_ep:
            _record(result, index, label, "collapse",
                    f"is_ep={report.is_ep} but is_hypo_ep={report.is_hypo_ep}", a)

        result.checks_run["chain"] += 1
        sequence = [report.condition(cid).passed
                    for cid in ("hypo2", "chain2", "chain3", "chain4")]
        for first, second in zip(sequence, sequence[1:]):
            if first and not second:
                _record(result, index, label, "chain",
                        f"implication chain broken: {sequence}", a)
                break

        result.checks_run["dagger"] += 1
        for name, residual in _identities(op):
            if residual > tol.subspace_tol * op.scale:
                _record(result, index, label, "dagger",
                        f"identity {name} residual {residual:.3e} exceeds "
                        f"{tol.subspace_tol * op.scale:.3e}", a)

        if report.is_ep:
            result.checks_run["closure"] += 1
            for name, is_ep in _closure(op):
                if not is_ep:
                    _record(result, index, label, "closure",
                            f"closure member {name} did not classify EP", a)

        result.checks_run["douglas"] += 1
        n = a.shape[1]
        k = int(rng.integers(1, n + 1))
        c = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        product = a @ c
        norm_product = op_norm(product)
        inclusion = _inclusion(product, norm_product, op)
        if not inclusion.ok:
            _record(result, index, label, "douglas",
                    "range_inclusion_check(A C, A) failed: R(A) is not contained in "
                    f"R(B) (residual {inclusion.residual:.3e})", a)
        else:
            # ||A C' - A C|| for the minimal-norm factor C' = A+ (A C).
            residual = op_norm(op.arr @ (op.pinv @ product) - product)
            bound = tol.subspace_tol * max(1.0, norm_product)
            if residual > bound:
                _record(result, index, label, "douglas",
                        f"factorization residual {residual:.3e} exceeds {bound:.3e}", a)

    return result
