"""Stability of the EP property under structured bounded perturbations.

An EP matrix ``A`` stays EP under ``A + B`` whenever ``B`` is small against
the pseudoinverse (``||B|| ||A+|| < 1``) and is compressed onto the range of
``A`` from both sides (``B A+ A = B`` and ``A A+ B = B``).  Under those
hypotheses the null space and range are preserved exactly and the reduced
minimum modulus drops by at most ``||B||``.  ``check_perturbation`` measures
the hypotheses and all four conclusions; ``generate_admissible`` builds
perturbations satisfying the hypotheses by construction for testing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, ConditionCheck, TolerancePolicy, _cross_norm, _formed,
                   _Operand, as_matrix, op_norm, subspace_equal)
from .errors import DimensionMismatch, SourceNotEP
from .classify import _EP_IDS, _passes, _source


@dataclass(frozen=True)
class PerturbationReport:
    """Hypothesis residuals and conclusion checks for a pair ``(A, B)``.

    ``conditions`` holds, in this order, the compression hypotheses
    ``b_adag_a`` (``||B A+ A - B||``) and ``a_adag_b`` (``||A A+ B - B||``),
    each judged at ``tol.residual_bound(||B||)``, ``subspace_tol * ||B||``
    with no floor, so a small ``B`` off ``A``'s subspaces fails them; and
    the conclusions ``null_equal`` (``N(A + B) = N(A)``) and ``range_equal``
    (``R(A + B) = R(A)``), each a subspace sine.  Conclusions are evaluated
    regardless of whether the hypotheses hold, since falsification data is
    useful when probing sharpness.  When the hypotheses pass, all four
    conclusion flags must be true; a violation is a tolerance failure and
    is reported loudly via ``warnings``.
    """

    conditions: tuple[ConditionCheck, ...]
    hyp_norm_product: float
    hypotheses_pass: bool
    concl_ep: bool
    concl_gamma_bound: bool
    gamma_a: float
    gamma_perturbed: float
    norm_b: float

    @property
    def concl_null_equal(self) -> bool:
        return self.conditions[2].passed

    @property
    def concl_range_equal(self) -> bool:
        return self.conditions[3].passed


def check_perturbation(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> PerturbationReport:
    """Validate the perturbation hypotheses for ``(A, B)`` and the conclusions.

    ``A`` must classify EP (SourceNotEP otherwise) and ``B`` must have the
    same shape.  The compression hypotheses are full matrix identities here
    because finite sections have total domains.  They are the range
    inclusions ``R(B*) <= R(A*)`` and ``R(B) <= R(A)`` and are measured as
    such, against the bases of A's SVD, with no product of ``A+``.
    ``||B|| ||A+|| < 1`` is the theorem's strict hypothesis, not a
    residual, and stays the number ``hyp_norm_product``.  An ``A + B`` past
    the float range is NonFinite, naming it, without numpy warnings.
    """
    base, arr_b = _Operand(a, tol), as_matrix(b)
    arr_a = base.arr
    if arr_a.shape != arr_b.shape:
        raise DimensionMismatch(f"shapes differ: {arr_a.shape} vs {arr_b.shape}")
    _source(base, SourceNotEP, "perturbation analysis requires an EP base matrix")

    gamma_a = base.gamma
    norm_b = op_norm(arr_b)
    hyp_norm_product = norm_b / gamma_a if gamma_a else 0.0  # ||A+|| = 1 / gamma
    # I - A+ A and I - A A+ project onto N(A) and R(A)'s complement, so
    # ||B A+ A - B|| = ||N(A)* B*|| and ||A A+ B - B|| = ||R(A)_perp* B||.
    range_a, null_a = base.bases
    bound = tol.residual_bound(norm_b)
    hypotheses = (
        ConditionCheck.judge("b_adag_a", _cross_norm(null_a.basis, arr_b.conj().T), bound),
        ConditionCheck.judge("a_adag_b", _cross_norm(range_a.complement, arr_b), bound))
    hypotheses_pass = hyp_norm_product < 1.0 and all(check.passed for check in hypotheses)

    perturbed = base.derive(_formed("the perturbed matrix A + B", lambda: arr_a + arr_b))
    concl_ep = _passes(perturbed, _EP_IDS)
    conclusions = (
        subspace_equal(perturbed.bases[1], null_a, tol)._replace(condition_id="null_equal"),
        subspace_equal(perturbed.bases[0], range_a, tol)._replace(condition_id="range_equal"))

    gamma_perturbed = perturbed.gamma
    concl_gamma_bound = gamma_perturbed >= gamma_a - norm_b - tol.slack_bound(base.scale)

    report = PerturbationReport(hypotheses + conclusions, float(hyp_norm_product),
                                hypotheses_pass, concl_ep, concl_gamma_bound, float(gamma_a),
                                float(gamma_perturbed), float(norm_b))
    if hypotheses_pass and not (concl_ep and all(check.passed for check in conclusions)
                                and concl_gamma_bound):
        warnings.warn(
            "perturbation hypotheses hold but a conclusion failed; "
            f"this indicates a tolerance problem: {report}", stacklevel=2)
    return report


def generate_admissible(a, scale: float, seed: int) -> np.ndarray:
    """Seeded perturbation with ``||B|| ||A+|| = scale`` and exact compressions.

    ``B = P M P`` where ``P = A A+`` projects onto the range of ``A`` (equal
    to ``A+ A`` for EP input) and ``M`` is a seeded random matrix; both
    compression hypotheses then hold by construction.  Returns the zero
    matrix when the compression degenerates (rank-0 input or a zero draw).
    """
    source = _source(_Operand(a), SourceNotEP,
                     "admissible perturbations are generated for EP matrices only")
    arr = source.arr
    if not 0.0 < scale < 1.0:
        raise ValueError(f"scale must lie in (0, 1), got {scale}")

    a_dag = source.pinv
    dag_norm = op_norm(a_dag)
    p = arr @ a_dag
    p = (p + p.conj().T) / 2.0
    rng = np.random.default_rng(seed)
    n = arr.shape[0]
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = p @ m @ p
    norm_b = op_norm(b)
    if norm_b == 0.0:
        return np.zeros_like(arr)
    return b * (scale / (norm_b * dag_norm))
