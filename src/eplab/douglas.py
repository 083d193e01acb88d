"""Range inclusion, factorization and majorization in the Douglas sense.

For matrices with equal row counts the three statements are linked:
a PSD majorization ``A A* <= B B*`` yields a contraction factor, any
factorization ``A = B C`` forces ``R(A) <= R(B)``, and range inclusion in
turn produces a factor ``C`` with a finite quadratic growth bound.  The
factor is always realized as ``pinv(B) @ A``, the minimal-norm solution,
which witnesses all three statements in finite dimension.
:func:`douglas_analysis` checks them together; :func:`closed_range_panel`
returns the closed-range checks as the :class:`~eplab.core.ConditionCheck`
records a classification holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, ConditionCheck, TolerancePolicy, _cross_norm, _formed,
                   _Operand, _power_of_two, _scaled, adjoint, as_matrix, growth_bound,
                   min_eigenvalue, op_norm, subspace_equal)
from .errors import DimensionMismatch


@dataclass(frozen=True)
class DouglasReport:
    """Joint outcome of the inclusion / factorization / contraction checks.

    ``conditions`` is ``range_included`` (``||(I - P_R(B)) A||``) and, only
    on the majorization path, ``contraction`` (``||C||``).  ``bound_k`` is
    the least growth constant of the factor: the exact supremum of
    ``||C x||^2 / (||x||^2 + ||A x||^2)`` over nonzero ``x``,
    ``||C (I + A* A)^(-1/2)||_2^2`` (see :func:`eplab.core.growth_bound`).
    """

    conditions: tuple[ConditionCheck, ...]
    factor_c: np.ndarray | None
    residual_bc_a: float | None
    bound_k: float | None

    @property
    def range_included(self) -> bool:
        return self.conditions[0].passed

    @property
    def contraction_ok(self) -> bool | None:
        """The contraction verdict; None without a contraction check."""
        return self.conditions[1].passed if len(self.conditions) > 1 else None


def _inclusion(arr_a: np.ndarray, norm_a: float, op_b: _Operand) -> ConditionCheck:
    """``range_included``, ``||U_perp* A||`` judged at ``tol.residual_bound(||A||)``,
    ``subspace_tol * ||A||`` with no floor, ``norm_a`` being ``||A||``; the
    residual is at most ``||A||``, so a floored bound would pass any ``A``
    of norm at most ``subspace_tol``.

    ``U_perp``, the left singular vectors of B's SVD past the rank, spans
    ``R(B)``'s complement, so the residual is ``||(I - P_R(B)) A||``.
    """
    return ConditionCheck.judge("range_included", _cross_norm(op_b.bases[0].complement, arr_a),
                                op_b.tol.residual_bound(norm_a))


def douglas_analysis(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> DouglasReport:
    """Inclusion, factorization and contraction verdicts for ``(A, B)`` together.

    ``R(A) <= R(B)`` holds when ``||(I - P_R(B)) A||`` is at most
    ``tol.residual_bound(||A||)``; the factor fields (``C = pinv(B) A``,
    ``||B C - A||`` and the growth bound) are then filled, and None otherwise.
    ``A A* <= B B*`` holds when the least eigenvalue of ``B B* - A A*`` is
    at least ``-psd_tol * ||B||^2``, a floor on B's own scale; both sides
    are divided by ``p^2``, ``p`` the power of two at the largest entry
    modulus of ``A`` and ``B``, so the gap never overflows and a pair with
    entries past 1e154 is decided like any other.  The
    ``contraction`` check, ``||C||`` judged at ``tol.contraction_bound()``,
    is then made whether or not the inclusion holds, and left out otherwise.
    Neither failure raises; unequal row counts are DimensionMismatch, and a
    ``C`` past the float range is NonFinite, naming it, without numpy warnings.
    One SVD of ``B`` gives the inclusion basis, ``pinv(B)`` and ``||B||``.
    """
    arr_a, op_b = as_matrix(a), _Operand(b, tol)
    if arr_a.shape[0] != op_b.arr.shape[0]:
        raise DimensionMismatch(f"row counts differ: {arr_a.shape[0]} vs {op_b.arr.shape[0]}")
    inclusion = _inclusion(arr_a, op_norm(arr_a), op_b)
    # The Gram matrices of A / p and B / p, p the power of two at their largest
    # entry modulus, cannot overflow, and the division is exact.
    p = max(_power_of_two(arr_a), _power_of_two(op_b.arr))
    gram_a, gram_b = (m @ adjoint(m) for m in (_scaled(arr_a, p), _scaled(op_b.arr, p)))
    majorized = min_eigenvalue(gram_b - gram_a) >= -tol.psd_tol * (op_b.norm / p) * (op_b.norm / p)
    c = (_formed("the factor C = pinv(B) A", lambda: op_b.pinv @ arr_a)
         if inclusion.passed or majorized else None)
    residual_bc_a = bound_k = None
    if inclusion.passed:
        residual_bc_a, bound_k = float(op_norm(op_b.arr @ c - arr_a)), growth_bound(c, arr_a)
    conditions = (inclusion,)
    if majorized:
        conditions += (ConditionCheck.judge("contraction", op_norm(c), tol.contraction_bound()),)
    return DouglasReport(conditions, c if inclusion.passed else None, residual_bc_a, bound_k)


def closed_range_panel(a, tol: TolerancePolicy = DEFAULT_TOL) -> list[ConditionCheck]:
    """The closed-range checks that compute something on a finite matrix.

    Three checks, in this order: ``range_matches_gram_right``
    (``R(A) = R(A A*)``), ``adjoint_range_matches_gram_left``
    (``R(A*) = R(A* A)``), each the :func:`~eplab.core.subspace_equal` check
    of its ranges, a sine judged at ``tol.residual_bound()``,
    and ``factors_through_gram``, the factorization ``A = A A* S`` for
    ``S = pinv(A A*) A``, judged at ``tol.residual_bound(||A||)`` with no
    floor.  Each residual comes from the operands' own SVDs.  Every range is
    closed in finite dimension, so closedness itself, and what A's SVD gives
    by construction (``gamma > 0`` at rank >= 1, the lower bound ``gamma``
    on the carrier), is not listed.  Nothing is sampled.
    """
    op = _Operand(a, tol)
    arr, gram_right = op.arr, op.gram_right
    return [
        subspace_equal(op.bases[0], gram_right.bases[0], tol)._replace(
            condition_id="range_matches_gram_right"),
        subspace_equal(op.adjoint.bases[0], op.gram_left.bases[0], tol)._replace(
            condition_id="adjoint_range_matches_gram_left"),
        ConditionCheck.judge("factors_through_gram",
                             op_norm(gram_right.arr @ (gram_right.pinv @ arr) - arr),
                             tol.residual_bound(op.norm)),
    ]
