"""Range inclusion, factorization and majorization in the Douglas sense.

For matrices with equal row counts the three statements are linked:
a PSD majorization ``A A* <= B B*`` yields a contraction factor, any
factorization ``A = B C`` forces ``R(A) <= R(B)``, and range inclusion in
turn produces a factor ``C`` with a finite quadratic growth bound.  The
factor is always realized as ``pinv(B) @ A``, the minimal-norm solution,
which witnesses all three statements in finite dimension.
:func:`douglas_analysis` checks them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_TOL, SubspaceComparison, TolerancePolicy, _cross_norm,
                   _Operand, adjoint, as_matrix, growth_bound, min_eigenvalue, op_norm,
                   subspace_equal)
from .errors import DimensionMismatch


@dataclass(frozen=True)
class DouglasReport:
    """Joint outcome of the inclusion / factorization / contraction checks.

    ``bound_k`` is the least growth constant of the factor: the exact
    supremum of ``||C x||^2 / (||x||^2 + ||A x||^2)`` over nonzero ``x``,
    ``||C (I + A* A)^(-1/2)||_2^2`` (see :func:`eplab.core.growth_bound`).
    ``contraction_ok`` is only evaluated on the majorization path and stays
    None otherwise.
    """

    range_included: bool
    residual_range: float
    factor_c: np.ndarray | None
    residual_bc_a: float | None
    bound_k: float | None
    contraction_ok: bool | None


def _inclusion(arr_a: np.ndarray, norm_a: float, op_b: _Operand) -> SubspaceComparison:
    """``||U_perp* A|| <= tol * max(1, ||A||)``, ``norm_a`` being ``||A||``.

    ``U_perp``, the left singular vectors of B's SVD past the rank, spans
    ``R(B)``'s complement, so the residual is ``||(I - P_R(B)) A||``.
    """
    residual = _cross_norm(op_b.bases[0].complement, arr_a)
    return SubspaceComparison(residual <= op_b.tol.subspace_tol * max(1.0, norm_a), residual)


def _majorization_gap(arr_a: np.ndarray, arr_b: np.ndarray) -> float:
    """Minimum eigenvalue of ``B B* - A A*``; ``A A* <= B B*`` iff it is >= 0.

    A Gram matrix that overflows is NonFinite, raised without numpy's warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = arr_b @ adjoint(arr_b) - arr_a @ adjoint(arr_a)
    return min_eigenvalue(gap)


def douglas_analysis(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> DouglasReport:
    """Inclusion, factorization and contraction verdicts for ``(A, B)`` together.

    ``R(A) <= R(B)`` holds when ``||(I - P_R(B)) A|| <= subspace_tol *
    max(1, ||A||)``; the factor fields (``C = pinv(B) A``, ``||B C - A||``
    and the growth bound) are then filled, and None otherwise.
    ``A A* <= B B*`` holds when the least eigenvalue of ``B B* - A A*`` is
    at least ``-psd_tol``; ``contraction_ok``, ``||C|| <= 1 + subspace_tol``,
    is then filled whether or not the inclusion holds, and None otherwise.
    Neither failure raises; unequal row counts are DimensionMismatch.
    One SVD of ``B`` gives both the inclusion basis and ``pinv(B)``.
    """
    arr_a, op_b = as_matrix(a), _Operand(b, tol)
    if arr_a.shape[0] != op_b.arr.shape[0]:
        raise DimensionMismatch(f"row counts differ: {arr_a.shape[0]} vs {op_b.arr.shape[0]}")
    inclusion = _inclusion(arr_a, op_norm(arr_a), op_b)
    majorized = _majorization_gap(arr_a, op_b.arr) >= -tol.psd_tol
    c = op_b.pinv @ arr_a if inclusion.ok or majorized else None
    residual_bc_a = bound_k = None
    if inclusion.ok:
        residual_bc_a, bound_k = float(op_norm(op_b.arr @ c - arr_a)), growth_bound(c, arr_a)
    contraction_ok = op_norm(c) <= 1.0 + tol.subspace_tol if majorized else None
    return DouglasReport(bool(inclusion.ok), float(inclusion.residual),
                         c if inclusion.ok else None, residual_bc_a, bound_k, contraction_ok)


class PanelItem(NamedTuple):
    condition_id: str
    passed: bool
    residual: float
    note: str


def closed_range_panel(a, tol: TolerancePolicy = DEFAULT_TOL) -> list[PanelItem]:
    """The closed-range checks that compute something on a finite matrix.

    Three items, in this order: ``R(A) = R(A A*)``, ``R(A*) = R(A* A)``
    and the factorization ``A = A A* S`` for ``S = pinv(A A*) A``, each a
    residual from the operands' own SVDs.  Every range is closed in finite
    dimension, so closedness itself, and what A's SVD gives by construction
    (``gamma > 0`` at rank >= 1, the lower bound ``gamma`` on the carrier),
    is not listed.  Nothing is sampled.
    """
    op = _Operand(a, tol)
    eq_right = subspace_equal(op.bases[0], op.gram_right.bases[0], tol)
    eq_left = subspace_equal(op.adjoint.bases[0], op.gram_left.bases[0], tol)
    arr, gram_right = op.arr, op.gram_right
    res_s = op_norm(gram_right.arr @ (gram_right.pinv @ arr) - arr)
    return [
        PanelItem("range_matches_gram_right", eq_right.ok, eq_right.residual,
                  "R(A) = R(A A*)"),
        PanelItem("adjoint_range_matches_gram_left", eq_left.ok, eq_left.residual,
                  "R(A*) = R(A* A)"),
        PanelItem("factors_through_gram", res_s <= tol.subspace_tol * op.scale,
                  float(res_s), "A = A A* S with S = pinv(A A*) A"),
    ]
