"""Range inclusion, factorization and majorization in the Douglas sense.

For matrices with equal row counts the three statements are linked:
a PSD majorization ``A A* <= B B*`` yields a contraction factor, any
factorization ``A = B C`` forces ``R(A) <= R(B)``, and range inclusion in
turn produces a factor ``C`` with a finite quadratic growth bound.  The
factor is always realized as ``pinv(B) @ A``, the minimal-norm solution,
which witnesses all three statements in finite dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_TOL, SubspaceComparison, TolerancePolicy, _cross_norm,
                   _Operand, adjoint, as_matrix, growth_bound, min_eigenvalue, op_norm,
                   subspace_equal)
from .errors import DimensionMismatch, MajorizationFails, RangeNotIncluded


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


def _operands(a, b, tol: TolerancePolicy) -> tuple[np.ndarray, _Operand]:
    """``A`` as a matrix and B's operand; DimensionMismatch unless their row counts agree."""
    arr_a, op_b = as_matrix(a), _Operand(b, tol)
    if arr_a.shape[0] != op_b.arr.shape[0]:
        raise DimensionMismatch(f"row counts differ: {arr_a.shape[0]} vs {op_b.arr.shape[0]}")
    return arr_a, op_b


def _inclusion(arr_a: np.ndarray, norm_a: float, op_b: _Operand) -> SubspaceComparison:
    """``||U_perp* A|| <= tol * max(1, ||A||)``, ``norm_a`` being ``||A||``.

    ``U_perp``, the left singular vectors of B's SVD past the rank, spans
    ``R(B)``'s complement, so the residual is ``||(I - P_R(B)) A||``.
    """
    residual = _cross_norm(op_b.bases[0].complement, arr_a)
    return SubspaceComparison(residual <= op_b.tol.subspace_tol * max(1.0, norm_a), residual)


def range_inclusion_check(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceComparison:
    """Test ``R(A) <= R(B)`` via ``||(I - P_R(B)) A|| <= tol * max(1, ||A||)``."""
    arr_a, op_b = _operands(a, b, tol)
    return _inclusion(arr_a, op_norm(arr_a), op_b)


def _majorization_gap(arr_a: np.ndarray, arr_b: np.ndarray) -> float:
    """Minimum eigenvalue of ``B B* - A A*``; ``A A* <= B B*`` iff it is >= 0.

    A Gram matrix that overflows is NonFinite, raised without numpy's warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = arr_b @ adjoint(arr_b) - arr_a @ adjoint(arr_a)
    return min_eigenvalue(gap)


def _contracts(c: np.ndarray, tol: TolerancePolicy) -> bool:
    return op_norm(c) <= 1.0 + tol.subspace_tol


def _factor(arr_a: np.ndarray, op_b: _Operand, inclusion: SubspaceComparison,
            majorized: bool) -> DouglasReport:
    """Report for the factor ``C = pinv(B) A``; ``contraction_ok`` only when majorized."""
    c = op_b.pinv @ arr_a
    return DouglasReport(
        range_included=bool(inclusion.ok), residual_range=float(inclusion.residual),
        factor_c=c, residual_bc_a=float(op_norm(op_b.arr @ c - arr_a)),
        bound_k=growth_bound(c, arr_a),
        contraction_ok=_contracts(c, op_b.tol) if majorized else None)


def douglas_factorize(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> DouglasReport:
    """Factor ``A = B C`` with ``C = pinv(B) A`` once inclusion holds.

    Raises RangeNotIncluded when the inclusion test fails.
    """
    arr_a, op_b = _operands(a, b, tol)
    inclusion = _inclusion(arr_a, op_norm(arr_a), op_b)
    if not inclusion.ok:
        raise RangeNotIncluded(
            f"R(A) is not contained in R(B) (residual {inclusion.residual:.3e})")
    return _factor(arr_a, op_b, inclusion, False)


def majorization_contraction(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> DouglasReport:
    """Under ``A A* <= B B*`` produce the contraction factor ``pinv(B) A``.

    The PSD hypothesis is checked through the minimum eigenvalue of
    ``B B* - A A*`` with floor ``-psd_tol``; MajorizationFails otherwise.
    """
    arr_a, op_b = _operands(a, b, tol)
    lam_min = _majorization_gap(arr_a, op_b.arr)
    if lam_min < -tol.psd_tol:
        raise MajorizationFails(f"B B* - A A* has negative eigenvalue {lam_min:.3e}")
    inclusion = _inclusion(arr_a, op_norm(arr_a), op_b)
    return _factor(arr_a, op_b, inclusion, True)


def douglas_analysis(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> DouglasReport:
    """Inclusion, factorization and contraction verdicts for ``(A, B)`` together.

    The factor fields are those of :func:`douglas_factorize` when
    ``R(A) <= R(B)`` and None otherwise.  ``contraction_ok`` is that of
    :func:`majorization_contraction` when ``A A* <= B B*`` holds, whether
    or not the inclusion does, and None otherwise.  Neither failure raises.
    One SVD of ``B`` gives both the inclusion basis and ``pinv(B)``.
    """
    arr_a, op_b = _operands(a, b, tol)
    inclusion = _inclusion(arr_a, op_norm(arr_a), op_b)
    majorized = _majorization_gap(arr_a, op_b.arr) >= -tol.psd_tol
    if inclusion.ok:
        return _factor(arr_a, op_b, inclusion, majorized)
    contraction_ok = _contracts(op_b.pinv @ arr_a, tol) if majorized else None
    return DouglasReport(range_included=False, residual_range=float(inclusion.residual),
                         factor_c=None, residual_bc_a=None, bound_k=None,
                         contraction_ok=contraction_ok)


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
