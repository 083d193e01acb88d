"""Moore-Penrose pseudoinverse by SVD truncation, plus independent verifiers.

``pinv`` inverts singular values above the rank threshold and zeroes the
rest; the same TolerancePolicy instance should be passed to any downstream
classification so that all rank decisions for one analysis agree.
``penrose_verify`` and ``dagger_identities`` re-derive the defining
conditions and algebraic identities from scratch so they can certify a
candidate pseudoinverse without trusting its construction.  Both judge each
residual on the norm of its own terms, the normwise relative residual
(Rigal & Gaches 1967; Higham 2002, ch. 7): at ``tol.residual_bound(s)``,
``s`` the 2-norm of the exact term the residual compares against, read from
an SVD the check runs anyway; a difference of projectors or a sine takes
``s = 1``, and a squared ``s`` is formed as ``tol.residual_bound(s) * s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, ConditionCheck, TolerancePolicy, _formed, _Operand,
                   min_eigenvalue, op_norm, projector, subspace_equal)
from .errors import DimensionMismatch


def pinv(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse ``V diag(1/sigma_kept) U*`` with threshold truncation."""
    return _Operand(a, tol).pinv


@dataclass(frozen=True)
class PenroseReport:
    """The six defining conditions of a candidate pseudoinverse, in this order:
    ``a_dag_a_a_dag``, ``a_a_dag_a``, ``sym_a_dag_a``, ``sym_a_a_dag``,
    ``proj_range`` and ``proj_carrier``.  The first is judged at
    ``tol.residual_bound(||a_dag||_2)``, the second at
    ``tol.residual_bound(||a||_2)`` and the four projector rows at
    ``tol.residual_bound()``; ``passed`` is true iff all six pass.
    """

    conditions: tuple[ConditionCheck, ...]
    passed: bool


def penrose_verify(a, a_dag, tol: TolerancePolicy = DEFAULT_TOL) -> PenroseReport:
    """Check a candidate pseudoinverse against all six defining conditions.

    The projector conditions compare ``a @ a_dag`` with the orthogonal
    projector onto the range of ``a`` and ``a_dag @ a`` with the projector
    onto the range of ``a_dag`` (the carrier), each from an SVD of its own
    operand, never from the candidate's construction.  ``eplab pinv``
    checks the ``A+`` it built from A's SVD against a separate SVD of ``A+``.
    """
    op = _Operand(a, tol)
    return _penrose(op, op.derive(a_dag))


def _penrose(op: _Operand, a_dag: _Operand) -> PenroseReport:
    """:func:`penrose_verify` for the operands of ``A`` and the candidate."""
    arr, cand = op.arr, a_dag.arr
    m, n = arr.shape
    if cand.shape != (n, m):
        raise DimensionMismatch(
            f"candidate must be {n}x{m} for a {m}x{n} matrix, got {cand.shape}")

    def product(name: str, form) -> np.ndarray:
        return _formed(f"the product {name} of the candidate", form)

    ada, aad = product("A+ A", lambda: cand @ arr), product("A A+", lambda: arr @ cand)
    judge, bound = ConditionCheck.judge, op.tol.residual_bound
    checks = (
        judge("a_dag_a_a_dag", op_norm(product("A+ A A+", lambda: cand @ aad) - cand),
              bound(a_dag.norm)),
        judge("a_a_dag_a", op_norm(product("A A+ A", lambda: aad @ arr) - arr), bound(op.norm)),
        judge("sym_a_dag_a", op_norm(ada - ada.conj().T), bound()),
        judge("sym_a_a_dag", op_norm(aad - aad.conj().T), bound()),
        judge("proj_range", op_norm(aad - projector(op.bases[0])), bound()),
        judge("proj_carrier", op_norm(ada - projector(a_dag.bases[0])), bound()),
    )
    return PenroseReport(checks, all(check.passed for check in checks))


def dagger_identities(a, tol: TolerancePolicy = DEFAULT_TOL) -> list[ConditionCheck]:
    """Checks of the pseudoinverse calculus identities.

    Covers the double pseudoinverse, the adjoint/dagger swap, the two Gram
    factorizations ``(A*A)+ = A+ A*+`` and ``(AA*)+ = A*+ A+``, the
    null-space match ``N(A*+) = N(A)``, and positivity of both Gram
    matrices (reported as the magnitude of any negative eigenvalue).  Each
    residual passes at ``tol.residual_bound(s)``, ``s`` the norm of its exact
    term: ``||A||`` for ``double_pinv``, ``||A+||`` for ``adjoint_pinv_swap``,
    ``||A+||^2`` for the two Gram pseudoinverses, 1 for the null-space sine
    and ``||A||^2`` for the two Gram positivity rows.  A product ``A+ A*+``
    or ``A*+ A+`` past the float range is NonFinite, naming it, without
    numpy warnings.
    Six operands run one SVD each: ``A`` (for ``A+`` and ``N(A)``), ``A*``,
    ``A+``, ``A*+`` (for ``N(A*+)``), ``A* A`` and ``A A*``, except that an
    operand equal by value to one already decomposed takes its factors
    (the same decomposition).  The propsuite passes the operand it
    classified, so only the last three SVDs are new there.
    """
    return _identities(_Operand(a, tol))


def _identities(op: _Operand) -> list[ConditionCheck]:
    """:func:`dagger_identities` for an operand, reusing what it holds."""
    arr, a_dag, star_dag, dag = op.arr, op.pinv, op.adjoint.pinv, op.dagger
    judge, bound, norm = ConditionCheck.judge, op.tol.residual_bound, op.norm
    return [
        judge("double_pinv", op_norm(dag.pinv - arr), bound(norm)),
        judge("adjoint_pinv_swap", op_norm(star_dag - a_dag.conj().T), bound(dag.norm)),
        judge("gram_left_pinv", op_norm(op.gram_left.pinv - _formed(
            "the product A+ A*+", lambda: a_dag @ star_dag)), bound(dag.norm) * dag.norm),
        judge("gram_right_pinv", op_norm(op.gram_right.pinv - _formed(
            "the product A*+ A+", lambda: star_dag @ a_dag)), bound(dag.norm) * dag.norm),
        subspace_equal(op.adjoint.dagger.bases[1], op.bases[1], op.tol)._replace(
            condition_id="null_space_match"),
        judge("gram_left_psd", max(0.0, -min_eigenvalue(op.gram_left.arr)), bound(norm) * norm),
        judge("gram_right_psd", max(0.0, -min_eigenvalue(op.gram_right.arr)), bound(norm) * norm),
    ]
