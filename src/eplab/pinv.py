"""Moore-Penrose pseudoinverse by SVD truncation, plus independent verifiers.

``pinv`` inverts singular values above the rank threshold and zeroes the
rest; the same TolerancePolicy instance should be passed to any downstream
classification so that all rank decisions for one analysis agree.
``penrose_verify`` and ``dagger_identities`` re-derive the defining
conditions and algebraic identities from scratch so they can certify a
candidate pseudoinverse without trusting its construction.  Both judge each
residual at ``tol.residual_bound(max(1, ||A||))``, the operand's scale.
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
    ``proj_range`` and ``proj_carrier``, each judged at
    ``tol.residual_bound(max(1, ||a||_2))``; ``passed`` is true iff all six pass.
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
    checks = _judged(op, {
        "a_dag_a_a_dag": op_norm(product("A+ A A+", lambda: cand @ aad) - cand),
        "a_a_dag_a": op_norm(product("A A+ A", lambda: aad @ arr) - arr),
        "sym_a_dag_a": op_norm(ada - ada.conj().T),
        "sym_a_a_dag": op_norm(aad - aad.conj().T),
        "proj_range": op_norm(aad - projector(op.bases[0])),
        "proj_carrier": op_norm(ada - projector(a_dag.bases[0])),
    })
    return PenroseReport(tuple(checks), all(check.passed for check in checks))


def _judged(op: _Operand, residuals: dict[str, float]) -> list[ConditionCheck]:
    """Each named residual of ``residuals``, in order, judged at
    ``tol.residual_bound(max(1, ||A||))``."""
    bound = op.tol.residual_bound(op.scale)
    return [ConditionCheck.judge(name, residual, bound) for name, residual in residuals.items()]


def dagger_identities(a, tol: TolerancePolicy = DEFAULT_TOL) -> list[ConditionCheck]:
    """Checks of the pseudoinverse calculus identities.

    Covers the double pseudoinverse, the adjoint/dagger swap, the two Gram
    factorizations ``(A*A)+ = A+ A*+`` and ``(AA*)+ = A*+ A+``, the
    null-space match ``N(A*+) = N(A)``, and positivity of both Gram
    matrices (reported as the magnitude of any negative eigenvalue).  Each
    residual passes at ``tol.residual_bound(max(1, ||A||))``.  A product ``A+ A*+``
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
    arr, a_dag, star_dag = op.arr, op.pinv, op.adjoint.pinv
    return _judged(op, {
        "double_pinv": op_norm(op.dagger.pinv - arr),
        "adjoint_pinv_swap": op_norm(star_dag - a_dag.conj().T),
        "gram_left_pinv": op_norm(op.gram_left.pinv
                                  - _formed("the product A+ A*+", lambda: a_dag @ star_dag)),
        "gram_right_pinv": op_norm(op.gram_right.pinv
                                   - _formed("the product A*+ A+", lambda: star_dag @ a_dag)),
        "null_space_match": subspace_equal(op.adjoint.dagger.bases[1], op.bases[1]).residual,
        "gram_left_psd": max(0.0, -min_eigenvalue(op.gram_left.arr)),
        "gram_right_psd": max(0.0, -min_eigenvalue(op.gram_right.arr)),
    })
