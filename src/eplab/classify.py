"""EP / hypo-EP classification and related constructions.

A square matrix is EP when its range equals the range of its adjoint
("Equal Projections"), and hypo-EP when its range is contained in the range
of the adjoint.  Both notions admit several equivalent formulations;
``classify`` evaluates every one of them independently and reports each
residual, because the mutual agreement of the routes is itself the main
correctness check.  Condition ids:

======  =====================================  ==================================
ep1     range equality                         ||R(A)_perp* R(A*)||
ep2     commutation                            ||A A+ - A+ A||
ep3     null-space match with A+               ||N(A)_perp* N(A+)||
ep4     null-space match with A*               ||N(A)_perp* N(A*)||
ep5     complement of the null space           ||N(A)* R(A)||
ep6     carrier closure (range of A+)          ||R(A+)_perp* R(A)||
ep7     orthogonal direct sum                  ||N(A)* R(A)||
hypo1   null inclusion N(A) <= N(A*)           ||N(A*)_perp* N(A)||
hypo2   absorption A+ A A A+ = A A+            ||R(A+)_perp* R(A)||
chain2  absorption A (A+)^2 A = A A+           hypo2's residual
chain3  projector order A A+ <= A+ A           -min eigenvalue of P_R(A+) - P_R(A)
chain4  norm inequality on unit vectors        hypo2's residual, the exact supremum
======  =====================================  ==================================

``R(X)``, ``N(X)`` are the range and null bases from the SVD of ``X``'s own
operand and ``_perp`` the other singular vectors of that SVD; nothing is
sampled.  Each condition about subspaces reads the bases of the
decompositions it compares; only ep2 reads the computed ``A+`` through the
products ``A A+`` and ``A+ A``.  ep5 and ep7 are the same matrix up to sign
and share one residual; with ``P = A A+`` and ``Q = A+ A``, chain2's
``P Q = P`` is the adjoint of hypo2's ``Q P = P`` and shares its residual,
which is also ep6's, computed once, when ``A+`` has ``A``'s rank.  chain4
states ``||P x|| <= ||Q x||`` for every ``x``; its largest violation over
unit ``x`` is exactly ``||(I - Q) P||``, hypo2's residual once more (a unit
``x`` in ``R(P)`` that ``I - Q`` stretches most attains it).  ep1..ep7 are
equivalent, as are hypo1/hypo2; chain2..chain4 are one-way consequences of
hypo2 (and collapse back to the EP conditions in finite dimension).  Every
residual is tested against ``subspace_tol``.

``classify`` evaluates all twelve.  The callers that read only the EP
verdict (the closure suite and its members, ``construct_factor_c``,
``check_perturbation`` and ``generate_admissible``) evaluate ep1..ep7 only,
and ``majorization_witness`` hypo1 and hypo2 only, through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_TOL, RESIDUAL_SLACK, SvdFactors, TolerancePolicy,
                   _cross_norm, _Operand, as_matrix, min_eigenvalue, op_norm, projector,
                   subspace_equal, subspace_included, svdvals)
from .errors import (DimensionMismatch, NotSquare, SolveFailure, SourceNotEP,
                     SourceNotHypoEP)


class ConditionCheck(NamedTuple):
    condition_id: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the full EP / hypo-EP condition panel for one matrix."""

    is_ep: bool
    is_hypo_ep: bool
    rank: int
    gamma: float
    conditions: tuple[ConditionCheck, ...]

    def condition(self, condition_id: str) -> ConditionCheck:
        for check in self.conditions:
            if check.condition_id == condition_id:
                return check
        raise KeyError(condition_id)


def gamma(a, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Reduced minimum modulus: smallest singular value above the rank cut.

    Equals ``inf ||A x||`` over unit vectors in the carrier (the orthogonal
    complement of the null space) and ``1 / ||A+||``.  By convention 0 for a
    numerically rank-0 matrix, keeping reports free of infinities.  Uses the
    values-only SVD driver, which reproduces diagonal entries exactly.
    ``classify(a).gamma`` is ``sigma_r`` of the full SVD instead and may
    differ from this value in the last bits.
    """
    return _gamma_and_rank(as_matrix(a), tol)[0]


def _gamma_and_rank(arr: np.ndarray, tol: TolerancePolicy) -> tuple[float, int]:
    """:func:`gamma` and the numerical rank, both from one values-only SVD."""
    sigma = svdvals(arr)
    kept = sigma[sigma > tol.rank_threshold(sigma, arr.shape)]
    return (float(kept[-1]) if len(kept) else 0.0), len(kept)


def modulus(a) -> np.ndarray:
    """Hermitian PSD square root of ``A* A``.

    Computed from the singular decomposition of ``A`` itself, which is the
    spectral decomposition of ``A* A`` with exactly ``A``'s singular values;
    this keeps ``N(|A|) = N(A)`` at the rank-threshold level instead of
    inflating tiny eigenvalues through the squared Gram matrix.
    """
    return _modulus_from_factors(_Operand(a).factors)


def _modulus_from_factors(factors: SvdFactors) -> np.ndarray:
    m, n = factors.shape
    s_full = np.zeros(n)
    s_full[: min(m, n)] = factors.sigma
    root = (factors.v * s_full) @ factors.v.conj().T
    return (root + root.conj().T) / 2.0


def _check(condition_id: str, residual: float, tol: TolerancePolicy) -> ConditionCheck:
    return ConditionCheck(condition_id, float(residual), residual <= tol.subspace_tol)


def _square(op: _Operand) -> np.ndarray:
    """``A``'s matrix; NotSquare unless it is square."""
    if op.arr.shape[0] != op.arr.shape[1]:
        raise NotSquare(f"EP classification requires a square matrix, got {op.arr.shape}")
    return op.arr


def _ep_checks(op: _Operand) -> list[ConditionCheck]:
    """ep1..ep7 of ``A`` from the SVDs of the operands of ``A``, ``A*`` and ``A+``.

    The rank, ``A+`` and the bases of ``R(A)`` and ``N(A)`` all come from
    the SVD of ``A``; every condition but ep2 compares them with the bases
    of ``A*`` and ``A+`` from their own SVDs, or with each other.  ep2
    alone reads the products ``A A+`` and ``A+ A`` of the computed ``A+``.
    """
    arr, tol = _square(op), op.tol
    rng_a, nul_a = op.bases
    rng_star, nul_star = op.adjoint.bases
    rng_dag, nul_dag = op.dagger.bases

    # ep5's (I - P_N(A)) - P_R(A) is minus ep7's P_R(A) + P_N(A) - I.  The
    # complement of N(A) and R(A) each have dimension r, so its norm is the
    # sine of their largest principal angle; N(A) is the complement of the
    # first, so that sine is ||N(A)* R(A)||.
    complement = _cross_norm(nul_a.basis, rng_a.basis)
    return [
        _check("ep1", subspace_equal(rng_a, rng_star, tol).residual, tol),
        _check("ep2", op_norm(arr @ op.pinv - op.pinv @ arr), tol),
        _check("ep3", subspace_equal(nul_a, nul_dag, tol).residual, tol),
        _check("ep4", subspace_equal(nul_a, nul_star, tol).residual, tol),
        _check("ep5", complement, tol),
        _check("ep6", subspace_equal(rng_dag, rng_a, tol).residual, tol),
        _check("ep7", complement, tol),
    ]


def _is_ep(op: _Operand) -> bool:
    """Conjunction of ep1..ep7, for callers that read no other condition."""
    return all(check.passed for check in _ep_checks(op))


def _hypo_checks(op: _Operand, ep6: float | None = None) -> list[ConditionCheck]:
    """hypo1 and hypo2 of ``A`` from the SVDs of the operands of ``A``, ``A*`` and ``A+``.

    hypo1 compares ``N(A)`` with ``N(A*)``, hypo2 ``R(A)`` with ``R(A+)``.
    When ``A+`` has ``A``'s rank, hypo2's ``||R(A+)_perp* R(A)||`` is ep6's
    residual, taken from ``ep6`` when the caller has it.
    """
    _square(op)
    tol = op.tol
    rng_a, nul_a = op.bases
    nul_star = op.adjoint.bases[1]
    rng_dag = op.dagger.bases[0]
    absorption = (ep6 if ep6 is not None and rng_dag.k == rng_a.k
                  else subspace_included(rng_a, rng_dag, tol).residual)
    return [_check("hypo1", subspace_included(nul_a, nul_star, tol).residual, tol),
            _check("hypo2", absorption, tol)]


def _classify(op: _Operand) -> ClassificationReport:
    """Classify ``A``: :func:`_ep_checks`, :func:`_hypo_checks`, then the chain.

    chain3 compares ``R(A)`` with ``R(A+)``, each from the SVD of its own
    operand; chain2 and chain4 report hypo2's residual.
    """
    tol = op.tol
    ep = _ep_checks(op)
    hypo = _hypo_checks(op, ep[5].residual)
    rng_a, rng_dag = op.bases[0], op.dagger.bases[0]

    # With P = A A+ and Q = A+ A, hypo2's Q P = P is R(A) <= R(A+), and
    # chain2's P Q = P is its adjoint: ||P Q - P|| = ||(Q P - P)*||.  chain4's
    # sup of ||P x|| - ||Q x|| over unit x is ||(I - Q) P||, hypo2's again.
    absorption = hypo[1].residual
    # For subspaces of equal dimension the eigenvalues of P_R(A+) - P_R(A)
    # are the +-sines of their principal angles, so chain3 is hypo2's sine
    # again, read from an eigendecomposition.
    lam_min = min_eigenvalue(projector(rng_dag) - projector(rng_a))
    chain = [_check("chain2", absorption, tol),
             _check("chain3", max(0.0, -lam_min), tol),
             _check("chain4", absorption, tol)]

    return ClassificationReport(is_ep=all(check.passed for check in ep),
                                is_hypo_ep=all(check.passed for check in hypo),
                                rank=op.rank, gamma=op.gamma,
                                conditions=tuple(ep + hypo + chain))


def classify(a, tol: TolerancePolicy = DEFAULT_TOL) -> ClassificationReport:
    """Evaluate every EP and hypo-EP condition; no short-circuiting.

    All seven EP formulations and both hypo-EP formulations are computed
    even after a failure, since disagreement between the routes indicates
    a tolerance or conditioning problem worth surfacing.  ``is_ep`` is the
    conjunction of ep1..ep7, ``is_hypo_ep`` of hypo1/hypo2.  ``A``, ``A*``
    and ``A+`` are each decomposed once, and ``A*`` not at all when it
    equals ``A`` (two full SVDs for exactly Hermitian ``A``); ep5 and ep7
    are one residual.
    """
    return _classify(_Operand(a, tol))


def ep_closure_suite(a, tol: TolerancePolicy = DEFAULT_TOL) -> list[tuple[str, bool]]:
    """Classify the operators the EP property propagates to.

    For EP input ``A`` this returns the EP verdicts of ``A*``, ``A A*``,
    ``A* A`` and ``|A|``; all four must come back EP.
    """
    op = _Operand(a, tol)
    if not _is_ep(op):
        raise SourceNotEP("closure suite requires an EP input")
    return _closure(op)


def _closure(op: _Operand) -> list[tuple[str, bool]]:
    """:func:`ep_closure_suite` for an EP operand; ``|A|`` comes from its SVD.

    Each member's verdict is ep1..ep7 alone.  The members belong to ``A``'s
    analysis, so a matrix equal by value to one already decomposed takes
    its factors.
    """
    members = (
        ("adjoint", op.adjoint),
        ("aa_star", op.gram_right),
        ("a_star_a", op.gram_left),
        ("modulus", op.derive(_modulus_from_factors(op.factors))),
    )
    return [(name, _is_ep(member)) for name, member in members]


@dataclass(frozen=True)
class FactorC:
    """Square factor with ``A* = A C``; ``C`` is invertible, since
    :func:`construct_factor_c` raises SolveFailure otherwise."""

    c: np.ndarray
    residual_factorization: float


def construct_factor_c(a, tol: TolerancePolicy = DEFAULT_TOL) -> FactorC:
    """Build an invertible ``C`` with ``A* = A C`` for an EP matrix.

    Each vector splits as ``y = y1 + y2`` with ``y1`` in the carrier of
    ``A*`` and ``y2`` in ``N(A*)``.  Solving ``A x = A* y`` on the carrier
    gives the minimal-norm component ``x1 = A+ A* y``, and ``C y = x1 + y2``
    works because ``A`` kills ``y2`` (EP makes the two null spaces equal).
    In matrix form ``C = A+ A* + (I - A+ A)``: it preserves the splitting
    of the space into range and null space, acting invertibly on each part.
    The residual check is authoritative; the formula is not trusted blindly.
    """
    source = _Operand(a, tol)
    if not _is_ep(source):
        raise SourceNotEP("factor construction requires an EP input")

    arr, a_dag, star = source.arr, source.pinv, source.adjoint.arr
    n = arr.shape[1]
    c = a_dag @ star + (np.eye(n, dtype=np.complex128) - a_dag @ arr)
    residual = op_norm(star - arr @ c)
    bijective = source.derive(c).rank == n

    if not bijective or residual > RESIDUAL_SLACK * source.scale:
        raise SolveFailure(
            "carrier-restricted solve is numerically singular "
            f"(residual={residual:.3e}, bijective={bijective}); gamma may be ~0")
    return FactorC(c=c, residual_factorization=float(residual))


def majorization_witness(a, x, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Constant ``k`` with ``|<A x, y>| <= k ||A y||`` for all ``y``.

    For hypo-EP ``A`` the vector ``A x`` lies in the range of ``A*``, so the
    minimal-norm solution ``z`` of ``A* z = A x`` exists and ``k = ||z||``
    works.  For every ``y``, ``|<A x, y>| <= ||z|| ||A y|| + ||A* z - A x|| ||y||``
    (Cauchy-Schwarz), so the check that the solve residual is within
    tolerance certifies the bound; SolveFailure otherwise.  Returns 0 when
    ``x`` is in the null space; NaN or Inf in ``x`` is NonFinite.
    """
    source = _Operand(a, tol)
    if not all(check.passed for check in _hypo_checks(source)):
        raise SourceNotHypoEP("majorization witness requires a hypo-EP input")
    arr, star = source.arr, source.adjoint.arr
    n = arr.shape[1]

    vec = as_matrix(np.reshape(x, (-1, 1))).ravel()
    if vec.shape[0] != n:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match matrix size {n}")

    ax = arr @ vec
    z = source.pinv.conj().T @ ax  # pinv(A*) = pinv(A)*
    k = float(np.linalg.norm(z))

    scale = source.scale * max(1.0, float(np.linalg.norm(vec)))
    if np.linalg.norm(star @ z - ax) > max(tol.subspace_tol, RESIDUAL_SLACK) * scale:
        raise SolveFailure("A* z = A x is not solvable at tolerance; input may not be hypo-EP")

    return k
