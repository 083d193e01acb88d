"""EP / hypo-EP classification and related constructions.

A square matrix is EP when its range equals the range of its adjoint
("Equal Projections"), and hypo-EP when its range is contained in the range
of the adjoint.  Both notions admit several equivalent formulations;
``classify`` evaluates every one of them independently and reports each
residual, because the mutual agreement of the routes is itself the main
correctness check.  The condition ids, in report order, and the route that
computes each, or the condition whose residual it copies, are the table
``_ROUTES``; the README's "Classification conditions" states each condition
and maps its route.  ep1..ep7 are equivalent, as are hypo1/hypo2;
chain2..chain4 are one-way consequences of hypo2 (and collapse back to the
EP conditions in finite dimension).  Every residual is tested against
``subspace_tol``; nothing is sampled.

``classify`` evaluates every id of the table.  The callers that read only
the EP verdict (the closure suite and its members, ``construct_factor_c``,
``check_perturbation`` and ``generate_admissible``) evaluate ep1..ep7 only,
and ``majorization_witness`` hypo1 and hypo2 only, through the same
evaluator.
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


# The route of each condition, in report order: a function of the operand
# that returns its residual, or the id of the condition whose residual it
# copies.  Every route but ep2 reads the bases of the SVDs of A, A* and A+;
# ep2 alone reads the products A A+ and A+ A of the computed A+.
_ROUTES = {
    "ep1": lambda op: subspace_equal(op.bases[0], op.adjoint.bases[0]).residual,
    "ep2": lambda op: op_norm(op.arr @ op.pinv - op.pinv @ op.arr),
    "ep3": lambda op: subspace_equal(op.bases[1], op.dagger.bases[1]).residual,
    "ep4": lambda op: subspace_equal(op.bases[1], op.adjoint.bases[1]).residual,
    # ep5's (I - P_N(A)) - P_R(A) is minus ep7's P_R(A) + P_N(A) - I.  The
    # complement of N(A) and R(A) each have dimension r, so its norm is the
    # sine of their largest principal angle; N(A) is the complement of the
    # first, so that sine is ||N(A)* R(A)||.
    "ep5": lambda op: _cross_norm(op.bases[1].basis, op.bases[0].basis),
    "ep6": lambda op: subspace_equal(op.dagger.bases[0], op.bases[0]).residual,
    "ep7": "ep5",
    "hypo1": lambda op: subspace_included(op.bases[1], op.adjoint.bases[1]).residual,
    # hypo2's ||R(A+)_perp* R(A)|| is ep6's residual when A+ has A's rank,
    # and its function then names ep6 instead of computing it again.
    "hypo2": lambda op: ("ep6" if op.dagger.rank == op.rank else
                         subspace_included(op.bases[0], op.dagger.bases[0]).residual),
    # With P = A A+ and Q = A+ A, hypo2's Q P = P is R(A) <= R(A+), and
    # chain2's P Q = P is its adjoint: ||P Q - P|| = ||(Q P - P)*||.
    "chain2": "hypo2",
    # For subspaces of equal dimension the eigenvalues of P_R(A+) - P_R(A)
    # are the +-sines of their principal angles, so chain3 is hypo2's sine
    # again, read from an eigendecomposition.
    "chain3": lambda op: max(0.0, -min_eigenvalue(projector(op.dagger.bases[0])
                                                  - projector(op.bases[0]))),
    # chain4's sup of ||P x|| - ||Q x|| over unit x is ||(I - Q) P||, hypo2's.
    "chain4": "hypo2",
}
_IDS = tuple(_ROUTES)
_EP_IDS = tuple(cid for cid in _IDS if cid.startswith("ep"))
_HYPO_IDS = tuple(cid for cid in _IDS if cid.startswith("hypo"))


def _residual(op: _Operand, cid: str, residuals: dict[str, float]) -> float:
    """The residual of condition ``cid``, from ``residuals`` or else its route,
    which adds it and that of each condition it copies to ``residuals``."""
    if cid not in residuals:
        route = _ROUTES[cid]
        value = route if isinstance(route, str) else route(op)
        residuals[cid] = _residual(op, value, residuals) if isinstance(value, str) else value
    return residuals[cid]


def _evaluate(op: _Operand, ids: tuple[str, ...]) -> tuple[ConditionCheck, ...]:
    """The checks of the conditions ``ids`` of ``A``, each distinct route run once;
    a copy is computed by the route it names, requested or not.  NotSquare
    unless ``A`` is square."""
    if op.arr.shape[0] != op.arr.shape[1]:
        raise NotSquare(f"EP classification requires a square matrix, got {op.arr.shape}")
    residuals: dict[str, float] = {}
    tol = op.tol.subspace_tol
    return tuple(ConditionCheck(cid, float(residual), residual <= tol)
                 for cid in ids for residual in [_residual(op, cid, residuals)])


def _passes(op: _Operand, ids: tuple[str, ...]) -> bool:
    return all(check.passed for check in _evaluate(op, ids))


def _is_ep(op: _Operand) -> bool:
    """Conjunction of ep1..ep7, for callers that read no other condition."""
    return _passes(op, _EP_IDS)


_REQUIRED = {SourceNotEP: _EP_IDS, SourceNotHypoEP: _HYPO_IDS}


def _source(op: _Operand, error: type[SourceNotEP | SourceNotHypoEP], message: str) -> _Operand:
    """``op`` when it passes the conditions ``error`` is about, else ``error(message)``:
    ep1..ep7 for SourceNotEP, hypo1 and hypo2 for SourceNotHypoEP."""
    if not _passes(op, _REQUIRED[error]):
        raise error(message)
    return op


def _classify(op: _Operand) -> ClassificationReport:
    """Classify ``A``: every condition of ``_ROUTES``."""
    checks = _evaluate(op, _IDS)
    passed = {check.condition_id: check.passed for check in checks}
    return ClassificationReport(is_ep=all(passed[cid] for cid in _EP_IDS),
                                is_hypo_ep=all(passed[cid] for cid in _HYPO_IDS),
                                rank=op.rank, gamma=op.gamma, conditions=checks)


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
    return _closure(_source(_Operand(a, tol), SourceNotEP, "closure suite requires an EP input"))


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
    source = _source(_Operand(a, tol), SourceNotEP, "factor construction requires an EP input")

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
    source = _source(_Operand(a, tol), SourceNotHypoEP,
                     "majorization witness requires a hypo-EP input")
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
