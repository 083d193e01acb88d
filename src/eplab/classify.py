"""EP / hypo-EP classification and related constructions.

A square matrix is EP when its range equals the range of its adjoint
("Equal Projections"), and hypo-EP when its range is contained in the range
of the adjoint.  Both notions admit several equivalent formulations;
``classify`` evaluates every one of them independently and reports each
residual, because the mutual agreement of the routes is itself the main
correctness check.  Two tables hold them: ``_ROUTES`` maps each route id,
in measuring order, to the function of the operand that measures its
residual, and ``_CONDITIONS`` maps each condition id, in report order, to
the id of the one route it reads (and, for an equality, the operand whose
rank must be A's, which is the operand that route reads).  The README's
"Classification conditions" states each condition and maps its route.
ep1..ep7 are equivalent, as are hypo1/hypo2; chain2..chain4 are one-way
consequences of hypo2 (and collapse back to the EP conditions in finite
dimension).  Every residual is a scale-free projector distance, tested
against ``tol.residual_bound()``, that is ``subspace_tol``; nothing is
sampled.

``classify`` evaluates every condition.  The callers that read only the EP
verdict (the closure suite and its members, ``construct_factor_c``,
``check_perturbation`` and ``generate_admissible``) evaluate ep1..ep7 only,
and ``majorization_witness`` hypo1 and hypo2 only, through the same
evaluator, which measures each route they read once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, ConditionCheck, TolerancePolicy, _cross_norm, _formed,
                   _gamma_and_rank, _norm, _Operand, _power_of_two, as_matrix, min_eigenvalue,
                   op_norm, projector)
from .errors import (BadShape, DimensionMismatch, NonFinite, NotSquare, SolveFailure,
                     SourceNotEP, SourceNotHypoEP)


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


def modulus(a) -> np.ndarray:
    """Hermitian PSD square root of ``A* A``.

    Computed from the singular decomposition of ``A`` itself, which is the
    spectral decomposition of ``A* A`` with exactly ``A``'s singular values;
    this keeps ``N(|A|) = N(A)`` at the rank-threshold level instead of
    inflating tiny eigenvalues through the squared Gram matrix.  NonFinite
    when ``sigma_1`` is past the float range, as for :func:`classify`; the
    root is symmetrized by halves, so a finite ``|A|`` does not overflow.
    """
    return _modulus(_Operand(a))


def _modulus(op: _Operand) -> np.ndarray:
    """``|A|`` of an operand: ``V diag(sigma) V*`` with its Hermitian part taken."""
    op.rank  # the rank rule's NonFinite when sigma_1 overflows
    v, sigma = op.factors.v[:, :len(op.factors.sigma)], op.factors.sigma
    root = (v * sigma) @ v.conj().T
    return root / 2.0 + root.conj().T / 2.0


# The routes, by id, in measuring order: each a function of the operand
# that returns one residual.  ``x_vs_y`` is ||X_perp* Y||, from the bases
# of the SVDs of A, A* and A+: the sine of the largest principal angle
# between X and Y when their dimensions are equal, and Y <= X's inclusion
# residual in any case.  The routes that read only A's SVD come first,
# then those that read A*'s and last those that read A+'s, the SVD the
# overlap starts last.  The commutator alone reads the products A A+
# and A+ A of the computed A+.
_ROUTES = {
    "commutator": lambda op: op_norm(op.arr @ op.pinv - op.pinv @ op.arr),
    # N(A) is the complement of the carrier N(A)_perp in V's columns.
    "carrier_vs_range": lambda op: _cross_norm(op.bases[1].basis, op.bases[0].basis),
    "range_vs_adjoint_range": lambda op: _cross_norm(op.bases[0].complement,
                                                     op.adjoint.bases[0].basis),
    "null_vs_adjoint_null": lambda op: _cross_norm(op.bases[1].complement,
                                                   op.adjoint.bases[1].basis),
    "adjoint_null_vs_null": lambda op: _cross_norm(op.adjoint.bases[1].complement,
                                                   op.bases[1].basis),
    "null_vs_dagger_null": lambda op: _cross_norm(op.bases[1].complement,
                                                  op.dagger.bases[1].basis),
    "dagger_range_vs_range": lambda op: _cross_norm(op.dagger.bases[0].complement,
                                                    op.bases[0].basis),
    # For subspaces of equal dimension the eigenvalues of P_R(A+) - P_R(A)
    # are the +-sines of their principal angles, so this is the sine of
    # dagger_range_vs_range again, read from an eigendecomposition.
    "projector_order": lambda op: max(0.0, -min_eigenvalue(projector(op.dagger.bases[0])
                                                           - projector(op.bases[0]))),
}

# Each condition, in report order: the id of the route that measures it and,
# for an equality of subspaces, the operand whose rank must be A's, which
# is the operand its route reads; when it is not, the residual is 1, the
# projector distance of subspaces of unequal dimensions, and the route is
# not read.
_CONDITIONS = {
    "ep1": ("range_vs_adjoint_range", "adjoint"), "ep2": ("commutator", None),
    "ep3": ("null_vs_dagger_null", "dagger"), "ep4": ("null_vs_adjoint_null", "adjoint"),
    # ep5's (I - P_N(A)) - P_R(A) is minus ep7's P_R(A) + P_N(A) - I.  The
    # carrier N(A)_perp and R(A) each have dimension r, so its norm is the
    # sine of their largest principal angle.
    "ep5": ("carrier_vs_range", None), "ep6": ("dagger_range_vs_range", "dagger"),
    "ep7": ("carrier_vs_range", None), "hypo1": ("adjoint_null_vs_null", None),
    # hypo2's R(A) <= R(A+) has the inclusion residual ||R(A+)_perp* R(A)||,
    # ep6's sine when A+ has A's rank.  With P = A A+ and Q = A+ A, hypo2 is
    # Q P = P, and chain2's P Q = P is its adjoint: ||P Q - P|| = ||(Q P - P)*||.
    "hypo2": ("dagger_range_vs_range", None), "chain2": ("dagger_range_vs_range", None),
    # chain4's sup of ||P x|| - ||Q x|| over unit x is ||(I - Q) P||, hypo2's.
    "chain3": ("projector_order", None), "chain4": ("dagger_range_vs_range", None),
}
_IDS = tuple(_CONDITIONS)
_EP_IDS = tuple(cid for cid in _IDS if cid.startswith("ep"))
_HYPO_IDS = tuple(cid for cid in _IDS if cid.startswith("hypo"))


def _evaluate(op: _Operand, ids: tuple[str, ...]) -> tuple[ConditionCheck, ...]:
    """The checks of the conditions ``ids`` of ``A``, in the order of ``ids``,
    each route they read measured once.  NotSquare unless ``A`` is square.

    The conditions are measured in the order of their routes in
    :data:`_ROUTES`, so the first route that fails raises, whether or not
    :meth:`_Operand.overlap` runs the SVDs of ``A*`` and ``A+``, which
    every caller's conditions read, beside ``A``'s."""
    if op.arr.shape[0] != op.arr.shape[1]:
        raise NotSquare(f"EP classification requires a square matrix, got {op.arr.shape}")
    routes, measured = list(_ROUTES), {}

    def measure(route: str, rank_operand: str | None) -> float:
        if rank_operand is not None and op.rank != getattr(op, rank_operand).rank:
            return 1.0
        if route not in measured:
            measured[route] = _ROUTES[route](op)
        return measured[route]

    with op.overlap():
        values = {cid: measure(*_CONDITIONS[cid]) for cid in
                  sorted(ids, key=lambda cid: routes.index(_CONDITIONS[cid][0]))}
    bound = op.tol.residual_bound()
    return tuple(ConditionCheck.judge(cid, values[cid], bound) for cid in ids)


def _passes(op: _Operand, ids: tuple[str, ...]) -> bool:
    """Whether every condition of ``ids`` passes; with ``_EP_IDS`` the EP
    verdict of the callers that read no other condition."""
    return all(check.passed for check in _evaluate(op, ids))


_REQUIRED = {SourceNotEP: _EP_IDS, SourceNotHypoEP: _HYPO_IDS}


def _source(op: _Operand, error: type[SourceNotEP | SourceNotHypoEP], message: str) -> _Operand:
    """``op`` when it passes the conditions ``error`` is about, else ``error(message)``:
    ep1..ep7 for SourceNotEP, hypo1 and hypo2 for SourceNotHypoEP."""
    if not _passes(op, _REQUIRED[error]):
        raise error(message)
    return op


def _classify(op: _Operand) -> ClassificationReport:
    """Classify ``A``: every condition of ``_CONDITIONS``."""
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
    equals ``A`` (two full SVDs for exactly Hermitian ``A``); the twelve
    conditions read eight routes, each measured once.  From order 48 on,
    while the BLAS runs one thread, the SVDs of ``A*`` and ``A+`` run on a
    thread of the call's own (see :meth:`eplab.core._Operand.overlap`).
    Both paths measure the routes in one order, so the report is bit for
    bit the serial one and a failure raises the serial error.
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
        ("modulus", op.derive(_modulus(op))),
    )
    return [(name, _passes(member, _EP_IDS)) for name, member in members]


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
    check = ConditionCheck.judge("factorization", op_norm(star - arr @ c),
                                 tol.slack_bound(source.norm))
    bijective = source.derive(c).rank == n

    if not bijective or not check.passed:
        raise SolveFailure(
            "carrier-restricted solve is numerically singular "
            f"(residual={check.residual:.3e}, bijective={bijective}); gamma may be ~0")
    return FactorC(c=c, residual_factorization=check.residual)


def majorization_witness(a, x, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Constant ``k`` with ``|<A x, y>| <= k ||A y||`` for all ``y``.

    For hypo-EP ``A`` the vector ``A x`` lies in the range of ``A*``, so the
    minimal-norm solution ``z`` of ``A* z = A x`` exists and ``k = ||z||``
    works.  For every ``y``, ``|<A x, y>| <= ||z|| ||A y|| + ||A* z - A x|| ||y||``
    (Cauchy-Schwarz), so the check that the solve residual is within
    tolerance certifies the bound; SolveFailure otherwise.  ``x`` is a 1-D
    vector or a single column (BadShape otherwise) of the length of a row
    of ``A`` (DimensionMismatch otherwise).  Returns 0 when
    ``x`` is in the null space; NaN or Inf in ``x`` is NonFinite, as is an
    ``A x`` or ``z`` past the float range, each named, without numpy warnings.
    """
    source = _source(_Operand(a, tol), SourceNotHypoEP,
                     "majorization witness requires a hypo-EP input")
    arr, star = source.arr, source.adjoint.arr
    n = arr.shape[1]

    try:
        shape = np.shape(x)
    except ValueError as exc:
        raise BadShape(f"x is not a rectangular array: {exc}") from None
    if not shape or shape[1:] not in ((), (1,)):
        raise BadShape(f"x must be a vector or a single column, got shape {shape}")
    vec = as_matrix(np.reshape(x, (-1, 1))).ravel()
    if vec.shape[0] != n:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match matrix size {n}")

    ax = _formed("the image A x", lambda: arr @ vec)
    # The minimal-norm z is pinv(A*) A x, and pinv(A*) = pinv(A)*.
    z = _formed("the solution z of A* z = A x", lambda: source.pinv.conj().T @ ax)
    k = _norm(z)
    if k == np.inf:
        raise NonFinite("the norm ||z|| of the solution z overflows the float range")

    # The solve is judged with both sides divided by p, the power of two at
    # x's largest modulus (1 when that is below 2), so neither overflows for
    # a finite x.  The scaling is exact: where the unscaled sides are finite,
    # the verdict is theirs.
    p = max(1.0, _power_of_two(vec))
    scale = max(1.0, source.norm) * max(1.0 / p, _norm(vec / p))
    bound = max(tol.residual_bound(scale), tol.slack_bound(scale))
    if not ConditionCheck.judge("solve", _norm(star @ (z / p) - ax / p), bound).passed:
        raise SolveFailure("A* z = A x is not solvable at tolerance; input may not be hypo-EP")

    return k

