"""Dense complex linear-algebra substrate: SVD, numerical rank, subspaces.

Matrices are plain numpy arrays (dtype complex128, shape (m, n)); real input
embeds.  Subspaces are carried as orthonormal bases together with a basis
of their orthogonal complement, and compared through the 2-norm distance
of their orthogonal projectors, evaluated as the norm of one complement-side
cross product (the sine of the largest principal angle), so set-level
statements such as range equality or null-space inclusion reduce to
residuals judged against a :class:`TolerancePolicy`, each reported as a
:class:`ConditionCheck`.  Every function here is pure: no mutation of
inputs, safe for concurrent use, and no hidden state.
The private ``_Operand`` is the exception: it caches what derives from a
matrix, and within one analysis a matrix equal by value to one already
decomposed takes its factors.  :meth:`_Operand.overlap` runs an analysis's
independent SVDs beside each other; its docstring states when and how.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BadShape, ConvergenceFailure, DimensionMismatch, NonFinite

_EPS = float(np.finfo(np.float64).eps)

# Relative slack on quantities whose exact value is 0: the factor-C and
# solve residuals and the gamma perturbation bound.  Read only by
# TolerancePolicy.slack_bound, which scales it by max(1, ||A||).
RESIDUAL_SLACK = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting NaN/Inf entries.

    BadShape when ``a`` is ragged, is not 2-D or has an entry that is not a
    number; NonFinite for an entry past the float range or a ``None``,
    which numpy would read as NaN."""
    try:
        arr = np.asarray(a)
    except ValueError as exc:
        raise BadShape(f"not a rectangular matrix: {exc}") from None
    if arr.ndim != 2:
        raise BadShape(f"expected a 2-D matrix, got ndim={arr.ndim}")
    m, n = arr.shape
    if m < 1 or n < 1:
        raise BadShape(f"matrix dimensions must be positive, got {arr.shape}")
    if arr.dtype == object and any(entry is None for entry in arr.flat):
        raise NonFinite("matrix contains a None entry")
    try:
        arr = arr.astype(np.complex128, copy=False)
    except OverflowError:
        raise NonFinite("matrix contains an entry past the float range") from None
    except (TypeError, ValueError) as exc:
        raise BadShape(f"matrix entries must be numbers: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return arr


def _formed(what: str, form) -> np.ndarray:
    """``form()``, a matrix formed from finite operands, computed without
    numpy's overflow warnings; NonFinite naming ``what`` when an entry is
    past the float range, so a finite input is never blamed for it."""
    with np.errstate(over="ignore", invalid="ignore"):
        arr = form()
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{what} overflows the float range")
    return arr


def _power_of_two(vec: np.ndarray) -> float:
    """The power of two at the largest modulus of ``vec``'s entries; 0.5 for
    a zero array."""
    return float(np.ldexp(1.0, np.frexp(float(np.max(np.abs(vec))))[1] - 1))


def _scaled(arr: np.ndarray, power: float) -> np.ndarray:
    """``arr / power`` for a power of two ``power``, exact unless it
    underflows.  The real and imaginary parts are divided apart: numpy
    divides a complex number by multiplying with the divisor's reciprocal,
    which overflows at a subnormal power."""
    return arr.real / power + 1j * (arr.imag / power)


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a vector whose sum of squares may overflow, with no
    decomposition: ``np.linalg.norm`` of the vector scaled by the power of
    two at its largest modulus (Blue 1978).  The scaling is exact, so the
    value is ``np.linalg.norm``'s wherever that does not overflow or
    underflow; past the float range it is inf, without numpy warnings."""
    power = _power_of_two(vec)
    return power * float(np.linalg.norm(_scaled(vec, power)))


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds governing rank decisions and residual-based subspace tests.

    ``rank_rel`` scales the largest singular value; ``rank_abs`` is an
    absolute cutoff, mutually exclusive with ``rank_rel``.  With neither set,
    the threshold is ``max(m, n) * eps * sigma_max``, the standard
    pseudoinverse truncation rule (deterministic and scale invariant).
    The acceptance rules are its three bound methods, the only readers of
    ``subspace_tol`` and ``RESIDUAL_SLACK``: :meth:`residual_bound` (subspace
    sines and residuals whose exact value is 0), :meth:`slack_bound` (the
    fixed rule of factor-C, solve and gamma-bound residuals) and
    :meth:`contraction_bound` (the Douglas contraction).  ``psd_tol`` times
    ``||B||^2`` is the floor for the least eigenvalue of the Douglas
    majorization gap ``B B* - A A*``, so that rule is scale-free.  Only
    the slack rule floors its scale at 1.  Every
    value that is set must be finite and positive; ValueError otherwise.
    """

    rank_rel: float | None = None
    rank_abs: float | None = None
    subspace_tol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self):
        if self.rank_rel is not None and self.rank_abs is not None:
            raise ValueError("rank_rel and rank_abs are mutually exclusive")
        for name in ("rank_rel", "rank_abs", "subspace_tol", "psd_tol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < float("inf"):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    def residual_bound(self, scale: float = 1.0) -> float:
        """``subspace_tol * scale``: a residual whose exact value is 0 passes
        when it is at most this.  ``scale`` is the 2-norm of the exact term
        the residual compares against, with no floor, so a residual on a
        small matrix is held to its own size (the normwise relative
        residual); a sine or a difference of projectors is scale-free and
        takes the default."""
        return self.subspace_tol * scale

    def slack_bound(self, scale: float = 1.0) -> float:
        """``RESIDUAL_SLACK * max(1, scale)``, whatever ``subspace_tol`` is: the
        bound of a residual held to a fixed relative slack."""
        return RESIDUAL_SLACK * max(1.0, scale)

    def contraction_bound(self) -> float:
        """``1 + subspace_tol``: an operator norm passes as a contraction when
        it is at most this."""
        return 1.0 + self.subspace_tol


DEFAULT_TOL = TolerancePolicy()


class ConditionCheck(NamedTuple):
    """A named residual and its verdict.  Each subspace test, every
    classification condition, every row of the closed-range panel and of the
    dagger identities, each Penrose condition and each condition of the
    Douglas and perturbation reports is one."""

    condition_id: str
    residual: float
    passed: bool

    @classmethod
    def judge(cls, condition_id: str, residual: float, bound: float) -> ConditionCheck:
        """The check of ``residual``, passed when it is at most ``bound``, a
        value of one of the bound methods of :class:`TolerancePolicy`."""
        residual = float(residual)
        return cls(condition_id, residual, residual <= bound)


@dataclass(frozen=True)
class SvdFactors:
    """Full decomposition ``a = u @ diag(sigma) @ v.conj().T``, as :func:`svd`
    returns it: ``u`` is m-by-m unitary, ``v`` is n-by-n unitary and ``sigma``
    holds the min(m, n) singular values sorted non-increasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a) -> SvdFactors:
    """Full SVD; raises NonFinite on bad entries, ConvergenceFailure from LAPACK."""
    arr = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdFactors(_readonly(u), _readonly(s), _readonly(vh.conj().T))


def numerical_rank(a, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of singular values of ``a`` strictly above the rank cut of ``tol``:
    the rank of its full SVD that :func:`eplab.classify` reports."""
    return _Operand(a, tol).rank


def _rank(sigma: np.ndarray, shape: tuple[int, int], tol: TolerancePolicy) -> int:
    """The number of the singular values ``sigma`` of a matrix of ``shape``
    strictly above the cut: ``rank_abs`` if set, else ``rank_rel`` if set,
    else ``max(m, n) * eps``, times ``sigma_1``.  NonFinite when ``sigma_1``,
    the 2-norm, is past the float range, as it is for a finite matrix whose
    entries are all 1.5e308."""
    if sigma[0] == np.inf:
        raise NonFinite("the 2-norm sigma_1 of the matrix overflows the float range")
    factor = tol.rank_rel if tol.rank_rel is not None else max(shape) * _EPS
    cut = float(tol.rank_abs) if tol.rank_abs is not None else float(factor) * float(sigma[0])
    return int(np.count_nonzero(sigma > cut))


def _gamma_and_rank(arr: np.ndarray, tol: TolerancePolicy) -> tuple[float, int]:
    """The smallest singular value above the rank cut (0 at rank 0) and the
    numerical rank, both from one values-only SVD of ``arr``."""
    sigma = svdvals(arr)
    rank = _rank(sigma, arr.shape, tol)
    return (float(sigma[rank - 1]) if rank else 0.0), rank


@dataclass(frozen=True, kw_only=True)
class SubspaceBasis:
    """A subspace of C^ambient_dim as the two parts of one unitary SVD factor.

    ``basis`` (ambient_dim-by-k) holds the singular vectors that span the
    subspace and ``complement`` (ambient_dim-by-(ambient_dim - k)) the rest
    of the same factor, so each is orthonormal and orthogonal to the other;
    k = 0 is the zero subspace, an empty basis (never a null value).  Only
    an operand's :attr:`_Operand.bases` builds one, so the constructor
    checks nothing; a subspace spanned by a caller's columns is
    :func:`range_basis` of them.
    """

    basis: np.ndarray
    complement: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


# The analysis of a matrix with both dimensions at least this decomposes
# A* and A+ on a thread of its own.  Measured on classify with OpenBLAS on
# one thread and two free CPUs, the overlap took 1.19 times the serial time
# at n = 32, 0.93 at 48 and 0.79 at 64.
_WORKER_MIN_DIM = 48


def _openblas_threads():
    """The thread-count query of the OpenBLAS that numpy's wheel ships in
    ``numpy.libs``; for any other BLAS a stand-in that reads 2, since two
    SVDs that each run more than one BLAS thread compete for the cores."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        query = lib.scipy_openblas_get_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return lambda: 2
    query.argtypes, query.restype = [], ctypes.c_int
    return query


_blas_threads = _openblas_threads()


class _Operand:
    """A matrix and its tolerance policy; each thing derived from it is computed once.

    The SVD and what it gives (rank, norm, gamma, ``A+``, bases) and the
    operands of ``A*``, ``A+``, ``A* A`` and ``A A*`` are made on first use
    and kept.  Every operand :meth:`derive` makes shares its maker's
    decomposition table: within one analysis a matrix equal by value to one
    already decomposed takes its factors (``np.array_equal`` counts the
    ``-0.0`` of ``conj`` as ``+0.0``).  That is the same decomposition, so
    no independent route is lost.  :meth:`start` puts an operand's pending
    SVD in the table, and an operand equal by value takes that;
    :meth:`overlap` starts them.
    The table holds only arrays, factors and futures of factors: no
    operand refers back to another, so reference counting frees an operand
    once dropped; the cycle collector does not count numpy arrays, so
    cyclic garbage holding them would be freed late.
    """

    def __init__(self, a, tol: TolerancePolicy = DEFAULT_TOL):
        self.arr = as_matrix(a)
        self.tol = tol
        self._table: list[tuple[np.ndarray, SvdFactors | Future]] = []

    def derive(self, a) -> _Operand:
        """The operand of ``a`` in this analysis: same policy, same table."""
        op = _Operand(a, self.tol)
        op._table = self._table
        return op

    def _entry(self) -> SvdFactors | Future | None:
        """The factors, or pending factors, of a matrix equal by value in the table."""
        for arr, entry in self._table:
            if np.array_equal(arr, self.arr):
                return entry
        return None

    @contextmanager
    def overlap(self):
        """Run the SVDs of ``A*`` and ``A+`` on a thread beside this one for
        the body of the ``with`` block.

        When both dimensions of ``A`` are at least ``_WORKER_MIN_DIM`` and
        the BLAS runs one thread, it opens a one-thread executor (thread
        name prefix ``eplab-svd``), starts ``A*``'s SVD on it (none when
        ``A*`` equals ``A`` exactly), decomposes ``A`` on the calling
        thread, starts ``A+``'s SVD and yields; otherwise it only yields
        and every SVD is made on first use.  Either way each matrix is
        decomposed once and the factors are the same bits.  The executor's
        thread ends before the block is left: on a failure, in the block or
        here, what is queued runs first and the same error propagates."""
        if min(self.arr.shape) < _WORKER_MIN_DIM or _blas_threads() != 1:
            yield
            return
        with ThreadPoolExecutor(1, "eplab-svd") as executor:
            if not np.array_equal(self.adjoint.arr, self.arr):
                self.adjoint.start(executor)
            self.factors  # A's SVD, on this thread
            self.dagger.start(executor)
            yield

    def start(self, executor: Executor) -> None:
        """Start the operand's SVD on ``executor``, unless the table holds a
        matrix equal by value.  :attr:`factors` waits for it."""
        if self._entry() is None:
            self._table.append((self.arr, executor.submit(svd, self.arr)))

    @cached_property
    def factors(self) -> SvdFactors:
        entry = self._entry()
        if entry is None:
            entry = svd(self.arr)
            self._table.append((self.arr, entry))
        return entry.result() if isinstance(entry, Future) else entry

    @cached_property
    def rank(self) -> int:
        return _rank(self.factors.sigma, self.arr.shape, self.tol)

    @property
    def norm(self) -> float:
        """``||A||_2``, the largest singular value."""
        return float(self.factors.sigma[0])

    @property
    def gamma(self) -> float:
        """Smallest singular value above the rank cut; 0 at rank 0."""
        return float(self.factors.sigma[self.rank - 1]) if self.rank else 0.0

    @cached_property
    def pinv(self) -> np.ndarray:
        """``V diag(1/sigma_kept) U*``, truncated at the rank cut; at rank 0
        the empty products give the n-by-m zero matrix.  NonFinite, naming
        ``sigma_r``, when ``1/sigma_r`` overflows, as it does for a finite
        input with ``sigma_r`` below about 5.6e-309."""
        r, f = self.rank, self.factors
        if r and 1.0 / float(f.sigma[r - 1]) == float("inf"):
            raise NonFinite("the pseudoinverse overflows: 1/sigma_r is past the float range "
                            f"at sigma_r = {f.sigma[r - 1]:.3e}")
        return (f.v[:, :r] * (1.0 / f.sigma[:r])) @ f.u[:, :r].conj().T

    @cached_property
    def bases(self) -> tuple[SubspaceBasis, SubspaceBasis]:
        """Bases of ``R(A)`` and ``N(A)``, split at :attr:`rank`.

        The range basis is the leading left singular vectors, the null basis
        the trailing right singular vectors; each carries a view of the
        remaining vectors of the same factor as its complement.
        """
        r, u, v = self.rank, self.factors.u, self.factors.v
        return (SubspaceBasis(basis=_readonly(u[:, :r]), complement=u[:, r:]),
                SubspaceBasis(basis=_readonly(v[:, r:]), complement=v[:, :r]))

    @cached_property
    def adjoint(self) -> _Operand:
        """``A*``."""
        return self.derive(self.arr.conj().T)

    @cached_property
    def dagger(self) -> _Operand:
        return self.derive(self.pinv)

    @cached_property
    def gram_left(self) -> _Operand:
        """``A* A``; NonFinite, naming it, when it overflows."""
        return self.derive(_formed("the Gram matrix A* A", lambda: self.arr.conj().T @ self.arr))

    @cached_property
    def gram_right(self) -> _Operand:
        """``A A*``; NonFinite, naming it, when it overflows."""
        return self.derive(_formed("the Gram matrix A A*", lambda: self.arr @ self.arr.conj().T))


def range_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space (leading left singular vectors).

    ``a`` is any spanning set, so this is also the subspace spanned by a
    caller's own columns."""
    return _Operand(a, tol).bases[0]


def null_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the null space (trailing right singular vectors)."""
    return _Operand(a, tol).bases[1]


def projector(s: SubspaceBasis) -> np.ndarray:
    """Orthogonal projector ``basis @ basis*``; Hermitian and idempotent."""
    return s.basis @ s.basis.conj().T


def _check_ambient(p: SubspaceBasis, q: SubspaceBasis) -> None:
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}")


def _cross_norm(x: np.ndarray, y: np.ndarray) -> float:
    """``||x* y||_2``, 0 when the product is empty.

    For ``x`` an orthonormal basis of the complement of a subspace U,
    ``x x* = I - P_U``, so this is ``||(I - P_U) y||_2``; for an orthonormal
    ``y`` spanning V with dim V = dim U it is the sine of the largest
    principal angle, ``||P_U - P_V||_2`` (Björck & Golub 1973).
    """
    product = x.conj().T @ y
    return op_norm(product) if product.size else 0.0


def subspace_equal(p: SubspaceBasis, q: SubspaceBasis,
                   tol: TolerancePolicy = DEFAULT_TOL) -> ConditionCheck:
    """Projector-distance equality test: ``||P_p - P_q||_2 <= tol.residual_bound()``.

    The distance is exactly 1 when the dimensions differ.  For equal
    dimensions k it is the sine of the largest principal angle,
    ``||p_perp* q||_2``, an (n-k)-by-k product instead of an n-by-n norm.
    """
    _check_ambient(p, q)
    residual = 1.0 if p.k != q.k else _cross_norm(p.complement, q.basis)
    return ConditionCheck.judge("subspace_equal", residual, tol.residual_bound())


def subspace_included(p: SubspaceBasis, q: SubspaceBasis,
                      tol: TolerancePolicy = DEFAULT_TOL) -> ConditionCheck:
    """Inclusion test p <= q via ``||(I - P_q) P_p||_2 = ||q_perp* p||_2``."""
    _check_ambient(p, q)
    return ConditionCheck.judge("subspace_included", _cross_norm(q.complement, p.basis),
                                tol.residual_bound())


def adjoint(a) -> np.ndarray:
    """Conjugate transpose; exact involution."""
    return as_matrix(a).conj().T


def svdvals(a) -> np.ndarray:
    """Singular values, non-increasing, from the values-only SVD driver."""
    arr = as_matrix(a)
    try:
        return np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


def op_norm(a) -> float:
    """Operator 2-norm, the largest singular value."""
    return float(svdvals(a)[0])


def growth_bound(c, a) -> float:
    """``sup ||C x||^2 / (||x||^2 + ||A x||^2)`` over nonzero ``x``, exactly.

    ``C`` and ``A`` need the same column count.  The QR factor ``R`` of the
    stacked ``[I; A]`` has ``R* R = I + A* A``, so ``R^-1`` is
    ``(I + A* A)^(-1/2)`` up to a unitary factor on the right and the
    supremum is ``||C R^-1||_2^2``: one solve with ``R*`` and one
    values-only SVD.  ``A* A`` is never formed, so nothing overflows for
    entries below about 1e308; a supremum above the float range is inf.
    """
    arr_c, arr_a = as_matrix(c), as_matrix(a)
    n = arr_a.shape[1]
    r = np.linalg.qr(np.vstack([np.eye(n), arr_a]), mode="r")
    with np.errstate(over="ignore"):
        return float(np.square(op_norm(np.linalg.solve(r.conj().T, arr_c.conj().T))))


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of the Hermitian part ``(A + A*) / 2`` of a square
    matrix, formed as ``A/2 + A*/2`` so a finite part does not overflow."""
    arr = as_matrix(a)
    herm = arr / 2.0 + arr.conj().T / 2.0
    try:
        return float(np.linalg.eigvalsh(herm)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigvalsh did not converge: {exc}") from exc
