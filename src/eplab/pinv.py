"""Moore-Penrose pseudoinverse by SVD truncation, plus independent verifiers.

``pinv`` inverts singular values above the rank threshold and zeroes the
rest; the same TolerancePolicy instance should be passed to any downstream
classification so that all rank decisions for one analysis agree.
``penrose_verify`` and ``dagger_identities`` re-derive the defining
conditions and algebraic identities from scratch so they can certify a
candidate pseudoinverse without trusting its construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_TOL, SvdFactors, TolerancePolicy, adjoint, as_matrix,
                   factor_bases, min_eigenvalue, null_basis, numerical_rank,
                   op_norm, projector, range_basis, subspace_equal, svd)
from .errors import DimensionMismatch


def pinv(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse ``V diag(1/sigma_kept) U*`` with threshold truncation."""
    return pinv_from_factors(svd(a), tol)


def pinv_from_factors(factors: SvdFactors, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse from precomputed factors (keeps rank decisions shared)."""
    m, n = factors.shape
    r = numerical_rank(factors, tol)
    if r == 0:
        return np.zeros((n, m), dtype=np.complex128)
    inv = 1.0 / factors.sigma[:r]
    return (factors.v[:, :r] * inv) @ factors.u[:, :r].conj().T


@dataclass(frozen=True)
class PenroseReport:
    """Residuals of the six defining conditions for a candidate pseudoinverse.

    ``passed`` is true iff every residual is at most
    ``subspace_tol * max(1, ||a||_2)``.
    """

    residual_a_dag_a_a_dag: float
    residual_a_a_dag_a: float
    residual_sym_a_dag_a: float
    residual_sym_a_a_dag: float
    residual_proj_range: float
    residual_proj_carrier: float
    passed: bool

    def residuals(self) -> dict[str, float]:
        return {
            "residual_a_dag_a_a_dag": self.residual_a_dag_a_a_dag,
            "residual_a_a_dag_a": self.residual_a_a_dag_a,
            "residual_sym_a_dag_a": self.residual_sym_a_dag_a,
            "residual_sym_a_a_dag": self.residual_sym_a_a_dag,
            "residual_proj_range": self.residual_proj_range,
            "residual_proj_carrier": self.residual_proj_carrier,
        }


def penrose_verify(a, a_dag, tol: TolerancePolicy = DEFAULT_TOL) -> PenroseReport:
    """Check a candidate pseudoinverse against all six defining conditions.

    The projector conditions compare ``a @ a_dag`` with the orthogonal
    projector onto the range of ``a`` and ``a_dag @ a`` with the projector
    onto the range of ``a_dag`` (the carrier), each computed independently
    of the candidate.
    """
    arr = as_matrix(a)
    cand = as_matrix(a_dag)
    m, n = arr.shape
    if cand.shape != (n, m):
        raise DimensionMismatch(
            f"candidate must be {n}x{m} for a {m}x{n} matrix, got {cand.shape}")

    ada = cand @ arr
    aad = arr @ cand
    r1 = op_norm(cand @ aad - cand)
    r2 = op_norm(aad @ arr - arr)
    r3 = op_norm(ada - ada.conj().T)
    r4 = op_norm(aad - aad.conj().T)
    factors = svd(arr)
    r5 = op_norm(aad - projector(factor_bases(factors, tol)[0]))
    r6 = op_norm(ada - projector(range_basis(cand, tol)))

    scale = max(1.0, float(factors.sigma[0]))
    residuals = (r1, r2, r3, r4, r5, r6)
    passed = all(r <= tol.subspace_tol * scale for r in residuals)
    return PenroseReport(*residuals, passed=passed)


class IdentityResidual(NamedTuple):
    name: str
    residual: float


def dagger_identities(a, tol: TolerancePolicy = DEFAULT_TOL) -> list[IdentityResidual]:
    """Residuals of the pseudoinverse calculus identities.

    Covers the double pseudoinverse, the adjoint/dagger swap, the two Gram
    factorizations ``(A*A)+ = A+ A*+`` and ``(AA*)+ = A*+ A+``, the
    null-space match ``N(A*+) = N(A)``, and positivity of both Gram
    matrices (reported as the magnitude of any negative eigenvalue).
    Each side is computed by its own SVD; ``A+`` and ``N(A)`` share A's.
    """
    arr = as_matrix(a)
    star = adjoint(arr)
    factors = svd(arr)
    a_dag = pinv_from_factors(factors, tol)
    star_dag = pinv(star, tol)

    out = [
        IdentityResidual("double_pinv", op_norm(pinv(a_dag, tol) - arr)),
        IdentityResidual("adjoint_pinv_swap", op_norm(star_dag - a_dag.conj().T)),
        IdentityResidual("gram_left_pinv",
                         op_norm(pinv(star @ arr, tol) - a_dag @ star_dag)),
        IdentityResidual("gram_right_pinv",
                         op_norm(pinv(arr @ star, tol) - star_dag @ a_dag)),
        IdentityResidual("null_space_match",
                         subspace_equal(null_basis(star_dag, tol),
                                        factor_bases(factors, tol)[1], tol).residual),
    ]
    for name, gram in (("gram_left_psd", star @ arr), ("gram_right_psd", arr @ star)):
        out.append(IdentityResidual(name, max(0.0, -min_eigenvalue(gram))))
    return out
