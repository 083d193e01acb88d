"""Finite-section operator generators and structured random matrices.

Deterministic families model classical unbounded operators on sequence and
function spaces through their n-by-n compressions; each generator returns
the matrix together with :class:`ExpectedTraits` recording the expected
classification and any divergence between the sections and the operator
they model.  A finite section can genuinely disagree with its model (the
weighted shift below is the canonical case), so the expectation is data,
never silently patched.

Families
--------
DiagHarmonic      diag(1, 2, ..., n); sections and model both EP.
DiagAlternating   diag(1, 2, 1/3, 4, 1/5, ...); each section is invertible
                  hence EP, but gamma decays like 1/n along odd sizes: the
                  modeled operator's range is dense and not closed.
WeightedShift     (k+1, k) entry = k; the modeled shift is hypo-EP and not
                  EP, while every section has null(A) = span{e_n} not inside
                  null(A*) = span{e_1}, so sections are neither.
MultInvSqrt       diag(1/sqrt(t_i)) on the midpoint grid t_i = (i-1/2)/n;
                  entries are >= 1, sections invertible and EP.
FourierDerivative Hermitian compression of i d/dt with periodic boundary,
                  built in the discrete Fourier eigenbasis; null space is
                  the constants and the range is the mean-zero vectors for
                  every n.
RandomClosedRange prescribed-rank matrix with singular values in [1/2, 2].
RandomEP          V M V* with an orthonormal frame V and invertible M, so
                  range and adjoint range both equal span(V).

The five deterministic families are the keys of the family table
``_DETERMINISTIC``, which maps each to its builder and its expected traits;
``DETERMINISTIC_FAMILIES`` lists them in that order.  The two random
families need a rank (and take a seed) and are built in :func:`generate`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classify import _gamma_and_rank
from .core import DEFAULT_TOL
from .errors import BadSpec, ParseError
from .matio import MAX_DIMENSION, _decode, _encode


class Family(str, enum.Enum):
    DIAG_HARMONIC = "DiagHarmonic"
    DIAG_ALTERNATING = "DiagAlternating"
    WEIGHTED_SHIFT = "WeightedShift"
    MULT_INV_SQRT = "MultInvSqrt"
    FOURIER_DERIVATIVE = "FourierDerivative"
    RANDOM_CLOSED_RANGE = "RandomClosedRange"
    RANDOM_EP = "RandomEP"


class Expectation(str, enum.Enum):
    YES = "Yes"
    NO = "No"
    DIVERGES = "DivergesFromPaper"


@dataclass(frozen=True)
class ExpectedTraits:
    """Expected classification of a generated section.

    ``DivergesFromPaper`` marks a field where the section's verdict differs
    from the modeled infinite-dimensional operator; the note then documents
    both the model's ground truth and the section-level outcome.
    """

    ep: Expectation
    hypo_ep: Expectation
    note: str = ""

    def __post_init__(self):
        if Expectation.DIVERGES in (self.ep, self.hypo_ep) and not self.note:
            raise ValueError("a divergence marker requires a non-empty note")


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative recipe for a zoo matrix: family, size, rank, seed."""

    family: Family
    n: int
    rank: int | None = None
    seed: int | None = None
    expected: ExpectedTraits | None = None

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise BadSpec(f"section size must lie in [1, {MAX_DIMENSION}], got {self.n}")
        if self.rank is not None and not 0 <= self.rank <= self.n:
            raise BadSpec(f"rank must lie in [0, n], got rank={self.rank} n={self.n}")
        if self.seed is not None and self.seed < 0:
            raise BadSpec(f"seed must be non-negative, got {self.seed}")

    def to_json_dict(self) -> dict:
        return _encode(type(self), self)

    @classmethod
    def from_json_dict(cls, data) -> "OperatorSpec":
        """Decode a spec object; any malformed field raises BadSpec."""
        try:
            return _decode(cls, data)
        except ParseError as exc:
            raise BadSpec(f"malformed operator spec: {exc}") from exc


@dataclass(frozen=True)
class ZooReport:
    """The report of ``eplab zoo``: the spec, its expected traits, the path
    the matrix was written to and the matrix's shape."""

    spec: OperatorSpec
    expected: ExpectedTraits
    written: str
    rows: int
    cols: int

    def __post_init__(self):
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_DIMENSION:
                raise ValueError(f"{name} must lie in [1, {MAX_DIMENSION}], got {value}")


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n-by-n unitary via phase-fixed QR of a Ginibre draw."""
    return haar_frame(n, n, rng)


def haar_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal n-by-k frame with Haar-distributed column span."""
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases


def _log_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Log-uniform draws from [1/2, 2], the band of every random singular
    value and eigenvalue modulus."""
    return np.exp(rng.uniform(np.log(0.5), np.log(2.0), size))


def random_conditioned(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-``rank`` matrix U diag(sigma) V* with sigma log-uniform in [1/2, 2]."""
    u = haar_frame(n, rank, rng)
    v = haar_frame(n, rank, rng)
    sigma = np.sort(_log_uniform(rng, rank))[::-1]
    return (u * sigma) @ v.conj().T


def random_ep(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """EP-by-construction matrix V M V* with invertible, well-conditioned M."""
    v = haar_frame(n, rank, rng)
    p = haar_unitary(rank, rng)
    q = haar_unitary(rank, rng)
    sigma = _log_uniform(rng, rank)
    m = (p * sigma) @ q.conj().T
    return v @ m @ v.conj().T


def _diag_harmonic(n: int) -> np.ndarray:
    return np.diag(np.arange(1, n + 1).astype(np.complex128))


def _diag_alternating(n: int) -> np.ndarray:
    entries = [float(k) if k % 2 == 0 else 1.0 / k for k in range(1, n + 1)]
    return np.diag(np.array(entries, dtype=np.complex128))


def _weighted_shift(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.complex128)
    for k in range(1, n):
        a[k, k - 1] = k
    return a


def _mult_inv_sqrt(n: int) -> np.ndarray:
    t = (np.arange(1, n + 1) - 0.5) / n
    return np.diag((1.0 / np.sqrt(t)).astype(np.complex128))


def _fourier_derivative(n: int) -> np.ndarray:
    if n < 2:
        raise BadSpec("FourierDerivative sections need n >= 2")
    # Compression of i d/dt (periodic) onto the n lowest Fourier modes,
    # expressed on the uniform grid.  The mode window is symmetric for odd n
    # and one-sided at the top frequency for even n, which keeps the null
    # space exactly one-dimensional (the constants) for every n.
    j = np.arange(n)
    if n % 2:
        ks = np.arange(-(n // 2), n // 2 + 1)
    else:
        ks = np.arange(-(n // 2) + 1, n // 2 + 1)
    u = np.exp(2j * np.pi * np.outer(j, ks) / n) / np.sqrt(n)
    eigenvalues = -2.0 * np.pi * ks
    a = (u * eigenvalues) @ u.conj().T
    return (a + a.conj().T) / 2.0


_HARMONIC_NOTE = ("diagonal with entries 1..n modeling an unbounded positive "
                  "diagonal operator on sequence space; sections and model are "
                  "both EP and gamma stays 1 at every size")
_ALTERNATING_NOTE = ("diagonal alternating k and 1/k; every section is an "
                     "invertible diagonal, hence EP, but gamma decays like 1/n "
                     "along odd sizes, reflecting that the modeled operator has "
                     "dense non-closed range and is therefore not EP in the limit")
_SHIFT_NOTE = ("weighted forward shift: the modeled sequence-space operator is "
               "injective with null(adjoint) = span{e1}, making it hypo-EP but "
               "not EP; every n-by-n section instead has null(A) = span{e_n} "
               "not contained in null(A*) = span{e_1}, so sections classify as "
               "neither EP nor hypo-EP")
_MULT_NOTE = ("multiplication by 1/sqrt(t) sampled on the midpoint grid; all "
              "entries are >= 1, each section is an invertible diagonal and EP, "
              "matching the modeled multiplication operator")
_FOURIER_NOTE = ("periodic derivative times i, compressed onto the n lowest "
                 "Fourier modes; Hermitian with null space the constants and "
                 "range the mean-zero vectors, matching the modeled self-adjoint "
                 "differentiation operator")
_RANDOM_CR_NOTE = ("random matrix with prescribed rank and singular values in "
                   "[1/2, 2]; range and adjoint range are independent random "
                   "frames, so rank-deficient draws are not EP")
_RANDOM_EP_NOTE = ("V M V* with an orthonormal frame V and invertible M: range "
                   "and adjoint range both equal span(V) by construction")


_DETERMINISTIC = {
    Family.DIAG_HARMONIC: (_diag_harmonic, ExpectedTraits(
        Expectation.YES, Expectation.YES, _HARMONIC_NOTE)),
    Family.DIAG_ALTERNATING: (_diag_alternating, ExpectedTraits(
        Expectation.YES, Expectation.YES, _ALTERNATING_NOTE)),
    Family.WEIGHTED_SHIFT: (_weighted_shift, ExpectedTraits(
        Expectation.NO, Expectation.DIVERGES, _SHIFT_NOTE)),
    Family.MULT_INV_SQRT: (_mult_inv_sqrt, ExpectedTraits(
        Expectation.YES, Expectation.YES, _MULT_NOTE)),
    Family.FOURIER_DERIVATIVE: (_fourier_derivative, ExpectedTraits(
        Expectation.YES, Expectation.YES, _FOURIER_NOTE)),
}
DETERMINISTIC_FAMILIES = tuple(_DETERMINISTIC)


def generate(spec: OperatorSpec) -> tuple[np.ndarray, ExpectedTraits]:
    """Build the matrix for a spec along with its expected classification."""
    n, family = spec.n, spec.family
    if family in _DETERMINISTIC:
        build, traits = _DETERMINISTIC[family]
        return build(n), traits
    if spec.rank is None:
        raise BadSpec(f"{family.value} requires an explicit rank")
    rng = np.random.default_rng(0 if spec.seed is None else spec.seed)
    if family is Family.RANDOM_CLOSED_RANGE:
        verdict = Expectation.YES if spec.rank in (0, n) else Expectation.NO
        return (random_conditioned(n, spec.rank, rng),
                ExpectedTraits(verdict, verdict, _RANDOM_CR_NOTE))
    return (random_ep(n, spec.rank, rng),
            ExpectedTraits(Expectation.YES, Expectation.YES, _RANDOM_EP_NOTE))


class SweepPoint(NamedTuple):
    n: int
    gamma: float
    rank: int


def gamma_sweep(family: Family, sizes: list[int]) -> list[SweepPoint]:
    """Reduced minimum modulus and rank across section sizes.

    Only deterministic families sweep; for DiagAlternating the value is flat
    between consecutive odd sizes and strictly decreasing along odd sizes.
    """
    if family not in DETERMINISTIC_FAMILIES:
        raise BadSpec(f"gamma_sweep needs a deterministic family, got {family.value}")
    points = []
    for n in sizes:
        matrix, _ = generate(OperatorSpec(family=family, n=int(n)))
        points.append(SweepPoint(int(n), *_gamma_and_rank(matrix, DEFAULT_TOL)))
    return points


class CorpusEntry(NamedTuple):
    label: str
    matrix: np.ndarray


_CORPUS_KINDS = (
    "random", "hermitian", "hermitian_rank_def", "normal", "nilpotent",
    "ep_construction", "rank_deficient", "zero", "rank_one", "scaled",
)
_CORPUS_MAX_N = 32


def _hermitian(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian ``Q D Q*`` of rank ``r``: Haar ``Q``, the first ``r`` of ``D``
    log-uniform in [1/2, 2] with random signs, the rest 0."""
    q = haar_unitary(n, rng)
    d = np.zeros(n)
    d[:r] = _log_uniform(rng, r) * rng.choice([-1.0, 1.0], r)
    a = (q * d) @ q.conj().T
    return (a + a.conj().T) / 2.0


def corpus_matrix(index: int, seed: int = 0) -> CorpusEntry:
    """Deterministic mixed-family square matrix for property sweeps.

    Cycles through random full-rank, Hermitian, rank-deficient Hermitian,
    normal, nilpotent, EP-by-construction, rank-deficient, zero, rank-one
    and rescaled draws, with sizes from 1 to 32.  Spectra are kept in
    [1/2, 2] (before rescaling) so residual criteria stated as absolute
    bounds remain meaningful across the whole corpus.
    """
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(1, _CORPUS_MAX_N + 1))
    kind = _CORPUS_KINDS[index % len(_CORPUS_KINDS)]

    if kind == "random":
        a = random_conditioned(n, n, rng)
    elif kind == "hermitian":
        a = _hermitian(n, n, rng)
    elif kind == "hermitian_rank_def":
        a = _hermitian(n, int(rng.integers(0, n + 1)), rng)
    elif kind == "normal":
        r = int(rng.integers(0, n + 1))
        q = haar_unitary(n, rng)
        d = np.zeros(n, dtype=np.complex128)
        d[:r] = _log_uniform(rng, r) * np.exp(2j * np.pi * rng.random(r))
        a = (q * d) @ q.conj().T
    elif kind == "nilpotent":
        jordan = np.zeros((n, n), dtype=np.complex128)
        mask = rng.random(n - 1) < 0.8
        for i in np.flatnonzero(mask):
            jordan[i, i + 1] = 1.0
        q = haar_unitary(n, rng)
        a = float(_log_uniform(rng, ())) * (q @ jordan @ q.conj().T)
    elif kind == "ep_construction":
        r = int(rng.integers(0, n + 1))
        a = random_ep(n, r, rng)
    elif kind == "rank_deficient":
        r = int(rng.integers(0, n))
        a = random_conditioned(n, r, rng)
    elif kind == "zero":
        a = np.zeros((n, n), dtype=np.complex128)
    elif kind == "rank_one":
        a = random_conditioned(n, 1, rng)
    else:  # scaled
        factor = 10.0 if rng.random() < 0.5 else 0.1
        a = factor * random_conditioned(n, n, rng)

    return CorpusEntry(label=f"{kind}-n{n}-i{index}", matrix=a)
