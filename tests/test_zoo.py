import hashlib
import subprocess
import sys

import numpy as np
import pytest

from eplab import classify, gamma, numerical_rank, op_norm, projector, range_basis
from eplab.errors import BadSpec
from eplab.matio import MAX_DIMENSION
from eplab.zoo import (Expectation, ExpectedTraits, Family, OperatorSpec,
                       corpus_matrix, gamma_sweep, generate, haar_frame, random_conditioned,
                       random_ep)

from conftest import child_env


def make(family, n, **kw):
    matrix, traits = generate(OperatorSpec(family=family, n=n, **kw))
    return matrix, traits


def test_diag_harmonic():
    a, traits = make(Family.DIAG_HARMONIC, 4)
    np.testing.assert_array_equal(a, np.diag([1, 2, 3, 4]).astype(complex))
    assert traits.ep is Expectation.YES
    assert classify(a).is_ep


def test_diag_alternating_entries_and_gamma():
    a, traits = make(Family.DIAG_ALTERNATING, 5)
    np.testing.assert_allclose(np.diagonal(a).real, [1.0, 2.0, 1 / 3, 4.0, 1 / 5])
    # Each section is EP; the modeled operator's range is not closed.
    assert (traits.ep, traits.hypo_ep) == (Expectation.DIVERGES, Expectation.DIVERGES)
    assert traits.note
    assert gamma(a) == 1 / 5
    assert classify(a).is_ep


def test_weighted_shift_section_diverges_from_model():
    a, traits = make(Family.WEIGHTED_SHIFT, 3)
    np.testing.assert_array_equal(a, np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]],
                                              dtype=complex))
    rep = classify(a)
    assert not rep.is_ep and not rep.is_hypo_ep
    assert traits.hypo_ep is Expectation.DIVERGES
    assert traits.ep is Expectation.NO
    assert traits.note  # divergence must be documented


def test_mult_inv_sqrt_entries_bounded_below():
    a, traits = make(Family.MULT_INV_SQRT, 6)
    diag = np.diagonal(a).real
    assert np.all(diag >= 1.0)
    assert classify(a).is_ep and traits.ep is Expectation.YES


def test_fourier_derivative_structure():
    a, _ = make(Family.FOURIER_DERIVATIVE, 8)
    assert op_norm(a - a.conj().T) <= 1e-12
    assert numerical_rank(a) == 7
    assert classify(a).is_ep
    ones = np.ones((8, 1)) / np.sqrt(8)
    p_mean_zero = np.eye(8) - ones @ ones.T
    assert op_norm(projector(range_basis(a)) - p_mean_zero) <= 1e-9
    # the constant vector is in the null space
    assert np.linalg.norm(a @ np.ones(8)) <= 1e-12


def test_fourier_derivative_small_sections():
    for n in (2, 3):
        a, _ = make(Family.FOURIER_DERIVATIVE, n)
        assert numerical_rank(a) == n - 1
    with pytest.raises(BadSpec):
        make(Family.FOURIER_DERIVATIVE, 1)


def _spectral_fourier_derivative(n):
    """The section by its spectral construction (U diag(lambda)) U* in the
    DFT basis, a BLAS product: the oracle of the closed form."""
    ks = np.arange(n) - (n - 1) // 2
    u = np.exp(2j * np.pi * np.outer(np.arange(n), ks) / n) / np.sqrt(n)
    a = (u * (-2.0 * np.pi * ks)) @ u.conj().T
    return (a + a.conj().T) / 2.0


def test_fourier_derivative_matches_the_spectral_construction():
    for n in [*range(2, 65), *range(96, 193)]:
        a, _ = make(Family.FOURIER_DERIVATIVE, n)
        oracle = _spectral_fourier_derivative(n)
        assert np.linalg.norm(a - oracle) <= 1e-12 * np.linalg.norm(oracle), n


_FOURIER_SECTIONS_DIGEST = """
import hashlib
from eplab.zoo import Family, OperatorSpec, generate
digest = hashlib.sha256()
for n in range(130, 191):
    digest.update(generate(OperatorSpec(Family.FOURIER_DERIVATIVE, n))[0].tobytes())
print(digest.hexdigest())
"""


def test_fourier_derivative_bytes_do_not_depend_on_blas_threads():
    # The sizes where the spectral construction's threaded product made the
    # bytes differ between one and two OpenBLAS threads.
    digests = set()
    for threads in ("1", "2"):
        env = child_env(OPENBLAS_NUM_THREADS=threads)
        digests.add(subprocess.run([sys.executable, "-c", _FOURIER_SECTIONS_DIGEST], env=env,
                                   check=True, capture_output=True, text=True,
                                   timeout=120).stdout)
    assert len(digests) == 1


def test_random_families_need_rank():
    with pytest.raises(BadSpec):
        make(Family.RANDOM_EP, 4)
    with pytest.raises(BadSpec):
        make(Family.RANDOM_CLOSED_RANGE, 4)
    with pytest.raises(BadSpec):
        OperatorSpec(family=Family.RANDOM_EP, n=4, rank=5)


def test_random_ep_classifies_ep():
    for seed in range(5):
        a, traits = make(Family.RANDOM_EP, 7, rank=3, seed=seed)
        assert classify(a).is_ep
        assert traits.ep is Expectation.YES


def test_random_closed_range_rank():
    for rank in (0, 2, 5):
        a, traits = make(Family.RANDOM_CLOSED_RANGE, 5, rank=rank, seed=3)
        assert numerical_rank(a) == rank
        expected = Expectation.YES if rank in (0, 5) else Expectation.NO
        assert traits.ep is expected


@pytest.mark.parametrize("n", [1, 2, 7])
def test_rank_zero_draws_are_zeros_and_draw_nothing(n):
    rng = np.random.default_rng(19)
    state = rng.bit_generator.state
    for build in (random_conditioned, random_ep):
        a = build(n, 0, rng)
        assert a.dtype == np.complex128 and a.shape == (n, n)
        assert not np.any(a) and not np.any(np.signbit(a.real) | np.signbit(a.imag))
        assert rng.bit_generator.state == state
    assert haar_frame(n, 0, rng).shape == (n, 0)
    assert rng.bit_generator.state == state


def test_custom_family_spec_is_rejected():
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"family": "Custom", "n": 3})


def test_generate_deterministic_in_seed():
    a1, _ = make(Family.RANDOM_EP, 6, rank=2, seed=11)
    a2, _ = make(Family.RANDOM_EP, 6, rank=2, seed=11)
    a3, _ = make(Family.RANDOM_EP, 6, rank=2, seed=12)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_gamma_sweep_alternating():
    points = gamma_sweep(Family.DIAG_ALTERNATING, [3, 5, 7])
    assert [(p.n, p.gamma, p.rank) for p in points] == [
        (3, 1 / 3, 3), (5, 1 / 5, 5), (7, 1 / 7, 7)]


def test_gamma_sweep_harmonic_constant():
    points = gamma_sweep(Family.DIAG_HARMONIC, [2, 4, 8])
    assert [p.gamma for p in points] == [1.0, 1.0, 1.0]


def test_gamma_sweep_mult_inv_sqrt_bounded():
    points = gamma_sweep(Family.MULT_INV_SQRT, [4, 16, 64])
    assert all(p.gamma >= 1.0 for p in points)


def test_gamma_sweep_weighted_shift():
    points = gamma_sweep(Family.WEIGHTED_SHIFT, [3, 6])
    assert all(p.gamma == 1.0 and p.rank == p.n - 1 for p in points)


def test_gamma_sweep_rejects_random_families():
    with pytest.raises(BadSpec):
        gamma_sweep(Family.RANDOM_EP, [3])


# The (is_ep, is_hypo_ep) of every section of a family that diverges from
# its model, as the family's note documents it.
_SECTION_VERDICTS = {Family.DIAG_ALTERNATING: (True, True),
                     Family.WEIGHTED_SHIFT: (False, False)}


def test_expected_traits_match_classification_across_sizes():
    deterministic = {
        Family.DIAG_HARMONIC: range(2, 65, 7),
        Family.DIAG_ALTERNATING: range(2, 65, 7),
        Family.MULT_INV_SQRT: range(2, 65, 7),
        Family.FOURIER_DERIVATIVE: range(2, 65, 7),
        Family.WEIGHTED_SHIFT: range(2, 65, 7),
    }
    for family, sizes in deterministic.items():
        for n in sizes:
            a, traits = make(family, n)
            rep = classify(a)
            if traits.ep is not Expectation.DIVERGES:
                assert rep.is_ep == (traits.ep is Expectation.YES), (family, n)
            else:
                assert rep.is_ep == _SECTION_VERDICTS[family][0], (family, n)
            if traits.hypo_ep is Expectation.DIVERGES:
                # the documented section-level outcome must hold instead
                assert rep.is_hypo_ep == _SECTION_VERDICTS[family][1], (family, n)


def test_expected_traits_match_at_large_sizes():
    for family in (Family.DIAG_HARMONIC, Family.FOURIER_DERIVATIVE):
        a, _ = make(family, 256)
        assert classify(a).is_ep


def test_spec_json_round_trip():
    spec = OperatorSpec(family=Family.RANDOM_EP, n=6, rank=2, seed=5)
    data = spec.to_json_dict()
    assert data["family"] == "RandomEP"
    assert OperatorSpec.from_json_dict(data) == spec
    minimal = OperatorSpec.from_json_dict({"family": "DiagHarmonic", "n": 4})
    assert minimal.rank is None and minimal.seed is None


def test_spec_json_validation():
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"family": "NoSuchFamily", "n": 3})
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"n": 3})
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"family": "DiagHarmonic"})
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"family": "DiagHarmonic", "n": 0})
    # Specs that generate could not build: a random family with no rank and
    # a FourierDerivative section below n = 2.
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"family": "RandomEP", "n": 4})
    with pytest.raises(BadSpec):
        OperatorSpec.from_json_dict({"family": "FourierDerivative", "n": 1})


def test_spec_size_cap():
    assert OperatorSpec(family=Family.DIAG_HARMONIC, n=MAX_DIMENSION).n == MAX_DIMENSION
    with pytest.raises(BadSpec):
        OperatorSpec(family=Family.DIAG_HARMONIC, n=MAX_DIMENSION + 1)


def test_traits_divergence_requires_note():
    with pytest.raises(ValueError):
        ExpectedTraits(Expectation.DIVERGES, Expectation.NO, "")


def test_corpus_deterministic_and_labelled():
    label1, a1 = corpus_matrix(17, seed=0)
    label2, a2 = corpus_matrix(17, seed=0)
    assert label1 == label2
    np.testing.assert_array_equal(a1, a2)
    _, a3 = corpus_matrix(17, seed=1)
    assert not np.array_equal(a1, a3)
    kinds = {corpus_matrix(i).label.split("-")[0] for i in range(10)}
    assert kinds == {"random", "hermitian", "hermitian_rank_def", "normal",
                     "nilpotent", "ep_construction", "rank_deficient", "zero",
                     "rank_one", "scaled"}


def test_corpus_draws_are_pinned():
    # One digest over the bytes of 12 seeds x 1000 corpus matrices: a change
    # to how any corpus kind is drawn, or in what order, changes it.  It also
    # depends on numpy's generators and on the QR of the LAPACK build.
    digest = hashlib.sha256()
    for seed in range(12):
        for i in range(1000):
            digest.update(corpus_matrix(i, seed).matrix.tobytes())
    assert digest.hexdigest() == (
        "d0945fbe616e2f26e01997fd77531c352d13cf6fbc8b92e2eb3872ff6f2c74ae")


def test_corpus_sizes_bounded():
    for i in range(0, 100, 9):
        _, a = corpus_matrix(i)
        assert a.shape[0] == a.shape[1] <= 32


def test_corpus_nilpotent_members_are_nilpotent():
    for i in range(4, 100, 10):  # the nilpotent slots
        _, a = corpus_matrix(i)
        n = a.shape[0]
        power = np.linalg.matrix_power(a, n)
        assert op_norm(power) <= 1e-8 * max(1.0, op_norm(a)) ** n
