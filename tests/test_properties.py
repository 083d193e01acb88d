"""Hypothesis property tests over structured random matrices.

Conditioning is controlled (singular values in [0.1, 10]) because the
residual guarantees under test are stated for well-posed rank decisions;
adversarial near-threshold spectra are exercised separately with explicit
constructions in the unit tests.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eplab import (adjoint, classify, modulus, null_basis, numerical_rank,
                   op_norm, penrose_verify, pinv, projector, range_basis,
                   subspace_equal, subspace_included)

settings.register_profile("eplab", max_examples=40, deadline=None)
settings.load_profile("eplab")


@st.composite
def structured_matrix(draw, square=False):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m = draw(st.integers(min_value=1, max_value=8))
    n = m if square else draw(st.integers(min_value=1, max_value=8))
    rank = draw(st.integers(min_value=0, max_value=min(m, n)))
    rng = np.random.default_rng(seed)
    if rank == 0:
        return np.zeros((m, n), dtype=complex)
    u, _ = np.linalg.qr(rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    sigma = np.exp(rng.uniform(np.log(0.1), np.log(10.0), rank))
    return (u * sigma) @ v.conj().T


@st.composite
def raw_matrix(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    box = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    re = draw(st.lists(box, min_size=m * n, max_size=m * n))
    im = draw(st.lists(box, min_size=m * n, max_size=m * n))
    return (np.array(re) + 1j * np.array(im)).reshape(m, n)


@given(raw_matrix())
def test_adjoint_is_exact_involution(a):
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)


@given(raw_matrix(), st.floats(min_value=0.01, max_value=100.0))
def test_op_norm_absolutely_homogeneous(a, c):
    assert abs(op_norm(c * a) - c * op_norm(a)) <= 1e-9 * max(1.0, op_norm(a)) * c


@given(structured_matrix())
def test_penrose_conditions_hold_at_default_tolerance(a):
    assert penrose_verify(a, pinv(a)).passed


@given(structured_matrix())
def test_rank_agrees_with_adjoint(a):
    assert numerical_rank(a) == numerical_rank(adjoint(a))


@given(structured_matrix())
def test_range_null_duality(a):
    total = projector(range_basis(a)) + projector(null_basis(adjoint(a)))
    assert np.linalg.norm(total - np.eye(a.shape[0]), 2) <= 1e-9


@given(structured_matrix())
def test_projectors_hermitian_idempotent(a):
    p = projector(range_basis(a))
    assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10


@given(structured_matrix(square=True))
def test_subspace_equal_reflexive_and_symmetric(a):
    p = range_basis(a)
    q = null_basis(a)
    assert subspace_equal(p, p).passed
    assert subspace_equal(q, q).passed
    forward = subspace_equal(p, range_basis(adjoint(a)))
    backward = subspace_equal(range_basis(adjoint(a)), p)
    assert forward.passed == backward.passed
    assert abs(forward.residual - backward.residual) <= 1e-12


@given(structured_matrix(square=True))
def test_mutual_inclusion_matches_equality(a):
    p = range_basis(a)
    q = range_basis(adjoint(a))
    both = subspace_included(p, q).passed and subspace_included(q, p).passed
    assert both == subspace_equal(p, q).passed


@given(structured_matrix(), st.sampled_from([2.0, -3.0, 0.5j, 1.0 + 1.0j]))
def test_pinv_scaling(a, alpha):
    rhs = pinv(a) / alpha
    assert op_norm(pinv(alpha * a) - rhs) <= 1e-10 * max(1.0, op_norm(rhs))


@given(structured_matrix())
def test_modulus_is_psd_square_root(a):
    root = modulus(a)
    scale = max(1.0, op_norm(a) ** 2)
    assert op_norm(root @ root - adjoint(a) @ a) <= 1e-9 * scale
    assert float(np.linalg.eigvalsh((root + root.conj().T) / 2)[0]) >= -1e-10 * scale
    assert subspace_equal(null_basis(root), null_basis(a)).passed


@given(structured_matrix(square=True))
def test_ep_iff_hypo_ep_in_finite_dimension(a):
    report = classify(a)
    assert report.is_ep == report.is_hypo_ep
    flags = {report.condition(f"ep{i}").passed for i in range(1, 8)}
    assert len(flags) == 1
