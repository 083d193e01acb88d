import numpy as np
import pytest

from eplab import (TolerancePolicy, adjoint, dagger_identities, null_basis,
                   op_norm, penrose_verify, pinv, projector, range_basis, svd)
from eplab.errors import DimensionMismatch
from eplab.zoo import haar_unitary

from conftest import random_complex


def brute_penrose_conditions(a, x):
    """The four algebraic defining conditions, computed directly."""
    return (
        np.linalg.norm(a @ x @ a - a, 2),
        np.linalg.norm(x @ a @ x - x, 2),
        np.linalg.norm((a @ x) - (a @ x).conj().T, 2),
        np.linalg.norm((x @ a) - (x @ a).conj().T, 2),
    )


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)


def test_pinv_diagonal():
    got = pinv(np.diag([1.0, 2.0, 0.0]))
    np.testing.assert_allclose(got, np.diag([1.0, 0.5, 0.0]), atol=1e-14)
    rep = penrose_verify(np.diag([1.0, 2.0, 0.0]), got)
    assert all(check.residual < 1e-12 for check in rep.conditions)


def test_pinv_jordan_block_brute_force():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    got = pinv(a)
    np.testing.assert_allclose(got, np.array([[0, 0], [1, 0]]), atol=1e-14)
    assert max(brute_penrose_conditions(a, got)) < 1e-14


def test_pinv_rectangular_shapes():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 3, 5)
    x = pinv(a)
    assert x.shape == (5, 3)
    assert max(brute_penrose_conditions(a, x)) < 1e-12


def _assert_positive_zero(x, shape):
    # assert_array_equal takes -0.0 for +0.0; signbit tells them apart
    assert x.dtype == np.complex128 and x.shape == shape and not np.any(x)
    assert not np.any(np.signbit(x.real) | np.signbit(x.imag))


def test_pinv_zero_matrix():
    got = pinv(np.zeros((2, 3)))
    np.testing.assert_array_equal(got, np.zeros((3, 2)))
    _assert_positive_zero(got, (3, 2))


def test_pinv_below_rank_abs_is_positive_zero():
    a = -1e-3 * (1 + 1j) * np.ones((4, 2))
    _assert_positive_zero(pinv(a, TolerancePolicy(rank_abs=1.0)), (2, 4))


def test_penrose_verify_random():
    rng = np.random.default_rng(4)
    a = random_complex(rng, 6, 4)
    rep = penrose_verify(a, pinv(a))
    assert rep.passed
    assert all(check.residual <= 1e-10 for check in rep.conditions)


def test_penrose_verify_rejects_wrong_candidate():
    rep = penrose_verify(np.eye(3), 2 * np.eye(3))
    assert not rep.passed
    residuals = {check.condition_id: check.residual for check in rep.conditions}
    assert abs(residuals["a_dag_a_a_dag"] - 2.0) < 1e-12  # ||4I - 2I||


def test_penrose_verify_zero_pair():
    rep = penrose_verify(np.zeros((2, 2)), np.zeros((2, 2)))
    assert rep.passed
    assert all(check.residual == 0.0 for check in rep.conditions)


def test_penrose_condition_names_stable():
    names = [check.condition_id for check in penrose_verify(np.eye(2), np.eye(2)).conditions]
    assert names == ["a_dag_a_a_dag", "a_a_dag_a", "sym_a_dag_a", "sym_a_a_dag",
                     "proj_range", "proj_carrier"]


def test_penrose_verify_shape_contract():
    with pytest.raises(DimensionMismatch):
        penrose_verify(np.ones((2, 3)), np.ones((2, 3)))


def test_pinv_null_space_is_range_perp():
    rng = np.random.default_rng(21)
    a = random_complex(rng, 5, 2) @ random_complex(rng, 2, 3)  # rank 2
    total = projector(null_basis(pinv(a))) + projector(range_basis(a))
    assert np.linalg.norm(total - np.eye(5), 2) <= 1e-10


def test_pinv_uniqueness():
    # an independently computed inverse satisfying the conditions must agree
    rng = np.random.default_rng(8)
    a = random_complex(rng, 4, 3)
    via_svd = pinv(a)
    via_normal_eq = np.linalg.solve(a.conj().T @ a, a.conj().T)
    assert max(brute_penrose_conditions(a, via_normal_eq)) < 1e-11
    assert op_norm(via_svd - via_normal_eq) <= 1e-9


def test_pinv_gamma_link():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_complex(rng, 5, 5)
        sigma = np.linalg.svd(a, compute_uv=False)
        assert abs(op_norm(pinv(a)) * sigma[-1] - 1.0) <= 1e-9


def test_pinv_scaling():
    rng = np.random.default_rng(10)
    a = random_complex(rng, 4, 4)
    for alpha in (3.0, -0.25, 2.0 + 1.0j):
        lhs = pinv(alpha * a)
        rhs = pinv(a) / alpha
        assert op_norm(lhs - rhs) <= 1e-10 * op_norm(rhs)


def test_dagger_identities_diagonal_involution():
    a = np.diag([2.0, 0.0])
    np.testing.assert_allclose(pinv(pinv(a)), a, atol=1e-14)
    residuals = {check.condition_id: check.residual for check in dagger_identities(a)}
    assert residuals["double_pinv"] < 1e-14


def test_dagger_identities_rank_one():
    # both sides of (A*A)+ = A+ A*+ computed via their own decompositions
    rng = np.random.default_rng(12)
    u = random_complex(rng, 3, 1)
    v = random_complex(rng, 3, 1)
    a = u @ v.conj().T
    lhs = pinv(adjoint(a) @ a)
    rhs = pinv(a) @ pinv(adjoint(a))
    assert op_norm(lhs - rhs) <= 1e-9
    residuals = {check.condition_id: check.residual for check in dagger_identities(a)}
    assert residuals["gram_left_pinv"] <= 1e-9
    assert residuals["gram_right_pinv"] <= 1e-9


def test_dagger_identities_unitary():
    u = haar_unitary(4, np.random.default_rng(14))
    np.testing.assert_allclose(pinv(u), u.conj().T, atol=1e-12)
    assert all(check.residual <= 1e-12 for check in dagger_identities(u))


def test_dagger_identities_names_stable():
    names = [check.condition_id for check in dagger_identities(np.eye(2))]
    assert names == ["double_pinv", "adjoint_pinv_swap", "gram_left_pinv",
                     "gram_right_pinv", "null_space_match", "gram_left_psd",
                     "gram_right_psd"]


@pytest.mark.parametrize("tol, all_pass", [(TolerancePolicy(), True),
                                           (TolerancePolicy(subspace_tol=1e-15), False)])
def test_dagger_identities_judged_at_the_residual_bound(corpus1000, tol, all_pass):
    # Each dagger identity and each Penrose condition passes exactly when its
    # residual is within subspace_tol times the norm of its exact term: ||A||,
    # ||A+||, their squares, or 1 for a sine or a difference of projectors.
    # At 1e-15 some of each fail.
    verdicts = {"dagger": [], "penrose": []}
    bound = tol.residual_bound
    for _, a in corpus1000[:100]:
        a_dag = pinv(a, tol)
        norm, norm_dag = svd(a).sigma[0], svd(a_dag).sigma[0]
        bounds = {
            "dagger": [bound(norm), bound(norm_dag), bound(norm_dag) * norm_dag,
                       bound(norm_dag) * norm_dag, bound(), bound(norm) * norm,
                       bound(norm) * norm],
            "penrose": [bound(norm_dag), bound(norm), bound(), bound(), bound(), bound()],
        }
        penrose = penrose_verify(a, a_dag, tol)
        rows = {"dagger": dagger_identities(a, tol), "penrose": penrose.conditions}
        for source, checks in rows.items():
            assert len(checks) == len(bounds[source])
            for check, row_bound in zip(checks, bounds[source]):
                assert check.passed == (check.residual <= row_bound), (source, check)
                verdicts[source].append(check.passed)
        assert penrose.passed == all(check.passed for check in penrose.conditions)
    for source, passed in verdicts.items():
        assert any(passed), source
        assert all(passed) == all_pass, source


def test_penrose_of_an_ill_conditioned_pseudoinverse_passes():
    # A+ A A+ - A+ is 1.19e-7, 1.2e-16 of ||A+|| = 1e9: judged on ||A+||, not
    # on ||A|| = 1.
    a = np.diag([1.0, 1e-9])
    report = penrose_verify(a, pinv(a))
    assert report.conditions[0].residual > 1e-8
    assert report.passed


def test_penrose_refuses_a_candidate_whose_products_are_not_projectors():
    # X = A+ + 1e-10 e1 e3^T leaves A X 1e-4 off Hermitian: the projector
    # rows are differences of projectors, judged at subspace_tol, not at
    # subspace_tol * ||A|| = 1e-2.
    a = 1e6 * np.diag([1.0, 1.0, 0.0])
    x = pinv(a)
    x[0, 2] += 1e-10
    report = penrose_verify(a, x)
    failed = {check.condition_id: check.residual for check in report.conditions
              if not check.passed}
    assert failed.keys() == {"sym_a_a_dag", "proj_range"} and not report.passed
    assert all(abs(residual - 1e-4) <= 1e-12 for residual in failed.values())


def test_rank_threshold_shared_with_policy():
    # the tiny singular value is kept or cut consistently with the policy
    a = np.diag([1.0, 1e-6])
    loose = TolerancePolicy(rank_abs=1e-8)
    tight = TolerancePolicy(rank_abs=1e-4)
    assert abs(op_norm(pinv(a, loose)) - 1e6) < 1.0
    assert abs(op_norm(pinv(a, tight)) - 1.0) < 1e-9
