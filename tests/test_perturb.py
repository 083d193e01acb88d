import numpy as np
import pytest

from eplab import (TolerancePolicy, check_perturbation, classify, generate_admissible,
                   op_norm, pinv)
from eplab.errors import DimensionMismatch, NotSquare, SourceNotEP
from eplab.zoo import random_ep


def test_supported_diagonal_perturbation():
    a = np.diag([2.0, 2.0, 0.0])
    b = np.diag([0.5, 0.0, 0.0])
    rep = check_perturbation(a, b)
    assert abs(rep.hyp_norm_product - 0.25) < 1e-12
    assert rep.conditions[:2] == (("b_adag_a", 0.0, True), ("a_adag_b", 0.0, True))
    assert rep.hypotheses_pass
    assert rep.concl_ep and rep.concl_null_equal and rep.concl_range_equal
    # gamma(A+B) = 2 >= 2 - 0.5
    assert rep.concl_gamma_bound
    assert abs(rep.gamma_perturbed - 2.0) < 1e-12


def test_perturbation_hitting_null_space_fails_hypotheses():
    a = np.diag([2.0, 0.0])
    b = np.diag([0.0, 1.0])
    rep = check_perturbation(a, b)
    assert rep.conditions[1].condition_id == "a_adag_b"
    assert abs(rep.conditions[1].residual - 1.0) < 1e-12  # A A+ B = 0, residual ||B||
    assert not rep.hypotheses_pass
    # conclusions are still evaluated: A+B is invertible diagonal, so EP
    assert rep.concl_ep
    assert not rep.concl_null_equal


def test_zero_perturbation_trivial():
    rep = check_perturbation(np.eye(3), np.zeros((3, 3)))
    assert rep.hypotheses_pass and rep.hyp_norm_product == 0.0
    assert rep.concl_ep and rep.concl_null_equal and rep.concl_range_equal
    assert rep.concl_gamma_bound


def test_perturbation_requires_ep_base():
    with pytest.raises(SourceNotEP):
        check_perturbation(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_perturbation_shape_contract():
    with pytest.raises(DimensionMismatch):
        check_perturbation(np.eye(2), np.zeros((3, 3)))


def test_generate_admissible_hits_requested_scale():
    rng = np.random.default_rng(0)
    a = random_ep(6, 3, rng)
    b = generate_admissible(a, 0.5, seed=42)
    assert abs(op_norm(b) * op_norm(pinv(a)) - 0.5) <= 1e-12
    rep = check_perturbation(a, b)
    assert rep.hypotheses_pass
    assert rep.concl_ep and rep.concl_null_equal and rep.concl_range_equal
    assert rep.concl_gamma_bound


def test_generate_admissible_compression_support():
    b = generate_admissible(np.diag([1.0, 0.0]), 0.3, seed=7)
    assert b[0, 1] == 0 and b[1, 0] == 0 and b[1, 1] == 0
    assert b[0, 0] != 0


def test_generate_admissible_zero_matrix_degenerate():
    b = generate_admissible(np.zeros((3, 3)), 0.5, seed=1)
    np.testing.assert_array_equal(b, np.zeros((3, 3)))


def test_generate_admissible_validates_scale():
    with pytest.raises(ValueError):
        generate_admissible(np.eye(2), 1.5, seed=0)
    with pytest.raises(SourceNotEP):
        generate_admissible(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5, seed=0)
    with pytest.raises(NotSquare):
        generate_admissible(np.ones((2, 3)), 0.5, seed=0)


def test_theorem_reproduction_slice():
    rng = np.random.default_rng(1)
    for i in range(30):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a = random_ep(n, r, rng)
        scale = (0.1, 0.5, 0.9)[i % 3]
        b = generate_admissible(a, scale, seed=i)
        rep = check_perturbation(a, b)
        assert rep.hypotheses_pass
        assert rep.concl_ep and rep.concl_null_equal and rep.concl_range_equal
        assert rep.concl_gamma_bound
        # rank stability under the hypotheses
        assert classify(a + b).rank == classify(a).rank


def test_sharpness_probe_recorded_not_asserted():
    # push ||B|| ||A+|| past 1 with a perturbation that revives a null vector;
    # the conclusions may fail, and the report must simply record that
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.1])
    rep = check_perturbation(a, b)
    assert rep.hyp_norm_product > 1.0
    assert not rep.hypotheses_pass
    assert not rep.concl_null_equal  # N(A+B) = {0} != span{e2}
    assert isinstance(rep.concl_ep, bool)


def test_failed_conclusion_under_passing_hypotheses_warns():
    # At subspace_tol 0.1 the 0.05 of B off R(A) passes both compression
    # hypotheses, but A + B is invertible, so N(A + B) is not N(A).
    a, b = np.diag([1.0, 1.0, 0.0]), np.diag([0.1, 0.0, 0.05])
    with pytest.warns(UserWarning, match="hypotheses hold but a conclusion failed"):
        report = check_perturbation(a, b, TolerancePolicy(subspace_tol=0.1))
    assert report.hypotheses_pass and not report.concl_null_equal
