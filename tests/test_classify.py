import numpy as np
import pytest

from eplab import (SubspaceBasis, TolerancePolicy, adjoint, classify, construct_factor_c,
                   ep_closure_suite, gamma, majorization_witness, modulus,
                   null_basis, numerical_rank, op_norm, pinv, range_basis,
                   subspace_equal, subspace_included, svd)
from eplab.classify import (_EP_IDS, _HYPO_IDS, _ROUTES, ConditionCheck, _classify,
                            _evaluate, _is_ep)
from eplab.core import _Operand
from eplab.errors import NonFinite, NotSquare, SourceNotEP, SourceNotHypoEP
from eplab.zoo import corpus_matrix, haar_unitary, random_ep

from conftest import random_complex

ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


# -- gamma -------------------------------------------------------------------

def test_gamma_examples():
    a = np.diag([3.0, 0.0, 1.0])
    assert gamma(a) == 1.0
    assert gamma(np.eye(5)) == 1.0
    assert gamma(np.zeros((3, 3))) == 0.0


def test_report_gamma_agrees_with_gamma_to_rounding():
    # the report takes sigma_r from classify's full SVD, gamma() from the
    # values-only driver; the two agree to rounding, not bit for bit
    rng = np.random.default_rng(3)
    for n in (1, 4, 9, 16):
        for a in (np.diag(rng.uniform(1e-3, 1e3, n)), random_complex(rng, n, n)):
            assert abs(classify(a).gamma - gamma(a)) <= 1e-14 * op_norm(a)


def test_gamma_is_carrier_infimum():
    # brute force: gamma lower-bounds ||A x|| over unit carrier vectors and
    # is attained (here by e3)
    a = np.diag([3.0, 0.0, 1.0]).astype(complex)
    g = gamma(a)
    rng = np.random.default_rng(0)
    carrier = np.diag([1.0, 0.0, 1.0])  # orthogonal complement of N(A) = e2
    for _ in range(500):
        x = carrier @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        norm = np.linalg.norm(x)
        if norm < 1e-12:
            continue
        assert np.linalg.norm(a @ x) / norm >= g - 1e-12
    assert np.linalg.norm(a @ np.array([0, 0, 1.0])) == g


def test_gamma_adjoint_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_complex(rng, 6, 6)
        assert abs(gamma(a) - gamma(adjoint(a))) <= 1e-10 * max(1.0, op_norm(a))


def test_gamma_pinv_duality():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_complex(rng, 5, 5)
        assert abs(gamma(a) * op_norm(pinv(a)) - 1.0) <= 1e-9


# -- modulus -----------------------------------------------------------------

def test_modulus_examples():
    np.testing.assert_allclose(modulus(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0]),
                               atol=1e-14)
    u = haar_unitary(4, np.random.default_rng(3))
    np.testing.assert_allclose(modulus(u), np.eye(4), atol=1e-13)
    np.testing.assert_allclose(modulus(JORDAN), np.diag([0.0, 1.0]), atol=1e-14)


def test_modulus_square_root_property():
    rng = np.random.default_rng(4)
    for m, n in [(5, 5), (6, 4), (3, 7)]:
        a = random_complex(rng, m, n)
        root = modulus(a)
        scale = max(1.0, op_norm(a) ** 2)
        assert op_norm(root @ root - adjoint(a) @ a) <= 1e-9 * scale
        assert op_norm(root - adjoint(root)) <= 1e-12 * scale
        # shared null space and R(|A|) = R(A*)
        assert subspace_equal(null_basis(root), null_basis(a)).ok
        assert subspace_equal(range_basis(root), range_basis(adjoint(a))).residual <= 1e-9


# -- classify ----------------------------------------------------------------

def test_classify_hermitian_diagonal_is_ep():
    rep = classify(np.diag([1.0, 2.0, 0.0]))
    assert rep.is_ep and rep.is_hypo_ep
    assert rep.rank == 2 and rep.gamma == 1.0
    for i in range(1, 8):
        assert rep.condition(f"ep{i}").residual <= 1e-10


def test_classify_nilpotent_is_not_ep():
    rep = classify(JORDAN)
    assert not rep.is_ep and not rep.is_hypo_ep
    # R(A) = span{e1} vs R(A*) = span{e2}: residual is 1
    assert abs(rep.condition("ep1").residual - 1.0) < 1e-12
    assert abs(rep.condition("hypo1").residual - 1.0) < 1e-12


def test_classify_normal_non_hermitian_is_ep():
    assert classify(ROTATION).is_ep


def test_classify_rejects_rectangular():
    with pytest.raises(NotSquare):
        classify(np.ones((2, 3)))


def test_classify_zero_and_scalar():
    rep = classify(np.zeros((2, 2)))
    assert rep.is_ep and rep.rank == 0 and rep.gamma == 0.0
    assert classify(np.array([[2.0]])).is_ep
    assert classify(np.array([[0.0]])).is_ep


def test_classify_conditions_all_evaluated():
    rep = classify(JORDAN)
    ids = [c.condition_id for c in rep.conditions]
    assert ids == [f"ep{i}" for i in range(1, 8)] + ["hypo1", "hypo2",
                                                     "chain2", "chain3", "chain4"]


def test_seven_way_agreement_on_corpus_slice():
    for i in range(200):
        label, a = corpus_matrix(i, seed=0)
        rep = classify(a)
        flags = {rep.condition(f"ep{k}").passed for k in range(1, 8)}
        assert len(flags) == 1, f"{label}: disagreement {flags}"
        assert rep.is_ep == rep.is_hypo_ep, label


def test_hypo_chain_implications_on_corpus_slice():
    for i in range(200):
        label, a = corpus_matrix(i, seed=0)
        rep = classify(a)
        seq = [rep.condition(cid).passed for cid in ("hypo2", "chain2", "chain3", "chain4")]
        for first, second in zip(seq, seq[1:]):
            assert not (first and not second), f"{label}: chain broken {seq}"


def test_chain4_is_hypo2_residual_on_corpus_slice():
    for i in range(200):
        label, a = corpus_matrix(i, seed=0)
        rep = classify(a)
        assert rep.condition("chain4").residual == rep.condition("hypo2").residual, label


def test_chain4_fails_with_hypo2_on_a_small_tilt():
    # R(A*) is R(A) tilted by a principal angle of 1.27e-7 at n=128, rank 100.
    # A sample of 100 unit vectors saw only 7.3e-9 of it and passed chain4.
    rng = np.random.default_rng(0)
    u = haar_unitary(128, rng)[:, :100]
    w = rng.standard_normal((128, 100)) + 1j * rng.standard_normal((128, 100))
    v = np.linalg.qr(u + 6e-9 * w)[0]
    rep = classify(u @ v.conj().T)
    hypo2, chain4 = rep.condition("hypo2"), rep.condition("chain4")
    assert 1e-7 < hypo2.residual < 2e-7 and not hypo2.passed
    assert chain4 == ConditionCheck("chain4", hypo2.residual, False)


@pytest.mark.parametrize("r_p, r_q", [(3, 5), (5, 3), (1, 6)])
def test_norm_inequality_supremum_is_the_inclusion_residual(r_p, r_q):
    # sup over unit x of ||P x|| - ||Q x|| is ||(I - Q) P||, for orthogonal
    # projectors P, Q of any ranks: the top left singular vector of (I - Q) P
    # attains it, and no random unit vector exceeds it.
    rng = np.random.default_rng(17 + r_p)
    n = 8
    p = SubspaceBasis(n, haar_unitary(n, rng)[:, :r_p])
    q = SubspaceBasis(n, haar_unitary(n, rng)[:, :r_q])
    residual = subspace_included(p, q).residual

    def excess(x):
        return (np.linalg.norm(p.basis.conj().T @ x, axis=0)
                - np.linalg.norm(q.basis.conj().T @ x, axis=0))

    gap = (np.eye(n) - q.basis @ q.basis.conj().T) @ p.basis @ p.basis.conj().T
    top = np.linalg.svd(gap)[0][:, :1]
    assert abs(excess(top)[0] - residual) <= 1e-12
    x = random_complex(rng, n, 20000)
    x /= np.linalg.norm(x, axis=0)
    assert np.max(excess(x)) <= residual + 1e-12


def test_ep_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(5)
    for a in (np.diag([1.0, 2.0, 0.0]).astype(complex), JORDAN.copy()):
        n = a.shape[0]
        u = haar_unitary(n, rng)
        assert classify(u @ a @ u.conj().T).is_ep == classify(a).is_ep


def _tilted(eps):
    # R(A*) is R(A) tilted by a principal angle of about 2.7 eps
    rng = np.random.default_rng(6)
    n, r = 5, 3
    u = haar_unitary(n, rng)[:, :r]
    w = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    v, _ = np.linalg.qr(u + eps * w)
    return u @ v.conj().T


def test_classify_tolerance_sensitivity():
    # a slightly tilted adjoint range flips the verdict with the tolerance
    a = _tilted(1e-5)
    assert not classify(a).is_ep
    assert classify(a, TolerancePolicy(subspace_tol=1e-3)).is_ep


def test_hypo_chain_unbroken_just_inside_the_tolerance():
    # sin theta ~ 8.1e-9: hypo2 passes at 1e-8, so the chain after it must
    # too; chain3 reads the same sine from an eigendecomposition and chain4
    # reports it as its exact supremum.
    rep = classify(_tilted(3e-9))
    hypo2 = rep.condition("hypo2").residual
    assert 5e-9 < hypo2 <= 1e-8
    assert all(rep.condition(cid).passed for cid in ("hypo2", "chain2", "chain3", "chain4"))
    assert abs(rep.condition("chain3").residual - hypo2) <= 1e-6 * hypo2


def test_invertible_ill_conditioned_matrix_passes_all_but_ep2():
    # 0.3 I + S has kappa ~ 3e8 but sigma_min far above the rank cut.  The
    # conditions read from bases do not see the eps * kappa rounding of
    # A A+; ep2 is that product and is not pinned here.
    n = 16
    a = 0.3 * np.eye(n) + np.diag(np.ones(n - 1), -1)
    rep = classify(a)
    assert rep.rank == n
    assert all(check.passed for check in rep.conditions if check.condition_id != "ep2")
    assert rep.is_hypo_ep
    assert rep.condition("hypo2").residual == rep.condition("chain2").residual


# -- EP-only path ------------------------------------------------------------

def _closure_members(a, tol=TolerancePolicy()):
    """The closure suite's members, in one analysis as the suite makes them."""
    op = _Operand(a, tol)
    return {"adjoint": op.adjoint, "aa_star": op.gram_right, "a_star_a": op.gram_left,
            "modulus": op.derive(modulus(a))}


def test_ep_only_path_matches_classify_on_corpus():
    # fresh operands on each side, so neither reads what the other cached
    for i in range(300):
        label, a = corpus_matrix(i, seed=0)
        assert _is_ep(_Operand(a)) == _classify(_Operand(a)).is_ep, label


def test_ep_only_path_matches_classify_on_closure_members():
    checked = 0
    for i in range(300):
        label, a = corpus_matrix(i, seed=0)
        if not classify(a).is_ep:
            continue
        expected = {name: _classify(member).is_ep
                    for name, member in _closure_members(a).items()}
        assert dict(ep_closure_suite(a)) == expected, label
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("a, tol", [
    (0.3 * np.eye(16) + np.diag(np.ones(15), -1), TolerancePolicy()),
    (_tilted(1e-5), TolerancePolicy()),
    (_tilted(1e-5), TolerancePolicy(subspace_tol=1e-3)),
    (_tilted(3e-9), TolerancePolicy()),
])
def test_ep_only_path_matches_classify_on_hard_cases(a, tol):
    assert _is_ep(_Operand(a, tol)) == _classify(_Operand(a, tol)).is_ep
    for member in _closure_members(a, tol).values():
        assert _is_ep(member) == _classify(_Operand(member.arr, tol)).is_ep



# -- route table -------------------------------------------------------------

def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_copies_are_bitwise_the_residual_they_copy_on_corpus():
    conditional = 0
    for i in range(300):
        label, a = corpus_matrix(i, seed=0)
        op = _Operand(a)
        report = _classify(op)
        for cid, route in _ROUTES.items():
            target = route if isinstance(route, str) else route(op)
            if isinstance(target, str):
                conditional += not isinstance(route, str)
                assert (_bits(report.condition(cid).residual)
                        == _bits(report.condition(target).residual)), (label, cid, target)
    assert conditional > 200


@pytest.mark.parametrize("ids", [_HYPO_IDS, _EP_IDS], ids=["hypo", "ep"])
def test_subsets_match_classify_bitwise_on_corpus(ids):
    # fresh operands on each side; the hypo subset reaches hypo2's copy of
    # ep6 without ep6 being requested
    for i in range(300):
        label, a = corpus_matrix(i, seed=0)
        subset = _evaluate(_Operand(a), ids)
        full = _classify(_Operand(a))
        assert [c.condition_id for c in subset] == list(ids)
        for check in subset:
            expected = full.condition(check.condition_id)
            assert check.passed == expected.passed, (label, check)
            assert _bits(check.residual) == _bits(expected.residual), (label, check)


def test_hermitian_input_with_negative_zero_imaginary_parts():
    # A* of an exactly Hermitian A equals A by value but has -0.0 where A
    # has +0.0; A's SVD serves both, so R(A*) and N(A*) are A's own bases.
    rng = np.random.default_rng(11)
    b = random_complex(rng, 6, 4)
    a = b @ b.conj().T
    a = (a + a.conj().T) / 2.0
    np.fill_diagonal(a.imag, -0.0)
    assert np.array_equal(a, a.conj().T) and np.signbit(np.diag(a).imag).all()
    rep = classify(a)
    assert rep.rank == 4 and rep.is_ep
    ep1, ep4, hypo1 = (rep.condition(cid).residual for cid in ("ep1", "ep4", "hypo1"))
    assert ep4 == hypo1
    assert max(ep1, ep4, hypo1) <= TolerancePolicy().subspace_tol


# -- closure suite -----------------------------------------------------------

def test_closure_suite_diagonal():
    results = ep_closure_suite(np.diag([1.0, 2.0, 0.0]))
    assert [name for name, _ in results] == ["adjoint", "aa_star", "a_star_a", "modulus"]
    assert all(flag for _, flag in results)


def test_closure_suite_constructed_normal():
    u = haar_unitary(2, np.random.default_rng(7))
    a = u @ np.diag([1.0 + 1.0j, 0.0]) @ u.conj().T
    assert classify(a).is_ep
    assert all(flag for _, flag in ep_closure_suite(a))


def test_closure_suite_requires_ep():
    with pytest.raises(SourceNotEP):
        ep_closure_suite(JORDAN)


# -- factor C ----------------------------------------------------------------

def test_factor_c_identity():
    fc = construct_factor_c(np.eye(3))
    np.testing.assert_allclose(fc.c, np.eye(3), atol=1e-14)
    assert numerical_rank(svd(fc.c)) == 3


def test_factor_c_hermitian_rank_deficient():
    a = np.diag([2.0, 0.0])
    fc = construct_factor_c(a)
    np.testing.assert_allclose(fc.c, np.eye(2), atol=1e-14)
    assert fc.residual_factorization <= 1e-12


def test_factor_c_rotation_invertible_case():
    fc = construct_factor_c(ROTATION)
    np.testing.assert_allclose(fc.c, np.linalg.inv(ROTATION) @ adjoint(ROTATION),
                               atol=1e-12)
    assert fc.residual_factorization <= 1e-12


def test_factor_c_on_random_ep():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_ep(6, 3, rng)
        fc = construct_factor_c(a)
        scale = max(1.0, op_norm(a))
        assert fc.residual_factorization <= 1e-9 * scale
        assert numerical_rank(svd(fc.c)) == 6
        assert op_norm(adjoint(a) - a @ fc.c) <= 1e-9 * scale


def test_factor_c_requires_ep():
    with pytest.raises(SourceNotEP):
        construct_factor_c(JORDAN)


# -- majorization witness ----------------------------------------------------

def test_majorization_witness_null_vector():
    assert majorization_witness(np.diag([2.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_majorization_witness_identity():
    k = majorization_witness(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert abs(k - 1.0) <= 1e-12


def test_majorization_witness_diagonal():
    # solve 2 z1 = 2 on the carrier: z = e1, k = 1
    k = majorization_witness(np.diag([2.0, 0.0]), np.array([1.0, 0.0]))
    assert abs(k - 1.0) <= 1e-12


def test_majorization_witness_bound_holds():
    rng = np.random.default_rng(9)
    a = random_ep(5, 3, rng)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    k = majorization_witness(a, x)
    for _ in range(200):
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert abs(np.vdot(y, a @ x)) <= (k + 1e-8) * np.linalg.norm(a @ y) + 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_majorization_witness_rejects_non_finite_vector(bad):
    with pytest.raises(NonFinite):
        majorization_witness(np.diag([1.0, 2.0, 3.0]), [bad, 0.0, 0.0])


def test_majorization_witness_requires_hypo_ep():
    with pytest.raises(SourceNotHypoEP):
        majorization_witness(JORDAN, np.array([1.0, 0.0]))
