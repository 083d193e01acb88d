import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest

from eplab import (TolerancePolicy, adjoint, classify, construct_factor_c,
                   ep_closure_suite, gamma, majorization_witness, modulus,
                   null_basis, numerical_rank, op_norm, pinv, range_basis,
                   subspace_equal, subspace_included)
from eplab.classify import (_CONDITIONS, _EP_IDS, _HYPO_IDS, _IDS, _ROUTES, ConditionCheck,
                            _classify, _evaluate, _norm, _passes)
from eplab.core import _Operand
from eplab.errors import (DimensionMismatch, NonFinite, NotSquare, SolveFailure, SourceNotEP,
                          SourceNotHypoEP)
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
        assert subspace_equal(null_basis(root), null_basis(a)).passed
        assert subspace_equal(range_basis(root), range_basis(adjoint(a))).residual <= 1e-9


def test_modulus_of_a_finite_root_does_not_overflow():
    # |A| = diag(1.5e308, 1): the sum root + root* overflows, its halves do not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = modulus(np.diag([1.5e308, 1.0]))
    np.testing.assert_array_equal(root, np.diag([1.5e308, 1.0]))


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
    p = range_basis(haar_unitary(n, rng)[:, :r_p])
    q = range_basis(haar_unitary(n, rng)[:, :r_q])
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
        assert _passes(_Operand(a), _EP_IDS) == _classify(_Operand(a)).is_ep, label


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
    assert _passes(_Operand(a, tol), _EP_IDS) == _classify(_Operand(a, tol)).is_ep
    for member in _closure_members(a, tol).values():
        assert _passes(member, _EP_IDS) == _classify(_Operand(member.arr, tol)).is_ep



# -- route table -------------------------------------------------------------

def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_conditions_that_name_one_route_are_bitwise_one_residual_on_corpus():
    # an equality reads its route only when its rank operand has A's rank,
    # and is exactly 1 otherwise
    shared = Counter(route for route, _ in _CONDITIONS.values())
    conditional = 0
    for i in range(300):
        label, a = corpus_matrix(i, seed=0)
        op = _Operand(a)
        report = _classify(op)
        by_route = defaultdict(set)
        for cid, (route, rank_operand) in _CONDITIONS.items():
            if rank_operand is not None and getattr(op, rank_operand).rank != op.rank:
                assert report.condition(cid).residual == 1.0, (label, cid)
                continue
            by_route[route].add(_bits(report.condition(cid).residual))
            conditional += rank_operand is not None and shared[route] > 1
        assert all(len(bits) == 1 for bits in by_route.values()), label
    assert conditional > 200


def test_every_condition_names_one_route_and_every_route_is_named():
    assert {route for route, _ in _CONDITIONS.values()} == set(_ROUTES)
    assert all(callable(route) for route in _ROUTES.values())
    assert {cid: operand for cid, (_, operand) in _CONDITIONS.items() if operand} == {
        "ep1": "adjoint", "ep3": "dagger", "ep4": "adjoint", "ep6": "dagger"}
    assert _IDS == tuple(_CONDITIONS)


def _near_cut(count: int) -> list[np.ndarray]:
    """Seeded 3x3 matrices with singular values 1, 1/2 and one within 5% of
    the rank cut, where the separate SVDs of A, A* and A+ may disagree on
    the rank."""
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    return [(haar_unitary(3, rng) * [1.0, 0.5, 3 * eps * rng.uniform(0.95, 1.05)])
            @ haar_unitary(3, rng).conj().T for _ in range(count)]


@pytest.mark.parametrize("ids", [_IDS, _EP_IDS, _HYPO_IDS], ids=["all", "ep", "hypo"])
def test_evaluate_measures_each_route_it_reads_at_most_once(ids, monkeypatch):
    counts = Counter()

    def counted(route_id, route):
        def wrapper(op):
            counts[route_id] += 1
            return route(op)
        return wrapper

    for route_id, route in list(_ROUTES.items()):
        monkeypatch.setitem(_ROUTES, route_id, counted(route_id, route))
    mismatched = 0
    matrices = [corpus_matrix(i, seed=0)[1] for i in range(40)] + _near_cut(40)
    for a in matrices:
        counts.clear()
        _evaluate(_Operand(a), ids)
        op = _Operand(a)
        read = {route for route, operand in map(_CONDITIONS.get, ids)
                if operand is None or getattr(op, operand).rank == op.rank}
        mismatched += len(read) < len({_CONDITIONS[cid][0] for cid in ids})
        assert set(counts) == read and max(counts.values()) == 1
    # the near-cut matrices include ones where a route only a rank-mismatched
    # equality names is left unmeasured
    assert mismatched > 0 or ids == _HYPO_IDS


@pytest.mark.parametrize("ids", [_HYPO_IDS, _EP_IDS], ids=["hypo", "ep"])
def test_subsets_match_classify_bitwise_on_corpus(ids):
    # fresh operands on each side; the hypo subset reads hypo2's route, which
    # ep6 shares, without ep6 being requested
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
    assert numerical_rank(fc.c) == 3


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
        assert numerical_rank(fc.c) == 6
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


def test_majorization_witness_refuses_an_overflowed_solve():
    # A x overflows.  The error names it, with no numpy warning, and does
    # not blame the input, which is hypo-EP.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"^the image A x overflows the float range$"):
            majorization_witness(np.diag([1e200, 1e200]), [1e200, 1e200])


def test_majorization_witness_norms_do_not_overflow():
    # ||z|| = sqrt(2) 1e200 is finite although its sum of squares is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = majorization_witness(np.eye(2), [1e200, 1e200])
    assert k == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)


def test_majorization_witness_judges_the_solve_at_a_finite_bound(monkeypatch):
    # ||x|| = 2.1e308 is past the float range, A x = z = (1.5e308, 0) are
    # not: the constant is right and the solve is judged at a finite bound.
    bounds, judge = [], ConditionCheck.judge
    monkeypatch.setattr(ConditionCheck, "judge", lambda cid, residual, bound: (
        bounds.append((cid, bound)) or judge(cid, residual, bound)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert majorization_witness(np.diag([1.0, 0.0]), [1.5e308, 1.5e308]) == 1.5e308
    solve = [bound for cid, bound in bounds if cid == "solve"]
    assert len(solve) == 1 and 0.0 < solve[0] < np.inf


def test_majorization_witness_of_a_subnormal_vector():
    # ||z|| = 1e-320: scaling z by its subnormal power of two must not
    # overflow on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert majorization_witness(np.eye(2), [1e-320, 0.0]) == 1e-320
        assert _norm(np.array([3e-320j, 4e-320])) == pytest.approx(5e-320, rel=1e-3)


def test_scaled_norm_is_numpys_norm_bit_for_bit_within_the_float_range():
    rng = np.random.default_rng(71)
    for n in range(1, 40):
        vec = random_complex(rng, n, 1).ravel() * 10.0 ** rng.uniform(-100, 100)
        assert _norm(vec) == np.linalg.norm(vec)


def test_majorization_witness_vector_length_must_match():
    with pytest.raises(DimensionMismatch, match="vector length 3 does not match matrix size 2"):
        majorization_witness(np.eye(2), [1.0, 0.0, 0.0])


def test_majorization_witness_requires_hypo_ep():
    with pytest.raises(SourceNotHypoEP):
        majorization_witness(JORDAN, np.array([1.0, 0.0]))


def test_condition_lookup_of_an_unknown_id_is_key_error():
    with pytest.raises(KeyError, match="ep8"):
        classify(np.eye(2)).condition("ep8")


def test_construct_factor_c_refuses_a_matrix_ep_only_at_a_loose_tolerance():
    # R(A) = span{e1} and R(A*) = span{(1, 0.01)} are about 0.01 apart, so A
    # is EP at subspace_tol 0.1; A* = A C then fails the fixed slack rule.
    a = np.array([[1.0, 0.01], [0.0, 0.0]])
    tol = TolerancePolicy(subspace_tol=0.1)
    assert classify(a, tol).is_ep
    with pytest.raises(SolveFailure, match=r"numerically singular \(residual=1\.000e-02"):
        construct_factor_c(a, tol)
