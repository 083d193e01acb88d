import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from eplab import (DEFAULT_TOL, TolerancePolicy, adjoint, closed_range_panel,
                   douglas_analysis, generate_admissible, min_eigenvalue, op_norm, pinv,
                   projector, range_basis, subspace_equal, svd)
from eplab import douglas as douglas_module
from eplab.core import growth_bound
from eplab.errors import DimensionMismatch, NonFinite
from eplab.zoo import random_ep

from conftest import douglas_cases, random_complex


def test_inclusion_into_identity():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 4, 3)
    rep = douglas_analysis(a, np.eye(4))
    assert rep.range_included and rep.conditions[0].residual <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_inclusion_residual_matches_projector_form(seed):
    # ||A - Q (Q* A)|| against ||(I - P_R(B)) A|| with the m-by-m projector.
    rng = np.random.default_rng(seed)
    m, n, k = (int(v) for v in rng.integers(1, 9, 3))
    r = int(rng.integers(0, min(m, k) + 1))
    b = random_complex(rng, m, r) @ random_complex(rng, r, k)
    a = random_complex(rng, m, n) if seed % 2 else b @ random_complex(rng, k, n)
    a = a * 10.0 ** rng.uniform(-3, 3)
    residual = douglas_analysis(a, b).conditions[0].residual
    p_b = projector(range_basis(b))
    expected = op_norm((np.eye(m) - p_b) @ a)
    assert abs(residual - expected) <= 1e-13 * max(1.0, op_norm(a))


def test_inclusion_disjoint_axes():
    rep = douglas_analysis(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert not rep.range_included and abs(rep.conditions[0].residual - 1.0) < 1e-12


def test_inclusion_of_a_small_operand_is_judged_on_its_own_scale():
    # span{e2} is not in span{e1}, however small A is: the residual 1e-9 is
    # all of ||A||, and the bound is subspace_tol * ||A|| = 1e-17
    rep = douglas_analysis(np.diag([0.0, 1e-9]), np.diag([1.0, 0.0]))
    assert not rep.range_included and rep.conditions[0].residual == 1e-9
    assert rep.factor_c is None


def test_inclusion_of_exhibited_factor():
    rng = np.random.default_rng(1)
    b = random_complex(rng, 5, 3)
    m = random_complex(rng, 3, 4)
    assert douglas_analysis(b @ m, b).range_included


def test_inclusion_shape_contract():
    with pytest.raises(DimensionMismatch):
        douglas_analysis(np.eye(2), np.eye(3))


def test_factorize_against_identity():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 4, 4)
    rep = douglas_analysis(a, np.eye(4))
    np.testing.assert_allclose(rep.factor_c, a, atol=1e-12)
    assert rep.residual_bc_a <= 1e-12
    # the growth ratio ||C x||^2 / (||x||^2 + ||A x||^2) never reaches 1 here
    assert rep.bound_k is not None and rep.bound_k < 1.0
    # ||A|| > 1, so A A* <= I fails and no contraction verdict is given
    assert op_norm(a) > 1.0 and rep.contraction_ok is None


def test_factorize_diagonal():
    rep = douglas_analysis(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
    np.testing.assert_allclose(rep.factor_c, np.diag([0.5, 0.0]), atol=1e-14)
    assert rep.residual_bc_a <= 1e-14


def test_factorize_self_gives_carrier_projector():
    rng = np.random.default_rng(3)
    b = random_complex(rng, 5, 3) @ random_complex(rng, 3, 5)  # rank 3
    rep = douglas_analysis(b, b)
    carrier = pinv(b) @ b
    np.testing.assert_allclose(rep.factor_c, carrier, atol=1e-10)
    assert op_norm(b @ rep.factor_c - b) <= 1e-10


def test_factorize_requires_inclusion():
    rep = douglas_analysis(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert not rep.range_included
    assert rep.factor_c is None and rep.residual_bc_a is None and rep.bound_k is None


def test_factorization_soundness_sweep():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        b = random_complex(rng, m, k)
        c = random_complex(rng, k, n)
        a = b @ c
        rep = douglas_analysis(a, b)
        assert rep.range_included
        assert rep.residual_bc_a <= 1e-9 * max(1.0, op_norm(a))
        assert np.isfinite(rep.bound_k)


def test_contraction_self():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 4, 2) @ random_complex(rng, 2, 4)
    rep = douglas_analysis(a, a)
    assert rep.contraction_ok
    np.testing.assert_allclose(rep.factor_c, pinv(a) @ a, atol=1e-10)


def test_contraction_scaling():
    rng = np.random.default_rng(6)
    b = random_complex(rng, 4, 4)
    rep = douglas_analysis(0.5 * b, b)
    assert rep.contraction_ok
    assert abs(op_norm(rep.factor_c) - 0.5) <= 1e-10


def test_contraction_rejects_bad_majorization():
    # R(A) <= R(B) holds, A A* <= B B* does not: a factor, no contraction verdict.
    rep = douglas_analysis(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))
    assert rep.range_included and rep.contraction_ok is None


@pytest.mark.parametrize("s", [1e-6, 1e-5, 1.0, 1e100])
def test_majorization_floor_is_on_the_scale_of_b(s):
    # A A* = 100 B B* is never majorized; at s = 1e-6 the gap -9.9e-11
    # would clear an absolute floor of -psd_tol.
    rep = douglas_analysis(10.0 * s * np.eye(2), s * np.eye(2))
    assert rep.range_included and rep.contraction_ok is None


def test_contraction_bound_sweep():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        b = random_complex(rng, m, n)
        k = random_complex(rng, n, n)
        k /= op_norm(k) / float(rng.uniform(0.1, 1.0))  # ||K|| <= 1
        a = b @ k
        rep = douglas_analysis(a, b)
        assert rep.contraction_ok
        assert op_norm(rep.factor_c) <= 1.0 + 1e-9


_PANEL_IDS = ["range_matches_gram_right", "adjoint_range_matches_gram_left",
              "factors_through_gram"]


def test_panel_full_rank():
    rng = np.random.default_rng(8)
    for shape in [(3, 3), (3, 5), (5, 3)]:
        items = closed_range_panel(random_complex(rng, *shape))
        assert [item.condition_id for item in items] == _PANEL_IDS
        assert all(item.passed for item in items)


def test_panel_rank_deficient_diagonal():
    items = {item.condition_id: item for item in closed_range_panel(np.diag([1.0, 0.0]))}
    assert all(item.passed for item in items.values())


def test_panel_near_singular_uses_rank_one_reading():
    items = {item.condition_id: item
             for item in closed_range_panel(np.diag([1.0, 1e-17]))}
    assert items["range_matches_gram_right"].passed
    assert items["adjoint_range_matches_gram_left"].passed
    assert items["factors_through_gram"].passed


def test_panel_zero_matrix():
    assert all(item.passed for item in closed_range_panel(np.zeros((2, 2))))


def test_panel_residuals_are_the_public_routes(corpus1000):
    # Each residual is the one the public functions give, bit for bit.
    for _, a in corpus1000[:300]:
        star = adjoint(a)
        gram_right, gram_left = a @ star, star @ a
        right, left, factors = (item.residual for item in closed_range_panel(a))
        assert right == subspace_equal(range_basis(a), range_basis(gram_right)).residual
        assert left == subspace_equal(range_basis(star), range_basis(gram_left)).residual
        assert factors == op_norm(gram_right @ (pinv(gram_right) @ a) - a)


def test_panel_judges_each_row_once_at_the_callers_tolerance(corpus1000, monkeypatch):
    # At subspace_tol = 1e-15 each range row is the subspace_equal check made
    # at that tolerance, renamed, and no check is made at the default; the
    # factorization row is judged on ||A||, with no floor.  Rows of each
    # kind that pass at the default fail here.
    tol = TolerancePolicy(subspace_tol=1e-15)
    tols = []

    def recording(p, q, tol=DEFAULT_TOL):
        tols.append(tol)
        return subspace_equal(p, q, tol)

    flipped = set()
    for _, a in corpus1000[:100]:
        default = closed_range_panel(a)
        with monkeypatch.context() as patch:
            patch.setattr(douglas_module, "subspace_equal", recording)
            items = closed_range_panel(a, tol)
        assert [item.condition_id for item in items] == _PANEL_IDS
        assert [item.residual for item in items] == [item.residual for item in default]
        right, left, factors = items
        assert right.passed == (right.residual <= 1e-15)
        assert left.passed == (left.residual <= 1e-15)
        assert factors.passed == (factors.residual <= tol.residual_bound(svd(a).sigma[0]))
        flipped |= {item.condition_id for item, was in zip(items, default)
                    if was.passed and not item.passed}
    assert tols and all(seen is tol for seen in tols)
    assert flipped == set(_PANEL_IDS)


def test_panel_gram_identities_always_hold():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        items = {item.condition_id: item
                 for item in closed_range_panel(random_complex(rng, m, n))}
        assert items["range_matches_gram_right"].passed
        assert items["adjoint_range_matches_gram_left"].passed


# (range_included, contraction_ok) per case of conftest.douglas_cases
_DOUGLAS_VERDICTS = {
    "included_majorized": (True, True),
    "included_not_majorized": (True, None),
    "not_included_not_majorized": (False, None),
    "not_included_majorized": (False, True),
}


@pytest.mark.parametrize("case", douglas_cases(), ids=lambda case: case[0])
def test_douglas_analysis_four_cases(case):
    # Each field, bit for bit, from the public primitives.
    name, a, b = case
    tol = DEFAULT_TOL
    report = douglas_analysis(a, b)
    assert (report.range_included, report.contraction_ok) == _DOUGLAS_VERDICTS[name]
    residual = op_norm(adjoint(range_basis(b).complement) @ a)
    assert report.conditions[0] == ("range_included", residual,
                                    residual <= tol.subspace_tol * max(1.0, op_norm(a)))
    c = pinv(b) @ a
    majorized = min_eigenvalue(b @ adjoint(b) - a @ adjoint(a)) >= -tol.psd_tol * op_norm(b) ** 2
    contraction = ("contraction", op_norm(c), op_norm(c) <= 1.0 + tol.subspace_tol)
    assert report.conditions[1:] == ((contraction,) if majorized else ())
    assert report.contraction_ok == (contraction[2] if majorized else None)
    if report.range_included:
        np.testing.assert_array_equal(report.factor_c, c)
        assert report.residual_bc_a == op_norm(b @ c - a)
        assert report.bound_k == growth_bound(c, a)
    else:
        assert report.factor_c is report.residual_bc_a is report.bound_k is None


def test_douglas_analysis_decomposition_counts(monkeypatch):
    a = random_ep(64, 48, np.random.default_rng(0))
    b = generate_admissible(a, 0.5, 0)
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            values_only = name == "svd" and not kwargs.get("compute_uv", True)
            counts["svdvals" if values_only else name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(douglas_module, "_inclusion",
                        counting("_inclusion", douglas_module._inclusion))
    report = douglas_analysis(b, a)
    assert report.range_included and report.contraction_ok
    assert counts["_inclusion"] == 1
    assert counts["svd"] == 1
    assert counts["eigvalsh"] == 1
    assert counts["qr"] == 1  # the growth bound's


def test_majorization_decides_a_pair_whose_gram_overflows():
    # B B* - A A* is past the float range, but the gap of A / p and B / p,
    # p = 2^664 the power of two at the largest entry, is not.  B's rank is
    # 1 (sigma_2 = 1 is below the cut 4.4e184), so A is 3 outside R(B),
    # within the bound 1e192, and C = pinv(B) A = diag(1, 0).
    report = douglas_analysis(np.diag([1e200, 3.0]), np.diag([1e200, 1.0]))
    assert report.conditions == (("range_included", 3.0, True), ("contraction", 1.0, True))
    np.testing.assert_array_equal(report.factor_c, np.diag([1.0, 0.0]))


def test_pair_past_1e154_decided_without_warnings():
    # A = B, so the pair is majorized, though its Gram matrices overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = douglas_analysis(np.diag([1e200, 3.0]), np.diag([1e200, 3.0]))
    assert report.conditions == (("range_included", 3.0, True), ("contraction", 1.0, True))


@pytest.mark.parametrize("b", [np.diag([1.0, 1.0, 0.0]), np.eye(3)], ids=["cut", "identity"])
def test_an_a_whose_two_norm_overflows_is_non_finite(b):
    # Every entry of A is finite and B is harmless; A's 2-norm 4.5e308 is
    # not.  Unchecked, the inclusion residual inf passed at 1e-8 * inf, and
    # against B = I the growth bound's QR overflowed to bound_k 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^the 2-norm sigma_1 of the matrix overflows "
                                            "the float range$"):
            douglas_analysis(np.full((3, 3), 1.5e308), b)


def test_majorization_of_a_pair_below_1e154_is_not_lost_to_underflow():
    # A A* = 1e-400 I and B B* = 2.5e-401 I underflow to 0, so the unscaled
    # gap is 0 and passed; on A / p and B / p it is -0.75 p^-2 ||A||^2 < 0.
    report = douglas_analysis(1e-200 * np.eye(2), 0.5e-200 * np.eye(2))
    assert report.range_included and report.contraction_ok is None


def test_majorization_of_a_pair_at_a_subnormal_power():
    # The power of two at 8e-309 is 2^-1024, whose reciprocal overflows; the
    # real and imaginary parts are divided by it apart, not multiplied.
    a = 8e-309 * np.eye(2) * (1 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = douglas_analysis(a, a)
    assert report.range_included and report.contraction_ok
    assert abs(report.conditions[1].residual - 1.0) <= 1e-15


def _sampled_growth_bound(c, a, seed):
    """The sampled bound ``bound_k`` used to report: the largest of 1000 ratios."""
    rng = np.random.default_rng(seed)
    shape = (a.shape[1], 1000)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    num = np.linalg.norm(c @ x, axis=0) ** 2
    den = np.linalg.norm(x, axis=0) ** 2 + np.linalg.norm(a @ x, axis=0) ** 2
    return float(np.max(num / den, initial=0.0))


@pytest.mark.parametrize("seed", range(120))
def test_growth_bound_is_the_generalized_eigenvalue(seed):
    # sup ||C x||^2 / (||x||^2 + ||A x||^2) is the largest eigenvalue of the
    # pencil (C* C, I + A* A); a sample maximum never exceeds it.
    rng = np.random.default_rng([31, seed])
    m, k, n = (int(v) for v in rng.integers(1, 9, 3))
    b = random_complex(rng, m, k)
    b *= 10.0 ** rng.uniform(-3, 3) / op_norm(b)
    a = b @ random_complex(rng, k, n)
    a *= 10.0 ** rng.uniform(-3, 3) / op_norm(a)
    report = douglas_analysis(a, b)
    c = report.factor_c
    exact = scipy.linalg.eigh(c.conj().T @ c, np.eye(n) + a.conj().T @ a, eigvals_only=True)[-1]
    assert abs(report.bound_k - exact) <= 1e-9 * exact
    assert report.bound_k >= _sampled_growth_bound(c, a, seed) * (1 - 1e-12)


def test_growth_bound_of_huge_entries_raises_no_warning():
    # I + A* A overflows; the QR of [I; A] does not.  A's rank is 1 at the
    # default threshold, so C = pinv(A) A = diag(1, 0) and the bound is
    # 1e-400, which is 0.
    a = np.diag([1e200, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = growth_bound(pinv(a) @ a, a)
    assert bound == 0.0


def test_growth_bound_of_the_identity_factor():
    # C = I: the supremum is 1 / (1 + sigma_min(A)^2), reached at A's last
    # right singular vector.
    a = np.diag([4.0, 0.5, 2.0])
    assert abs(growth_bound(np.eye(3), a) - 1.0 / 1.25) <= 1e-15
