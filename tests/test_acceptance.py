"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The shared 1000-matrix corpus comes
from ``eplab.zoo.corpus_matrix`` (seed 0, n <= 32) spanning random,
Hermitian, normal, nilpotent, EP-by-construction, rank-deficient, zero,
rank-one and rescaled families; EP-specific criteria use 200 seeded
EP-by-construction matrices.
"""

import time

import numpy as np
import pytest

from eplab import (adjoint, check_perturbation, classify, construct_factor_c,
                   dagger_identities, douglas_analysis, ep_closure_suite,
                   gamma, generate_admissible, numerical_rank, op_norm,
                   penrose_verify, pinv, projector, range_basis, null_basis, svd)
from eplab.zoo import Family, OperatorSpec, gamma_sweep, generate

from conftest import random_complex
from oracle import gram_schmidt_range, projector_from_span, rref_null_basis

RESIDUAL_TOL = 1e-9
PSD_FLOOR = 1e-9


def report_line(number, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description}{extra}")
    return ok


@pytest.fixture(scope="module")
def corpus_reports(corpus1000):
    start = time.perf_counter()
    reports = [(label, a, classify(a)) for label, a in corpus1000]
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_seven_way_equivalence(corpus_reports):
    reports, elapsed = corpus_reports
    disagreements = []
    for label, _, rep in reports:
        flags = {rep.condition(f"ep{i}").passed for i in range(1, 8)}
        if len(flags) > 1:
            disagreements.append(label)
    ok = not disagreements and elapsed < 30.0
    report_line(1, "seven-way EP equivalence over 1000 matrices", ok,
                f" ({len(reports)} matrices, {elapsed:.1f}s, "
                f"{len(disagreements)} disagreements)")
    assert not disagreements, disagreements[:5]
    assert elapsed < 30.0


def test_criterion_2_finite_dimensional_collapse(corpus_reports):
    reports, _ = corpus_reports
    mismatches = [label for label, _, rep in reports if rep.is_ep != rep.is_hypo_ep]
    report_line(2, "is_ep == is_hypo_ep on the whole corpus", not mismatches,
                f" ({len(mismatches)} mismatches)")
    assert not mismatches, mismatches[:5]


def test_criterion_3_hypo_chain(corpus_reports):
    reports, _ = corpus_reports
    violations = []
    for label, _, rep in reports:
        passes = [
            rep.condition("hypo2").residual <= RESIDUAL_TOL,
            rep.condition("chain2").residual <= RESIDUAL_TOL,
            rep.condition("chain3").residual <= PSD_FLOOR,
            rep.condition("chain4").residual <= RESIDUAL_TOL,
        ]
        for first, second in zip(passes, passes[1:]):
            if first and not second:
                violations.append(label)
                break
    report_line(3, "hypo2 => chain2 => chain3 => chain4 at 1e-9 tolerances",
                not violations, f" ({len(violations)} violations)")
    assert not violations, violations[:5]


def test_criterion_4_penrose_verification(corpus1000):
    worst = 0.0
    offenders = []
    for label, a in corpus1000:
        rep = penrose_verify(a, pinv(a))
        bound = 1e-10 * max(1.0, op_norm(a))
        top = max(rep.residuals().values())
        worst = max(worst, top)
        if top > bound:
            offenders.append((label, top))
    report_line(4, "Penrose residuals <= 1e-10 * max(1, ||A||) corpus-wide",
                not offenders, f" (worst {worst:.2e})")
    assert not offenders, offenders[:5]


def test_criterion_5_dagger_identities(corpus1000):
    worst = 0.0
    offenders = []
    for label, a in corpus1000:
        for name, residual in dagger_identities(a):
            worst = max(worst, residual)
            if residual > RESIDUAL_TOL:
                offenders.append((label, name, residual))
    report_line(5, "pseudoinverse identity residuals <= 1e-9 corpus-wide",
                not offenders, f" (worst {worst:.2e})")
    assert not offenders, offenders[:5]


def test_criterion_6_gamma_duality(corpus1000):
    offenders = []
    for label, a in corpus1000:
        scale = max(1.0, op_norm(a))
        if gamma(a) > 0:
            if abs(gamma(a) * op_norm(pinv(a)) - 1.0) > 1e-9:
                offenders.append((label, "duality"))
        if abs(gamma(a) - gamma(adjoint(a))) > 1e-10 * scale:
            offenders.append((label, "adjoint symmetry"))
    report_line(6, "gamma * ||pinv|| = 1 and gamma(A) = gamma(A*)",
                not offenders, f" ({len(offenders)} offenders)")
    assert not offenders, offenders[:5]


def test_criterion_7_ep_closure_suite(ep200):
    failures = []
    for i, a in enumerate(ep200):
        for name, is_ep in ep_closure_suite(a):
            if not is_ep:
                failures.append((i, name))
    report_line(7, "A*, AA*, A*A, |A| all EP for 200 EP matrices",
                not failures, f" ({len(failures)} failures)")
    assert not failures, failures[:5]


def test_criterion_8_factor_c(ep200):
    failures = []
    for i, a in enumerate(ep200):
        fc = construct_factor_c(a)
        scale = max(1.0, op_norm(a))
        if fc.residual_factorization > 1e-9 * scale:
            failures.append(i)
        if numerical_rank(svd(fc.c)) != a.shape[0]:
            failures.append(i)
    report_line(8, "A* = A C with invertible C for 200 EP matrices",
                not failures, f" ({len(failures)} failures)")
    assert not failures, failures[:5]


def test_criterion_9_douglas_soundness():
    rng = np.random.default_rng(2024)
    inclusion_failures = []
    for i in range(500):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        b = random_complex(rng, m, k)
        c = random_complex(rng, k, n)
        if not douglas_analysis(b @ c, b).range_included:
            inclusion_failures.append(i)

    factorization_failures = []
    for i in range(500):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        b = random_complex(rng, m, k)
        a = b @ random_complex(rng, k, int(rng.integers(1, 7)))
        rep = douglas_analysis(a, b)
        if (not rep.range_included or rep.residual_bc_a > RESIDUAL_TOL
                or not np.isfinite(rep.bound_k)):
            factorization_failures.append(i)

    contraction_failures = []
    for i in range(200):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        b = random_complex(rng, m, n)
        k_mat = random_complex(rng, n, n)
        k_mat /= op_norm(k_mat) / float(rng.uniform(0.05, 1.0))
        a = b @ k_mat
        rep = douglas_analysis(a, b)
        # contraction_ok is None when A A* <= B B* fails
        if (not rep.range_included or rep.contraction_ok is None
                or op_norm(rep.factor_c) > 1.0 + 1e-9):
            contraction_failures.append(i)

    ok = not (inclusion_failures or factorization_failures or contraction_failures)
    report_line(9, "Douglas soundness (500 inclusion, 500 factorization, "
                   "200 contraction)", ok,
                f" ({len(inclusion_failures)}/{len(factorization_failures)}/"
                f"{len(contraction_failures)} failures)")
    assert ok


def test_criterion_10_perturbation_theorem():
    rng = np.random.default_rng(77)
    failures = []
    scales = (0.1, 0.5, 0.9)
    for i in range(500):
        n = int(rng.integers(2, 17))
        r = int(rng.integers(1, n + 1))
        spec = OperatorSpec(family=Family.RANDOM_EP, n=n, rank=r, seed=5000 + i)
        a, _ = generate(spec)
        b = generate_admissible(a, scales[i % 3], seed=9000 + i)
        rep = check_perturbation(a, b)
        if not (rep.hypotheses_pass and rep.concl_ep and rep.concl_null_equal
                and rep.concl_range_equal and rep.concl_gamma_bound):
            failures.append(i)
    report_line(10, "perturbation conclusions for 500 admissible pairs",
                not failures, f" ({len(failures)} failures)")
    assert not failures, failures[:5]


def test_criterion_11_zoo_fidelity():
    problems = []

    for family in (Family.DIAG_HARMONIC, Family.MULT_INV_SQRT):
        for n in range(2, 65):
            a, _ = generate(OperatorSpec(family=family, n=n))
            if not classify(a).is_ep:
                problems.append((family.value, n, "not EP"))

    for n in range(3, 65):
        a, _ = generate(OperatorSpec(family=Family.FOURIER_DERIVATIVE, n=n))
        if not classify(a).is_ep:
            problems.append(("FourierDerivative", n, "not EP"))
        ones = np.ones((n, 1)) / np.sqrt(n)
        p_mean_zero = np.eye(n) - ones @ ones.T
        if op_norm(projector(range_basis(a)) - p_mean_zero) > 1e-9:
            problems.append(("FourierDerivative", n, "range != span{1}^perp"))

    odd_sizes = list(range(3, 64, 2))
    points = gamma_sweep(Family.DIAG_ALTERNATING, odd_sizes)
    gammas = [p.gamma for p in points]
    if not all(g1 > g2 for g1, g2 in zip(gammas, gammas[1:])):
        problems.append(("DiagAlternating", 0, "gamma not strictly decreasing"))
    for n, point in zip(odd_sizes, points):
        if point.gamma != 1.0 / n:
            problems.append(("DiagAlternating", n, "gamma != 1/(2k+1) exactly"))

    for n in range(2, 65):
        a, traits = generate(OperatorSpec(family=Family.WEIGHTED_SHIFT, n=n))
        rep = classify(a)
        # documented divergence: sections are neither EP nor hypo-EP
        if rep.is_ep or rep.is_hypo_ep or not traits.note:
            problems.append(("WeightedShift", n, "section verdict"))

    report_line(11, "zoo fidelity (EP families, Fourier range, gamma sweep, "
                    "shift divergence)", not problems, f" ({len(problems)} problems)")
    assert not problems, problems[:5]


def test_criterion_12_oracle_cross_check(corpus1000):
    checked = 0
    failures = []
    for label, a in corpus1000:
        if a.shape[0] > 6 or a.shape[1] > 6:
            continue
        checked += 1
        p_range = projector(range_basis(a))
        p_range_oracle = projector_from_span(gram_schmidt_range(a))
        if np.linalg.norm(p_range - p_range_oracle, 2) > 1e-8:
            failures.append((label, "range"))
        p_null = projector(null_basis(a))
        p_null_oracle = projector_from_span(rref_null_basis(a))
        if np.linalg.norm(p_null - p_null_oracle, 2) > 1e-8:
            failures.append((label, "null"))
    report_line(12, "range/null bases agree with Gram-Schmidt / row-reduction "
                    "oracles (n <= 6)", not failures,
                f" ({checked} matrices, {len(failures)} failures)")
    assert checked > 50
    assert not failures, failures[:5]
