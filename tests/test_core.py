import ast
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab import (SubspaceBasis, TolerancePolicy, adjoint, check_perturbation,
                   classify, closed_range_panel, construct_factor_c, dagger_identities,
                   douglas_analysis, ep_closure_suite, gamma, majorization_witness,
                   min_eigenvalue, modulus, null_basis, numerical_rank, op_norm,
                   penrose_verify, pinv, projector, range_basis, subspace_equal,
                   subspace_included, svd, svdvals)
from eplab.core import _Operand
from eplab.errors import ConvergenceFailure, DimensionMismatch, NonFinite, OperatorAnalysisError
from eplab.zoo import corpus_matrix, haar_frame

from conftest import random_complex

EPS = np.finfo(np.float64).eps


def test_svd_identity():
    f = svd(np.eye(3))
    np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0])


def test_svd_diagonal_sorted():
    f = svd(np.diag([3.0, 0.0, 1.0]))
    np.testing.assert_array_equal(f.sigma, [3.0, 1.0, 0.0])


def test_svd_jordan_block():
    # sigma^2 are the eigenvalues of A*A = diag(0, 1)
    f = svd(np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_allclose(f.sigma, [1.0, 0.0], atol=1e-15)


def test_svd_factor_invariants():
    rng = np.random.default_rng(7)
    for m, n in [(5, 3), (3, 5), (4, 4), (1, 6)]:
        a = random_complex(rng, m, n)
        f = svd(a)
        assert np.linalg.norm(f.u.conj().T @ f.u - np.eye(m), 2) <= 1e-12 * m
        assert np.linalg.norm(f.v.conj().T @ f.v - np.eye(n), 2) <= 1e-12 * n
        assert np.all(f.sigma[:-1] >= f.sigma[1:]) and np.all(f.sigma >= 0)
        smat = np.zeros((m, n))
        np.fill_diagonal(smat, f.sigma)
        recon = f.u @ smat @ f.v.conj().T
        assert np.linalg.norm(recon - a, 2) <= 1e-12 * max(1.0, op_norm(a))


def test_svd_rejects_nonfinite():
    with pytest.raises(NonFinite):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_numerical_rank_examples():
    assert numerical_rank(np.diag([3.0, 1.0, 0.0])) == 2
    # 2*eps*1 > 1e-18 so the tiny value is cut
    assert 2 * EPS > 1e-18
    assert numerical_rank(np.diag([1.0, 1e-18])) == 1
    assert numerical_rank(np.zeros((2, 3))) == 0


def test_numerical_rank_policy_overrides():
    a = np.diag([1.0, 1e-6])
    assert numerical_rank(a, TolerancePolicy(rank_abs=1e-7)) == 2
    assert numerical_rank(a, TolerancePolicy(rank_abs=1e-5)) == 1
    assert numerical_rank(a, TolerancePolicy(rank_rel=1e-5)) == 1


@pytest.mark.parametrize("tol", [
    TolerancePolicy(), TolerancePolicy(rank_rel=1e-6), TolerancePolicy(rank_abs=1e-3),
], ids=["default", "rank_rel", "rank_abs"])
def test_one_rank_rule_over_the_corpus(tol):
    # The rule as the README states it, counted by hand on the values-only
    # SVD that gamma reads: rank_abs if set, else rank_rel * sigma_1, else
    # max(m, n) * eps * sigma_1.
    for index in range(200):
        a = corpus_matrix(index, 0).matrix
        sigma = np.linalg.svd(a.astype(complex), compute_uv=False)
        factor = tol.rank_rel if tol.rank_rel is not None else max(a.shape) * EPS
        cut = tol.rank_abs if tol.rank_abs is not None else factor * sigma[0]
        rank = int(np.count_nonzero(sigma > cut))
        assert numerical_rank(a, tol) == classify(a, tol).rank == rank, index
        assert gamma(a, tol) == (sigma[rank - 1] if rank else 0.0), index


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_rel=1e-10, rank_abs=1e-10)
    with pytest.raises(ValueError):
        TolerancePolicy(subspace_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(psd_tol=-1.0)


@pytest.mark.parametrize("name", ["rank_rel", "rank_abs", "subspace_tol", "psd_tol"])
@pytest.mark.parametrize("value", [float("inf"), float("1e400"), float("nan")])
def test_tolerance_policy_requires_finite_values(name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        TolerancePolicy(**{name: value})


def test_range_basis_examples():
    b = range_basis(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(np.abs(b.basis), [[1.0], [0.0]], atol=1e-14)
    jordan = range_basis(np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_allclose(projector(jordan), np.diag([1.0, 0.0]), atol=1e-14)
    zero = range_basis(np.zeros((2, 2)))
    assert zero.k == 0 and zero.basis.shape == (2, 0)


def test_null_basis_examples():
    np.testing.assert_allclose(projector(null_basis(np.diag([1.0, 0.0]))),
                               np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(projector(null_basis(np.array([[0, 1], [0, 0]]))),
                               np.diag([1.0, 0.0]), atol=1e-14)
    assert null_basis(np.array([[1.0, 1.0], [0.0, 2.0]])).k == 0


def test_projector_examples():
    e1 = range_basis(np.array([[1.0], [0.0]]))
    np.testing.assert_allclose(projector(e1), [[1, 0], [0, 0]])
    zero = range_basis(np.zeros((2, 1)))
    np.testing.assert_allclose(projector(zero), np.zeros((2, 2)))
    diag = range_basis(np.array([[1.0], [1.0]]) / np.sqrt(2))
    np.testing.assert_allclose(projector(diag), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_projector_hermitian_idempotent():
    rng = np.random.default_rng(3)
    for m, n in [(6, 4), (5, 5), (4, 7)]:
        p = projector(range_basis(random_complex(rng, m, n)))
        assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10
        assert np.linalg.norm(p @ p - p, 2) <= 1e-10


def test_subspace_equal_examples():
    e1 = range_basis(np.array([[1.0], [0.0]]))
    e2 = range_basis(np.array([[0.0], [1.0]]))
    _, res, ok = subspace_equal(e1, e1)
    assert ok and res == 0.0
    _, res, ok = subspace_equal(e1, e2)
    assert not ok and abs(res - 1.0) < 1e-12
    eps = 1e-14
    tilted = np.array([[1.0], [eps]], dtype=complex)
    tilted /= np.linalg.norm(tilted)
    _, res, ok = subspace_equal(e1, range_basis(tilted))
    assert ok and res < 1e-13


def test_subspace_included_examples():
    zero = range_basis(np.zeros((3, 1)))
    e1 = range_basis(np.eye(3, 1))
    e12 = range_basis(np.eye(3, 2))
    e2 = range_basis(np.eye(3)[:, [1]])
    assert subspace_included(zero, e2).passed
    _, res, ok = subspace_included(e1, e12)
    assert ok and res == 0.0
    _, res, ok = subspace_included(e1, e2)
    assert not ok and abs(res - 1.0) < 1e-12


def test_subspace_dimension_mismatch():
    p = range_basis(np.eye(2, 1))
    q = range_basis(np.eye(3, 1))
    with pytest.raises(DimensionMismatch):
        subspace_equal(p, q)
    with pytest.raises(DimensionMismatch):
        subspace_included(p, q)


def test_mutual_inclusion_is_equality():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 5, 3)
    p = range_basis(a)
    q = range_basis(a @ random_complex(rng, 3, 3))  # same span, generic mixing
    assert subspace_included(p, q).passed and subspace_included(q, p).passed
    assert subspace_equal(p, q).passed


def test_adjoint_examples():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_array_equal(adjoint(sym), sym)
    a = np.array([[0, 1j], [0, 0]])
    np.testing.assert_array_equal(adjoint(a), np.array([[0, 0], [-1j, 0]]))
    rng = np.random.default_rng(5)
    b = random_complex(rng, 4, 6)
    np.testing.assert_array_equal(adjoint(adjoint(b)), b)


def test_op_norm_examples():
    assert op_norm(np.eye(4)) == 1.0
    assert op_norm(np.diag([3.0, 0.0, 1.0])) == 3.0
    assert abs(op_norm(np.array([[0, 2], [0, 0]])) - 2.0) < 1e-14


def test_svdvals_and_min_eigenvalue_examples():
    np.testing.assert_array_equal(svdvals(np.diag([1.0, -3.0, 2.0])), [3.0, 2.0, 1.0])
    # min_eigenvalue reads only the Hermitian part: [[1, 2], [0, 1]] -> [[1, 1], [1, 1]]
    assert abs(min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))) < 1e-15
    assert min_eigenvalue(np.diag([2.0, -1.0])) == -1.0
    for decomposition in (svdvals, min_eigenvalue):
        with pytest.raises(NonFinite):
            decomposition(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_range_null_duality():
    # projector onto R(A) plus projector onto N(A*) resolves the identity
    rng = np.random.default_rng(13)
    for m, n in [(5, 3), (4, 4), (3, 6)]:
        a = random_complex(rng, m, n)
        total = projector(range_basis(a)) + projector(null_basis(adjoint(a)))
        assert np.linalg.norm(total - np.eye(m), 2) <= 1e-9


def test_rank_matches_adjoint_rank():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_complex(rng, 5, 4)
        assert numerical_rank(a) == numerical_rank(adjoint(a))


# -- projector distance as a principal-angle sine ----------------------------

def _projector_distance(p, q):
    return np.linalg.norm(projector(p) - projector(q), 2)


def _span(columns):
    """The subspace spanned by ``columns``; the zero subspace when there are none."""
    return range_basis(columns if columns.shape[1] else np.zeros((columns.shape[0], 1)))


def test_subspace_equal_is_one_for_unequal_dimensions():
    rng = np.random.default_rng(19)
    frame = haar_frame(6, 6, rng)
    for kp, kq in [(0, 1), (1, 0), (2, 3), (5, 6)]:
        p = _span(frame[:, :kp])
        q = _span(frame[:, :kq])  # nested, yet the distance is 1
        _, res, ok = subspace_equal(p, q)
        assert not ok and res == 1.0


def test_subspace_equal_matches_projector_distance():
    rng = np.random.default_rng(23)
    for n, k in [(2, 1), (5, 2), (8, 4), (12, 11), (7, 7)]:
        for _ in range(5):
            p = range_basis(haar_frame(n, k, rng))
            q = range_basis(haar_frame(n, k, rng))
            assert abs(subspace_equal(p, q).residual - _projector_distance(p, q)) <= 1e-14


def test_subspace_equal_at_tiny_angle():
    # q turns p's last basis vector by theta towards a vector outside span(p),
    # so the exact distance is sin(theta).  Rounding the basis entries leaves
    # an error of about eps / theta relative; the projector form is no
    # reference here, since forming P_p - P_q rounds away the same digits.
    theta = 1e-10
    frame = haar_frame(9, 4, np.random.default_rng(29))
    tilted = frame[:, :3].copy()
    tilted[:, 2] = np.cos(theta) * frame[:, 2] + np.sin(theta) * frame[:, 3]
    p = range_basis(frame[:, :3])
    q = range_basis(tilted)
    res = subspace_equal(p, q).residual
    assert abs(res - np.sin(theta)) <= 1e-5 * np.sin(theta)


def test_subspace_included_matches_projector_form():
    rng = np.random.default_rng(31)
    for kp, kq in [(1, 3), (3, 1), (2, 2), (4, 0)]:
        p = _span(haar_frame(6, kp, rng))
        q = _span(haar_frame(6, kq, rng))
        expected = np.linalg.norm((np.eye(6) - projector(q)) @ projector(p), 2)
        assert abs(subspace_included(p, q).residual - expected) <= 1e-14


def test_factor_bases_match_range_and_null_basis():
    rng = np.random.default_rng(41)
    for m, n, r in [(5, 5, 3), (4, 6, 2), (6, 3, 3), (3, 3, 0)]:
        x, y = random_complex(rng, m, r), random_complex(rng, r, n)
        a = x @ y
        rng_a, nul_a = _Operand(a).bases
        np.testing.assert_array_equal(rng_a.basis, range_basis(a).basis)
        np.testing.assert_array_equal(nul_a.basis, null_basis(a).basis)
        # independent reference: R(A) = R(x) and N(A) = R(y*)^perp, from QRs of the factors
        q_x, q_y = np.linalg.qr(x)[0], np.linalg.qr(y.conj().T)[0]
        assert (rng_a.k, nul_a.k) == (r, n - r)
        np.testing.assert_allclose(projector(rng_a), q_x @ q_x.conj().T, atol=1e-12)
        np.testing.assert_allclose(projector(nul_a), np.eye(n) - q_y @ q_y.conj().T, atol=1e-12)


# -- complement-side residuals ------------------------------------------------

def _haar_subspace(n, k, rng):
    """A Haar subspace of dimension k, spanned by its orthonormal frame and
    by a generic product of that frame."""
    frame = haar_frame(n, k, rng)
    return _span(frame), _Operand(frame @ random_complex(rng, k, n)).bases[0]


def test_complement_residuals_match_projector_forms():
    n = 6
    rng = np.random.default_rng(43)
    for kp in range(n + 1):
        for kq in range(n + 1):
            p_user, p_svd = _haar_subspace(n, kp, rng)
            q_user, q_svd = _haar_subspace(n, kq, rng)
            distance = _projector_distance(p_user, q_user)
            inclusion = np.linalg.norm((np.eye(n) - projector(q_user)) @ projector(p_user), 2)
            for p, q in [(p_user, q_user), (p_svd, q_svd), (p_user, q_svd), (p_svd, q_user)]:
                res = subspace_equal(p, q).residual
                if kp != kq:
                    assert res == 1.0
                else:
                    assert abs(res - distance) <= 1e-14
                assert abs(subspace_included(p, q).residual - inclusion) <= 1e-14


def test_zero_and_whole_space_residuals_are_zero():
    n = 5
    zero = range_basis(np.zeros((n, 1)))
    whole = range_basis(haar_frame(n, n, np.random.default_rng(47)))
    line = range_basis(np.eye(n, 1))
    for p, q in [(zero, zero), (whole, whole), (whole, range_basis(np.eye(n)))]:
        assert subspace_equal(p, q) == ("subspace_equal", 0.0, True)
    for p, q in [(zero, line), (zero, whole), (line, whole), (whole, whole)]:
        assert subspace_included(p, q) == ("subspace_included", 0.0, True)


def test_complement_is_orthonormal_and_orthogonal():
    rng = np.random.default_rng(53)
    a = random_complex(rng, 7, 3) @ random_complex(rng, 3, 5)
    rng_a, nul_a = _Operand(a).bases
    frame = haar_frame(7, 7, rng)
    for s in (rng_a, nul_a, *(range_basis(frame[:, :k]) for k in range(1, 8))):
        comp = s.complement
        assert comp.shape == (s.ambient_dim, s.ambient_dim - s.k)
        assert np.linalg.norm(comp.conj().T @ comp - np.eye(comp.shape[1]), 2) <= 1e-14
        assert np.linalg.norm(comp.conj().T @ s.basis, 2) <= 1e-14


def test_range_basis_of_orthonormal_columns_keeps_their_projector():
    n = 6
    frame = haar_frame(n, n, np.random.default_rng(59))
    for k in range(1, n + 1):
        q = frame[:, :k]
        assert np.linalg.norm(projector(range_basis(q)) - q @ q.conj().T, 2) <= 1e-14
    zero = range_basis(np.zeros((n, 1)))
    assert (zero.k, zero.basis.shape, zero.complement.shape) == (0, (n, 0), (n, n))
    np.testing.assert_array_equal(projector(zero), np.zeros((n, n)))


def test_subspace_basis_fields_are_keyword_only():
    # The old SubspaceBasis(ambient_dim, basis) form must not build a record.
    q = haar_frame(3, 2, np.random.default_rng(61))
    with pytest.raises(TypeError):
        SubspaceBasis(3, q)


_DECOMPOSITIONS = {"svd", "eigvalsh", "eigh"}


def _decomposition_uses(source: str) -> list[str]:
    """``linalg.svd``/``eigvalsh``/``eigh`` references and imports in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _DECOMPOSITIONS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.append(f"line {node.lineno}: linalg.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name in _DECOMPOSITIONS | {"*"}]
    return found


def test_decompositions_are_called_only_in_core():
    # Every SVD and Hermitian eigensolver call goes through core.py, where
    # the decomposition counts and the error mapping live.
    package = Path(eplab.__file__).parent
    uses = {path.name: _decomposition_uses(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py")) if path.name != "core.py"}
    assert not {name: found for name, found in uses.items() if found}
    assert _decomposition_uses((package / "core.py").read_text(encoding="utf-8"))
    assert _decomposition_uses("import numpy as np\nnp.linalg.eigh(a)\n")
    assert _decomposition_uses("from numpy.linalg import svd\n")


def _thread_uses(source: str) -> list[str]:
    """Imports from ``concurrent.futures`` or ``threading`` and reads of a
    ``_table`` attribute in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        found += [f"line {node.lineno}: import {m}" for m in modules
                  if m.split(".")[0] in ("concurrent", "threading")]
        if isinstance(node, ast.Attribute) and node.attr == "_table":
            found.append(f"line {node.lineno}: ._table")
    return found


def test_the_svd_overlap_lives_only_in_core():
    # The overlap's executor and the decomposition table it fills belong to
    # core._Operand; no other module opens a thread or edits the table.
    package = Path(eplab.__file__).parent
    uses = {path.name: _thread_uses(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py")) if path.name != "core.py"}
    assert not {name: found for name, found in uses.items() if found}
    assert _thread_uses((package / "core.py").read_text(encoding="utf-8"))
    assert _thread_uses("import threading\n")
    assert _thread_uses("from concurrent.futures import Future\nop._table[:] = []\n") == [
        "line 1: import concurrent.futures", "line 2: ._table"]


def _random_uses(source: str) -> list[tuple[str | None, int]]:
    """(enclosing top-level function, line) of each ``np.random`` or
    ``default_rng`` reference or import in a module's source."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "default_rng" or (
                    node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in {"np", "numpy"})
            elif isinstance(node, ast.Name):
                hit = node.id == "default_rng"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
                hit = any((prefix + alias.name).startswith("numpy.random")
                          or alias.name == "default_rng" for alias in node.names)
            else:
                hit = False
            if hit:
                found.append((owner, node.lineno))
    return found


def test_no_random_numbers_in_analysis_code():
    # Every reported number is exact.  Only the generators draw seeded
    # random numbers: the zoo, the propsuite corpus and generate_admissible.
    package = Path(eplab.__file__).parent
    uses = {path.name: _random_uses(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))
            if path.name not in {"zoo.py", "propsuite.py"}}
    assert {owner for owner, _ in uses.pop("perturb.py")} == {"generate_admissible"}
    assert not {name: found for name, found in uses.items() if found}
    assert _random_uses((package / "zoo.py").read_text(encoding="utf-8"))
    assert _random_uses("import numpy as np\nx = np.random.rand(3)\n")
    assert _random_uses("from numpy.random import default_rng\n")
    assert _random_uses("from numpy import random\n")
    assert _random_uses("def f(rng=None):\n    return default_rng(0)\n")


def _reads(source: str, name: str) -> set[str | None]:
    """The enclosing top-level function or class of each read of ``name`` in
    a module's source: an attribute ``x.name``, a loaded bare ``name`` or an
    import of it (None at module level)."""
    return {top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for top in ast.parse(source).body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.alias) and node.name == name}


def _package_reads(name: str) -> set[tuple[str, str | None]]:
    package = Path(eplab.__file__).parent
    return {(path.name, owner) for path in sorted(package.glob("*.py"))
            for owner in _reads(path.read_text(encoding="utf-8"), name)}


def _call_sites(source: str, name: str) -> list[str]:
    """The dotted name of the function or class around each call of ``name``
    (bare or as an attribute) in a module's source; "" at module level."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                sites.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "")
    return sites


def test_subspace_bases_are_built_only_where_an_operand_splits_its_factors():
    # Every SubspaceBasis is the two parts of one SVD factor, so the
    # constructor checks nothing; callers' columns go through range_basis.
    package = Path(eplab.__file__).parent
    assert {(path.name, owner) for path in sorted(package.glob("*.py"))
            for owner in _call_sites(path.read_text(encoding="utf-8"), "SubspaceBasis")
            } == {("core.py", "_Operand.bases")}
    source = "class C:\n    def f(self):\n        return SubspaceBasis(basis=b, complement=c)\n"
    assert _call_sites(source, "SubspaceBasis") == ["C.f"]
    assert _call_sites("s = core.SubspaceBasis(basis=b, complement=c)\n",
                       "SubspaceBasis") == [""]
    assert _call_sites("def f(s: SubspaceBasis):\n    return s.k\n", "SubspaceBasis") == []


def test_subspace_tol_is_read_only_by_the_named_rules():
    # TolerancePolicy's bound methods are the acceptance rules of
    # subspace_tol; every other site takes its bound from one of them.
    assert _package_reads("subspace_tol") == {("core.py", "TolerancePolicy")}
    assert _reads("def f(tol):\n    return tol.subspace_tol\n", "subspace_tol") == {"f"}
    assert _reads("x = {'subspace_tol': 1}\n", "subspace_tol") == set()


def test_residual_slack_is_read_only_by_the_named_rules():
    # TolerancePolicy.slack_bound is the one rule that reads RESIDUAL_SLACK.
    assert _package_reads("RESIDUAL_SLACK") == {("core.py", "TolerancePolicy")}
    assert _reads("RESIDUAL_SLACK = 1e-9\n", "RESIDUAL_SLACK") == set()
    assert _reads("def f(x):\n    return x * RESIDUAL_SLACK\n", "RESIDUAL_SLACK") == {"f"}
    assert _reads("from .core import RESIDUAL_SLACK\n", "RESIDUAL_SLACK") == {None}


@pytest.mark.parametrize("call, routine, name", [
    (svd, "svd", "SVD"), (svdvals, "svd", "SVD"), (min_eigenvalue, "eigvalsh", "eigvalsh"),
], ids=["svd", "svdvals", "min_eigenvalue"])
def test_lapack_failure_is_convergence_failure(monkeypatch, call, routine, name):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(ConvergenceFailure, match=f"^{name} did not converge: no convergence$"):
        call(np.eye(2))


_BIG_EP = np.diag([1e200, 3.0])
# Every entry is finite and ||A||_2 = 4.5e308 is not: sigma_1 is inf, so the
# rank cut max(m, n) eps sigma_1 would be inf and the rank 0.
_BIG_NORM = np.full((3, 3), 1.5e308)


# Each input is finite; the matrix or norm the call forms from it is not.
@pytest.mark.parametrize("call, args, formed", [
    (dagger_identities, (_BIG_EP,), "the Gram matrix A* A"),
    (closed_range_panel, (_BIG_EP,), "the Gram matrix A A*"),
    (ep_closure_suite, (_BIG_EP,), "the Gram matrix A A*"),
    (check_perturbation, (np.diag([1.5e308, 1.0]), np.diag([1.5e308, 0.0])),
     "the perturbed matrix A + B"),
    # Invertible, hence hypo-EP, with A x finite; ||A+|| ~ 1e5 takes z past the range.
    (majorization_witness, (np.array([[1.0, 1e5], [0.0, 1e-5]]), [1e300, 1e300]),
     "the solution z of A* z = A x"),
    (penrose_verify, (np.diag([1e200, 1.0]), np.diag([1e200, 1.0])),
     "the product A+ A of the candidate"),
    # the one rank rule, under each kind of rank policy
    (classify, (_BIG_NORM,), "the 2-norm sigma_1 of the matrix"),
    (pinv, (_BIG_NORM, TolerancePolicy(rank_rel=1e-6)), "the 2-norm sigma_1 of the matrix"),
    (gamma, (_BIG_NORM, TolerancePolicy(rank_abs=1e-6)), "the 2-norm sigma_1 of the matrix"),
    (modulus, (_BIG_NORM,), "the 2-norm sigma_1 of the matrix"),
    # z = x is finite; its norm 2.1e308 is not.
    (majorization_witness, (np.eye(2), [1.5e308, 1.5e308]), "the norm ||z|| of the solution z"),
    # A = 1e150 I is majorized by nothing smaller; C = pinv(B) A is 1e310 I.
    (douglas_analysis, (1e150 * np.eye(2), 1e-160 * np.eye(2)), "the factor C = pinv(B) A"),
    # A+ A*+ = diag(1e400, 2.5e399); (A* A)+ is the zero matrix, A* A having underflowed.
    (dagger_identities, (1e-200 * np.diag([1.0, 2.0]),), "the product A+ A*+"),
], ids=["dagger_identities", "closed_range_panel", "ep_closure_suite", "check_perturbation",
        "majorization_witness_z", "penrose_verify", "classify_sigma_1",
        "pinv_sigma_1_rank_rel", "gamma_sigma_1_rank_abs", "modulus_sigma_1",
        "majorization_witness_norm_z", "douglas_factor_c", "dagger_identities_pinv_product"])
def test_an_overflowed_formed_matrix_is_named_without_warnings(call, args, formed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=f"^{re.escape(formed)} overflows the float range$"):
            call(*args)


_SCALES = (1e-300, 1e-200, 1e-160, 1.0, 1e150, 1e200, 1e300)
_ONE_OPERAND = (classify, pinv, gamma, modulus, dagger_identities, ep_closure_suite,
                construct_factor_c, closed_range_panel)


def _scaled_calls(matrices):
    """``(label, call, args)`` of each analysis of each matrix at each scale,
    and of each two-operand analysis of each same-size pair at each pair of scales."""
    for i, a in enumerate(matrices):
        for s in _SCALES:
            sa = s * a
            for call in _ONE_OPERAND:
                yield f"{call.__name__}({s:g} A{i})", call, (sa,)
            yield (f"penrose_verify({s:g} A{i})",
                   lambda x: penrose_verify(x, pinv(x)), (sa,))
            yield (f"majorization_witness({s:g} A{i})",
                   majorization_witness, (sa, np.full(a.shape[0], s)))
    for (i, a), (j, b) in itertools.permutations(enumerate(matrices), 2):
        if a.shape == b.shape:
            for s, t in itertools.product(_SCALES, repeat=2):
                for call in (douglas_analysis, check_perturbation):
                    yield f"{call.__name__}({s:g} A{i}, {t:g} A{j})", call, (s * a, t * b)


def test_scaled_finite_inputs_return_or_raise_a_named_error():
    # Each call on a finite input returns or raises an OperatorAnalysisError,
    # without numpy's RuntimeWarning, and a NonFinite names what it formed.
    matrices = [corpus_matrix(i, 5).matrix for i in range(20)]
    blamed = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # check_perturbation warns when a conclusion fails: reported data here
        warnings.simplefilter("ignore", UserWarning)
        for label, call, args in _scaled_calls(matrices):
            try:
                call(*args)
            except NonFinite as exc:
                if str(exc) == "matrix contains NaN or Inf entries":
                    blamed.append(label)
            except OperatorAnalysisError:
                pass
    assert not blamed


@pytest.mark.parametrize("entries", [[[None, 1.0], [1.0, 1.0]],
                                     np.array([[1.0, 2j], [None, 0.0]], dtype=object)])
def test_a_none_entry_is_named_not_blamed_as_nan(entries):
    # numpy reads None as NaN; the error names the entry the caller wrote.
    with pytest.raises(NonFinite, match="^matrix contains a None entry$"):
        classify(entries)
    with pytest.raises(NonFinite, match="^matrix contains NaN or Inf entries$"):
        classify([[float("nan"), 1.0], [1.0, 1.0]])


def test_hermitian_part_of_a_finite_matrix_does_not_overflow():
    # A + A* overflows in the sum, (A + A*) / 2 = diag(1.7e308, -1) does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert min_eigenvalue(np.diag([1.7e308, -1.0])) == -1.0
        # B B* = diag(1.69e308, 1) is finite, and A = 0 is majorized by any B.
        report = douglas_analysis(np.zeros((2, 2)), np.diag([1.3e154, 1.0]))
        # A* A = A A* = diag(1.44e308, 1) is PSD, read from a finite eigenvalue.
        checks = {check.condition_id: check for check in dagger_identities(
            np.diag([1.2e154, 1.0]))}
    assert report.contraction_ok is True
    for cid in ("gram_left_psd", "gram_right_psd"):
        assert checks[cid] == (cid, 0.0, True)
