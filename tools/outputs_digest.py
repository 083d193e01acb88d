"""Print one sha256 per output family of eplab.

A change meant to keep every byte the program emits the same runs this
on the parent checkout and on its own and compares the lines; a family
whose line differs names what changed.  Run from the root of a checkout::

    python3 tools/outputs_digest.py

It takes no flags and imports eplab from the ``src`` of its own checkout.
Run as a script, it pins the BLAS to one thread before numpy loads, as
``perfbench/run.py`` does for its children, because some bytes depend on
the thread count; imported, it changes no environment.  Every ``.mtx``
file is read and written through scipy, so the digests hold for one
numpy, scipy and BLAS build and one thread count; it writes those to
standard error and two digests compare only when they match.  Each line
of standard output is ``<sha256>  <family>``.  The families:

- the propsuite documents of ``--count 1000 --seed 0`` and of
  ``--count 200 --tol-subspace 1e-15``, with their exit codes;
- the deterministic zoo sections for n 1..64 and 96..192, random zoo
  sections, and ``corpus_matrix(i, 0)`` for i < 2000, as raw bytes;
- the rank rule: the rank of each of those corpus matrices' full SVD and
  its ``gamma``, under the default policy, ``rank_rel=1e-6`` and
  ``rank_abs=1e-3``;
- the subspaces of fixed same-size corpus pairs ``(A, B)``: the bytes of
  the basis and complement of ``range_basis`` and ``null_basis`` of ``A``,
  and the ``subspace_equal`` and ``subspace_included`` checks between the
  range bases and between the null bases of ``A`` and ``B``, at the
  default tolerances and at ``subspace_tol=1e-15``;
- the ``eplab sweep`` tables of the deterministic families;
- ``eplab classify``, ``pinv`` (its document and the written A+),
  ``douglas`` (its document and the factor C written by ``--factor-out``)
  and ``perturb`` over fixed same-size corpus pairs, each at the default
  tolerances and at ``--tol-subspace 1e-15``;
- the identities: the ``penrose_verify(m, pinv(m))``, ``dagger_identities``
  and ``closed_range_panel`` records of both matrices of each of those
  pairs, at the default tolerances and at ``subspace_tol=1e-15``;
- the constructions on the ``A`` of each of those pairs: the bytes of
  ``generate_admissible(A, 0.5, index)`` and of the ``construct_factor_c``
  record, or the text of what each raised;
- ``eplab classify`` of an EP, a closed-range and an exactly Hermitian
  matrix and ``eplab perturb`` of the EP one and an admissible
  perturbation, at n 64 and 128, where the SVDs of ``A*`` and ``A+`` run
  on a thread of the analysis's own;
- the ``eplab zoo`` documents and the matrix files they write, for every
  deterministic family at a few sizes and two random specs;
- the ``NonFinite`` messages of fixed cases, in two families: non-finite
  inputs and report values, the pseudoinverse's ``1/sigma_r`` and two
  Douglas pairs with entries past 1e154, whose majorization gap must not
  overflow; and what overflows, or must not, from finite input
  (the Gram matrices, ``A + B``, ``A x``, the witness's ``z`` and its
  norms, the products of a Penrose candidate, the Douglas factor ``C``,
  the products ``A+ A*+`` and ``A*+ A+``, the 2-norm ``sigma_1``, the
  Hermitian part of ``min_eigenvalue`` and the root of ``modulus``).

A CLI output is its exit code, standard output, standard error, the
warnings it raised and the bytes of every file it wrote.  The commands run
in-process, in a temporary directory, under relative file names, so no
digest depends on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eplab import (TolerancePolicy, check_perturbation, classify,  # noqa: E402
                   closed_range_panel, cli, construct_factor_c, corpus_matrix, dagger_identities,
                   douglas_analysis, ep_closure_suite, gamma, generate, generate_admissible,
                   majorization_witness, min_eigenvalue, modulus, null_basis, penrose_verify,
                   pinv, range_basis, subspace_equal, subspace_included, write_matrix)
from eplab.core import _Operand, as_matrix  # noqa: E402
from eplab.reports import dump_document  # noqa: E402
from eplab.zoo import DETERMINISTIC_FAMILIES, Family, OperatorSpec  # noqa: E402

PROPSUITE_RUNS = (["--count", "1000", "--seed", "0"],
                  ["--count", "200", "--tol-subspace", "1e-15"])
ZOO_SIZES = (*range(1, 65), *range(96, 193))
ZOO_CLI_SIZES = (2, 3, 8)
LARGE_SIZES = (64, 128)
CORPUS_COUNT = 2000
PAIR_COUNT = 48
TOLERANCES = ([], ["--tol-subspace", "1e-15"])
RANK_POLICIES = (TolerancePolicy(), TolerancePolicy(rank_rel=1e-6),
                 TolerancePolicy(rank_abs=1e-3))
SUBSPACE_POLICIES = (TolerancePolicy(), TolerancePolicy(subspace_tol=1e-15))


def _sha256(items) -> str:
    """sha256 of ``items``, each as its bytes (``repr`` unless bytes), NUL-separated."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(item if isinstance(item, bytes) else repr(item).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _matrix(arr: np.ndarray) -> tuple:
    return arr.shape, str(arr.dtype), arr.tobytes()


def _caught(call, *args):
    """``(outcome, warnings)`` of ``call(*args)``: its value, or the name and
    text of what it raised, and the text of each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call(*args)
        except Exception as exc:  # the digest records every failure by its text
            outcome = f"{type(exc).__name__}: {exc}"
    return outcome, [f"{w.category.__name__}: {w.message}" for w in caught]


def _run(argv: list[str], written: tuple[str, ...] = ()) -> tuple:
    """One in-process ``eplab`` command in the current directory: its exit
    code, stdout, stderr, warnings and the bytes of the files ``written``,
    which are deleted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, caught = _caught(cli.main, argv)
    files = []
    for name in written:
        path = Path(name)
        files.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return argv, code, out.getvalue(), err.getvalue(), caught, files


@contextlib.contextmanager
def _scratch_directory():
    """Run the block in a new temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(cwd)


def propsuite() -> dict[str, str]:
    with _scratch_directory():
        return {f"propsuite {' '.join(flags)}": _sha256(_run(["propsuite", *flags]))
                for flags in PROPSUITE_RUNS}


def zoo_sections() -> str:
    specs = [OperatorSpec(family, n) for family in DETERMINISTIC_FAMILIES for n in ZOO_SIZES
             if (family, n) != (Family.FOURIER_DERIVATIVE, 1)]
    specs += [OperatorSpec(family, n, rank, seed)
              for family in (Family.RANDOM_CLOSED_RANGE, Family.RANDOM_EP)
              for n in range(1, 33) for rank in sorted({0, n // 2, n}) for seed in (0, n)]
    return _sha256((spec, *_matrix(matrix), traits)
                   for spec in specs for matrix, traits in [generate(spec)])


def corpus_matrices() -> str:
    return _sha256((entry.label, *_matrix(entry.matrix))
                   for entry in map(corpus_matrix, range(CORPUS_COUNT)))


def rank_rule() -> str:
    """The full-SVD rank and ``gamma`` of each corpus matrix under each policy."""
    return _sha256((index, tol, _Operand(entry.matrix, tol).rank, gamma(entry.matrix, tol))
                   for index, entry in enumerate(map(corpus_matrix, range(CORPUS_COUNT)))
                   for tol in RANK_POLICIES)


def sweep() -> str:
    sizes = ",".join(map(str, ZOO_SIZES))
    with _scratch_directory():
        return _sha256(_run(["sweep", family.value, "--sizes", sizes])
                       for family in DETERMINISTIC_FAMILIES
                       if family is not Family.FOURIER_DERIVATIVE)


def _pairs(count: int):
    """``count`` pairs ``(index, A, B)`` of same-size corpus matrices: each
    corpus matrix is paired with the next one of its size."""
    waiting, index = {}, 0
    while count:
        a = corpus_matrix(index).matrix
        first = waiting.pop(a.shape, None)
        if first is None:
            waiting[a.shape] = a
        else:
            yield index, first, a
            count -= 1
        index += 1


def subspaces() -> str:
    """The range and null bases of each pair's ``A``, and the equality and
    inclusion checks between the bases of ``A`` and ``B``, under each policy."""
    items = []
    for (index, a, b), tol in itertools.product(_pairs(PAIR_COUNT), SUBSPACE_POLICIES):
        for split in (range_basis, null_basis):
            p, q = split(a, tol), split(b, tol)
            items += [index, tol, *_matrix(p.basis), *_matrix(p.complement),
                      subspace_equal(p, q, tol), subspace_included(p, q, tol),
                      subspace_included(q, p, tol)]
    return _sha256(items)


def analyses() -> dict[str, str]:
    """The CLI outputs of every pair, by command."""
    runs = {"classify": [], "pinv": [], "douglas": [], "perturb": []}
    with _scratch_directory():
        for index, a, b in _pairs(PAIR_COUNT):
            suffix = (".json", ".mtx")[index % 2]
            names = {"a": a, "b": b}
            admissible, _ = _caught(generate_admissible, a, 0.5, index)
            if isinstance(admissible, np.ndarray):
                names["adm"] = admissible
            for name, matrix in names.items():
                write_matrix(name + suffix, matrix)
            a_file, b_file, c_file = "a" + suffix, "b" + suffix, "c" + suffix
            for flags in TOLERANCES:
                runs["classify"].append(_run(["classify", a_file, *flags]))
                runs["pinv"].append(_run(["pinv", a_file, "--out", "p" + suffix, *flags],
                                         written=("p" + suffix,)))
                runs["douglas"].append(_run(["douglas", a_file, b_file, *flags]))
                runs["douglas"].append(_run(["douglas", a_file, b_file, "--factor-out", c_file,
                                             *flags], written=(c_file,)))
                runs["perturb"].append(_run(["perturb", a_file, b_file, *flags]))
                if "adm" in names:
                    adm_file = "adm" + suffix
                    runs["douglas"].append(_run(["douglas", adm_file, a_file, "--factor-out",
                                                 c_file, *flags], written=(c_file,)))
                    runs["perturb"].append(_run(["perturb", a_file, adm_file, *flags]))
            for name in names:
                os.unlink(name + suffix)
    return {f"cli {command}": _sha256(outputs) for command, outputs in runs.items()}


def identities() -> dict[str, str]:
    """The Penrose, dagger and panel records of both matrices of every pair,
    by tolerance."""
    def records(m, tol):
        return (_caught(lambda: penrose_verify(m, pinv(m, tol), tol)),
                _caught(dagger_identities, m, tol), _caught(closed_range_panel, m, tol))

    return {" ".join(["identities", *flags]): _sha256(
        (index, *records(m, tol)) for index, a, b in _pairs(PAIR_COUNT) for m in (a, b))
        for flags, tol in zip(TOLERANCES, SUBSPACE_POLICIES)}


def constructions() -> str:
    """The bytes of ``generate_admissible(A, 0.5, index)`` and of the
    ``construct_factor_c`` record of each pair's ``A``, or the text of what
    each raised."""
    items = []
    for index, a, _ in _pairs(PAIR_COUNT):
        admissible, adm_warnings = _caught(generate_admissible, a, 0.5, index)
        factor, factor_warnings = _caught(construct_factor_c, a)
        if not isinstance(admissible, str):
            admissible = _matrix(admissible)
        if not isinstance(factor, str):
            factor = (*_matrix(factor.c), factor.residual_factorization)
        items += [index, admissible, adm_warnings, factor, factor_warnings]
    return _sha256(items)


def large_analyses() -> str:
    """The CLI outputs of ``classify`` and ``perturb`` on large inputs,
    matrix files alternately dense JSON and Matrix Market."""
    runs = []
    with _scratch_directory():
        for index, n in enumerate(LARGE_SIZES):
            rng = np.random.default_rng(n)
            ep = generate(OperatorSpec(Family.RANDOM_EP, n, 3 * n // 4, n))[0]
            herm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            names = {"ep": ep, "adm": generate_admissible(ep, 0.5, n),
                     "cr": generate(OperatorSpec(Family.RANDOM_CLOSED_RANGE, n, n // 2, n))[0],
                     "herm": herm + herm.conj().T}
            suffix = (".json", ".mtx")[index % 2]
            for name, matrix in names.items():
                write_matrix(name + suffix, matrix)
            runs += [_run(["classify", name + suffix]) for name in ("ep", "cr", "herm")]
            runs.append(_run(["perturb", "ep" + suffix, "adm" + suffix]))
            for name in names:
                os.unlink(name + suffix)
    return _sha256(runs)


def zoo_documents() -> str:
    """The ``eplab zoo`` outputs, matrix files alternately dense JSON and
    Matrix Market."""
    specs = [{"family": family.value, "n": n}
             for family in DETERMINISTIC_FAMILIES for n in ZOO_CLI_SIZES]
    specs += [{"family": Family.RANDOM_CLOSED_RANGE.value, "n": 5, "rank": 2, "seed": 1},
              {"family": Family.RANDOM_EP.value, "n": 4, "rank": 3, "seed": 7}]
    runs = []
    with _scratch_directory():
        for index, spec in enumerate(specs):
            name = "z" + (".json", ".mtx")[index % 2]
            runs.append(_run(["zoo", json.dumps(spec), "--out", name], written=(name,)))
    return _sha256(runs)


_INF, _NAN = float("inf"), float("nan")


def non_finite_messages() -> str:
    """Non-finite inputs and report values, an overflowing ``1/sigma_r`` and
    the Douglas pairs past 1e154, which are decided."""
    cases = [
        (as_matrix, [[1.0, _NAN]]),
        (majorization_witness, np.diag([1.0, 2.0]), [_INF, 0.0]),
        (douglas_analysis, np.diag([1e200, 3.0]), np.diag([1e200, 1.0])),
        (douglas_analysis, np.diag([1e200, 1e200]), np.diag([1e200, 1e200])),
        (dump_document, {"report": {"bound_k": _INF, "a": 1.0}}),
        (dump_document, {"report": {"c": {"re": [1.5, _NAN], "im": [-_INF]}}}),
        (dump_document, [{"x": [0.0, [np.float64(-np.inf)]]}]),
        (dump_document, {"b": [1.0, 2.0, _NAN, _INF], "a": {"z": -_INF}}),
    ]
    with _scratch_directory():
        write_matrix("tiny.json", [[1e-310]])
        write_matrix("i.json", np.eye(2))
        write_matrix("small.json", 1e-200 * np.eye(2))
        write_matrix("thin.json", np.diag([1.0, 1e-14]))
        write_matrix("huge.json", np.diag([1e300, 0.0]))
        runs = [_run(["pinv", "tiny.json", "--out", "p.json"], written=("p.json",)),
                _run(["classify", "tiny.json"]),
                _run(["douglas", "i.json", "small.json"]),
                _run(["perturb", "thin.json", "huge.json"])]
    return _sha256([*(_caught(*case) for case in cases), *runs])


def overflow_messages() -> str:
    """Finite inputs whose analysis forms a Gram matrix, ``A + B``, ``A x``,
    the witness's ``z``, a norm of the witness, a product of a Penrose
    candidate, the Douglas factor ``C``, ``A+ A*+`` or the 2-norm
    ``sigma_1`` past the float range, and finite
    inputs whose Hermitian part, modulus, witness bound or witness norm is
    finite although a sum, norm or reciprocal on the way to it is not."""
    big = np.diag([1e200, 3.0])
    norm_past_range = np.full((3, 3), 1.5e308)
    cases = [
        (majorization_witness, np.diag([1e200, 1e200]), [1e200, 1e200]),
        (majorization_witness, np.array([[1.0, 1e5], [0.0, 1e-5]]), [1e300, 1e300]),
        (majorization_witness, np.eye(2), [1e200, 1e200]),
        (dagger_identities, big),
        (closed_range_panel, big),
        (ep_closure_suite, big),
        (check_perturbation, np.diag([1.5e308, 1.0]), np.diag([1.5e308, 0.0])),
        (penrose_verify, np.diag([1e200, 1.0]), np.diag([1e200, 1.0])),
        (classify, norm_past_range),
        (majorization_witness, np.eye(2), [1.5e308, 1.5e308]),
        (majorization_witness, np.diag([1.0, 0.0]), [1.5e308, 1.5e308]),
        (min_eigenvalue, np.diag([1.7e308, -1.0])),
        (douglas_analysis, np.zeros((2, 2)), np.diag([1.3e154, 1.0])),
        (dagger_identities, np.diag([1.2e154, 1.0])),
        (modulus, np.full((2, 2), 1e308)),
        (modulus, np.diag([1.5e308, 1.0])),
        (majorization_witness, np.eye(2), [1e-320, 0.0]),
        (douglas_analysis, 1e150 * np.eye(2), 1e-160 * np.eye(2)),
        (dagger_identities, 1e-200 * np.diag([1.0, 2.0])),
    ]
    with _scratch_directory():
        write_matrix("a.json", np.diag([1.5e308, 1.0]))
        write_matrix("b.json", np.diag([1.5e308, 0.0]))
        write_matrix("big.json", norm_past_range)
        write_matrix("eye.json", np.eye(3))
        write_matrix("zero.json", np.zeros((2, 2)))
        write_matrix("b154.json", np.diag([1.3e154, 1.0]))
        write_matrix("a150.json", 1e150 * np.eye(2))
        write_matrix("b160.json", 1e-160 * np.eye(2))
        runs = [_run(["perturb", "a.json", "b.json"]),
                _run(["classify", "big.json"]),
                _run(["pinv", "big.json", "--out", "p.json"], written=("p.json",)),
                _run(["douglas", "big.json", "big.json"]),
                _run(["perturb", "eye.json", "big.json"]),
                _run(["douglas", "zero.json", "b154.json"]),
                _run(["douglas", "a150.json", "b160.json"])]
    return _sha256([*(_caught(*case) for case in cases), *runs])


def digests() -> dict[str, str]:
    """Every family's sha256, by family name, in a fixed order."""
    return {**propsuite(), "zoo sections": zoo_sections(),
            "corpus matrices": corpus_matrices(), "rank rule": rank_rule(),
            "subspaces": subspaces(), "sweep": sweep(), **analyses(), **identities(),
            "constructions": constructions(), "cli large classify perturb": large_analyses(),
            "cli zoo": zoo_documents(),
            "nonfinite messages": non_finite_messages(),
            "overflow messages": overflow_messages()}


def build_setting() -> str:
    """The numpy, scipy and BLAS builds and the BLAS thread settings the
    digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_ENV)
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}, "
            f"{threads}, {os.cpu_count()} CPUs")


def main() -> int:
    print(build_setting(), file=sys.stderr)
    for family, digest in digests().items():
        print(f"{digest}  {family}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
