import os
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab.perturb import generate_admissible
from eplab.zoo import Family, OperatorSpec, corpus_matrix, generate, random_ep


@pytest.fixture(scope="session")
def corpus1000():
    """The seeded 1000-matrix mixed-family corpus used by the acceptance suite."""
    return [corpus_matrix(i, seed=0) for i in range(1000)]


@pytest.fixture(scope="session")
def ep200():
    """200 seeded EP-by-construction matrices (n in 2..32, varying rank)."""
    out = []
    for i in range(200):
        n = 2 + (i % 31)
        rank = 1 + (i % n)
        spec = OperatorSpec(family=Family.RANDOM_EP, n=n, rank=rank, seed=1000 + i)
        matrix, _ = generate(spec)
        out.append(matrix)
    return out


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def douglas_cases():
    """``(name, A, B)`` for each outcome of inclusion R(A) <= R(B) and AA* <= BB*."""
    a = random_ep(6, 4, np.random.default_rng(0))
    b = generate_admissible(a, 0.5, 1)
    return [
        ("included_majorized", b, a),
        ("included_not_majorized", a @ (3.0 * np.eye(6)), a),
        ("not_included_not_majorized", np.diag([0.0, 1.0]), np.diag([1.0, 0.0])),
        ("not_included_majorized", np.diag([0.0, 1e-5]), np.diag([1.0, 0.0])),
    ]


def child_env(**extra):
    """The environment of a child interpreter that imports this checkout's
    eplab: ``os.environ`` with ``extra`` added and the source tree first on
    PYTHONPATH."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(Path(eplab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
