"""eplab: numerical analysis of EP and hypo-EP operators.

Moore-Penrose pseudoinverses with independent verification, EP / hypo-EP
classification through every equivalent condition, Douglas range-inclusion
and factorization checks, perturbation-stability analysis, and finite
sections of classical operator examples.
"""

__version__ = "0.1.0"

from .core import (DEFAULT_TOL, ConditionCheck, SubspaceBasis, SvdFactors,
                   TolerancePolicy, adjoint, as_matrix, min_eigenvalue,
                   null_basis, numerical_rank, op_norm, projector, range_basis,
                   subspace_equal, subspace_included, svd, svdvals)
from .pinv import PenroseReport, dagger_identities, penrose_verify, pinv
from .classify import (ClassificationReport, FactorC, classify,
                       construct_factor_c, ep_closure_suite, gamma,
                       majorization_witness, modulus)
from .douglas import DouglasReport, closed_range_panel, douglas_analysis
from .perturb import PerturbationReport, check_perturbation, generate_admissible
from .zoo import (CorpusEntry, ExpectedTraits, Expectation, Family,
                  OperatorSpec, SweepPoint, ZooReport, corpus_matrix,
                  gamma_sweep, generate)
from .matio import read_matrix, write_matrix
from . import errors

__all__ = [
    "DEFAULT_TOL", "ConditionCheck", "SubspaceBasis", "SvdFactors",
    "TolerancePolicy", "adjoint", "as_matrix", "min_eigenvalue", "null_basis",
    "numerical_rank", "op_norm", "projector", "range_basis", "subspace_equal",
    "subspace_included", "svd", "svdvals",
    "PenroseReport", "dagger_identities", "penrose_verify", "pinv",
    "ClassificationReport", "FactorC", "classify",
    "construct_factor_c", "ep_closure_suite", "gamma", "majorization_witness",
    "modulus",
    "DouglasReport", "closed_range_panel", "douglas_analysis",
    "PerturbationReport", "check_perturbation", "generate_admissible",
    "CorpusEntry", "ExpectedTraits", "Expectation", "Family", "OperatorSpec",
    "SweepPoint", "ZooReport", "corpus_matrix", "gamma_sweep", "generate",
    "read_matrix", "write_matrix",
    "errors",
    "__version__",
]
