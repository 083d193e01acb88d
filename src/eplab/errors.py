"""Exception types shared across the library."""


class OperatorAnalysisError(Exception):
    """Base class for all errors raised by eplab."""


class NonFinite(OperatorAnalysisError):
    """A matrix contains NaN or Inf entries."""


class BadShape(OperatorAnalysisError, ValueError):
    """An input is not a 2-D matrix with at least one row and one column."""


class ConvergenceFailure(OperatorAnalysisError):
    """An iterative decomposition (SVD, eigensolver) failed to converge."""


class DimensionMismatch(OperatorAnalysisError):
    """Operands live in incompatible spaces."""


class NotSquare(OperatorAnalysisError):
    """A square matrix was required (EP / hypo-EP are endomorphism notions)."""


class SourceNotEP(OperatorAnalysisError):
    """An operation required an EP input and classification said otherwise."""


class SourceNotHypoEP(OperatorAnalysisError):
    """An operation required a hypo-EP input and classification said otherwise."""


class SolveFailure(OperatorAnalysisError):
    """A restricted linear solve was numerically singular or inconsistent."""


class BadSpec(OperatorAnalysisError):
    """An operator generation recipe is malformed or incomplete."""


class ParseError(OperatorAnalysisError):
    """A matrix or spec file could not be parsed."""
