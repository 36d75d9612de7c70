"""Exception types shared across the package.

Hard failures (bad inputs, singular systems, diverging solvers) raise; a
certificate whose hypotheses merely fail to hold is *returned* with its
validity flag cleared instead, so sweeps over many targets can aggregate
failures without try/except noise.
"""


class MestcertError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(MestcertError, ValueError):
    """Raised for malformed inputs: non-finite entries, shape mismatches,
    out-of-range parameters."""


class SingularMatrixError(MestcertError):
    """Raised when a linear system is singular to working tolerance.

    Carries the magnitude of the smallest pivot encountered during the
    factorization, which is the quantity the singularity test is based on.
    """

    def __init__(self, message, smallest_pivot=0.0):
        super().__init__(message)
        self.smallest_pivot = float(smallest_pivot)


class ConvergenceError(MestcertError):
    """Raised when an iterative solver stalls or exhausts its iteration
    budget. ``residual`` is the residual norm where it stopped, when known;
    ``iterations`` is set only when the budget ran out."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateRiskSetError(MestcertError):
    """Raised when a survival risk set carries no positive mass at an
    observed event time."""


class RankDeficientError(MestcertError):
    """Raised when a constraint matrix fails its full-row-rank requirement."""


class InfeasiblePointError(MestcertError):
    """Raised when a supposed feasible point violates its equality
    constraints beyond tolerance."""
