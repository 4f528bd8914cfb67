"""Exception types shared across the package."""


class DunklJacobiError(Exception):
    """Base class for all package-specific errors."""


class PoleAtZero(DunklJacobiError, ZeroDivisionError):
    """Evaluation of a Laurent polynomial with negative powers at x = 0."""


class NegativePowerResidue(DunklJacobiError):
    """Operator application left uncancelled negative powers of x.

    Produced only by operators outside the classified family; for any
    operator built from the closed-form coefficient family the negative
    powers cancel identically.
    """


class DegenerateSpectrum(DunklJacobiError):
    """A repeated or vanishing eigenvalue blocks the eigen-solve."""

    def __init__(self, n, message):
        super().__init__(message)
        self.n = n


class ParameterRange(DunklJacobiError, ValueError):
    """Parameters outside the admissible (positive-weight) regime."""


class NotSymmetrizableError(DunklJacobiError):
    """Operator has a derivative term that rules out a real symmetry factor."""


class NotCanonicalizable(DunklJacobiError):
    """No scaling exists that brings the operator to the reference form."""


class UnsupportedWeight(DunklJacobiError):
    """Weight is not in the positive-integrable family needed here."""


class UnsupportedPoint(DunklJacobiError, ValueError):
    """Point outside the natural domain of a weight function."""


class NonIntegrable(DunklJacobiError):
    """Weight exponents make the integral diverge."""


class OutOfFloatRange(DunklJacobiError, OverflowError):
    """A constant that a float computation needs lies beyond float64 range."""


class InternalConsistencyError(DunklJacobiError):
    """A cross-check contradicted a hard-coded verdict or an exact identity."""
