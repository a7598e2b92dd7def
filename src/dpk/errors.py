"""Exception types shared across the package."""


class DpkError(Exception):
    """Base class for every error raised by this package."""


class AlignmentError(DpkError):
    """Block grids cannot be reconciled (period does not divide head size)."""


class NonFiniteEntry(DpkError):
    """A matrix or vector contains NaN or infinite entries."""


class NotInDpk(DpkError):
    """Operand is not a diagonal-plus-compact model element."""


class NotInvertible(DpkError):
    pass


class NotUnitary(DpkError):
    pass


class NotPositive(DpkError):
    pass


class NotProjection(DpkError):
    pass


class NotComparable(DpkError):
    """Two projections do not have matching tail patterns."""


class OracleMismatch(DpkError):
    """Two independent computation routes disagreed; signals a bug."""


class ModelViolation(DpkError):
    """An outcome the model provably excludes occurred; signals a bug."""


class IndexNotZero(DpkError):
    pass


class InsufficientRoom(DpkError):
    pass


class NotConjugate(DpkError):
    pass


class ModelLimitation(DpkError):
    """The pair is conjugate in the ambient theory but not by model words."""


class BadResidue(DpkError):
    pass


class NotInBall(DpkError):
    pass


class StepTooLarge(DpkError):
    pass


class KindMismatch(DpkError):
    pass


class NotOrthogonalPatterns(DpkError):
    pass


class NotDpkAutomorphism(DpkError):
    pass


class ConfigError(DpkError):
    pass


class IoError(DpkError):
    pass


class NoConvergence(DpkError):
    """Iterative solver failed to reach its tolerance.

    Carries the iteration count and last residual so callers can report the
    failure instead of masking it.
    """

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
