"""Exception types shared across the package."""


class SeqmeasError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SeqmeasError):
    """Operands live on Hilbert spaces of different (or unsupported) dimension."""


class NotPositive(SeqmeasError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotEffect(SeqmeasError):
    """Spectrum falls outside [0, 1] beyond tolerance."""


class NotState(SeqmeasError):
    """Not a unit-trace positive operator."""


class WeightError(SeqmeasError):
    """Convex weights are negative or do not sum to one."""


class ConditioningOnNull(SeqmeasError):
    """Conditional probability requested on an event of (numerically) zero probability."""


class NotPerp(SeqmeasError):
    """Sum of effects (or of induced effects) exceeds the identity."""


class NotSubunital(SeqmeasError):
    """Kraus operator A has A†A > I, so AρA† would not be trace-nonincreasing."""


class NotProjection(SeqmeasError):
    """Matrix is not idempotent within tolerance."""


class NotOrthogonal(SeqmeasError):
    """Projection family is not pairwise orthogonal."""


class NotChannel(SeqmeasError):
    """Kraus family is not trace-preserving."""


class NotSurjective(SeqmeasError):
    """Outcome relabeling is not a total surjection."""


class UnknownLaw(SeqmeasError):
    """Requested law id is not registered."""


class SamplingError(SeqmeasError):
    """Rejection sampling found no acceptable sample within its draw budget."""


class EigenConvergenceError(SeqmeasError):
    """Jacobi sweep cap exceeded (should not happen for Hermitian input at dim <= 8)."""


class NotOperation(SeqmeasError):
    """An operation argument is not an ``Operation``."""


class NotMeasure(SeqmeasError):
    """A measure argument is not an ``Observable`` or ``Instrument`` (or not the one required)."""
