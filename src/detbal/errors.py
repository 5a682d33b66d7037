"""Exception types shared across the toolkit."""


class DetbalError(Exception):
    """Base class for every error about the data the package checks; a bad
    call parameter raises ValueError."""


class DimensionMismatch(DetbalError):
    """Operands have incompatible or non-square shapes."""


class NotHermitian(DetbalError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotDensity(DetbalError):
    """Input fails the density-matrix contract (trace, Hermiticity or positivity)."""


class NotInvertible(DetbalError):
    """A matrix required to be strictly positive definite has an eigenvalue at or below the floor."""


class NonUnitary(DetbalError):
    """A matrix required to be unitary is not, beyond tolerance."""


class NotInvolutive(DetbalError):
    """The candidate reversing operation does not square to the identity."""


class InputNotDynamics(DetbalError):
    """The channel handed to a balance check is not completely positive and unital."""


class NotStochastic(DetbalError):
    """Classical chain data violates positivity or row normalization;
    argument names the offending input, "p" or "gamma"."""

    def __init__(self, argument: str, reason: str):
        self.argument = argument
        super().__init__(f"{argument} {reason}")


class SchemaError(DetbalError):
    """A problem file does not conform to the JSON schema."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
