"""Exception types shared across the package."""


class CartanVPError(Exception):
    """Base class for all package errors."""


class ParseError(CartanVPError):
    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DivisionByZeroError(CartanVPError):
    """A denominator is identically zero, or evaluates within 1e-12 of zero."""


class UnboundVariableError(CartanVPError):
    """Evaluation met a variable with no assigned value."""


class UnboundFunctionError(UnboundVariableError):
    """Evaluation met an opaque function atom with no interpretation."""


class ChartMismatchError(CartanVPError):
    """Operands live on different coordinate charts."""


class DegreeMismatchError(CartanVPError):
    pass


class ZeroEtaError(CartanVPError):
    """The two-step differential of the action form vanishes identically."""


class NonConstantRankError(CartanVPError):
    """Sampled ranks of a coefficient matrix differ across certification points."""

    def __init__(self, message, witnesses=None):
        self.witnesses = witnesses or []
        super().__init__(message)


class UnequalGeneratorDegreesError(CartanVPError):
    pass


class NormalFormRequiredError(CartanVPError):
    pass


class ImproperPrincipleError(CartanVPError):
    pass


class RankDeficientLError(CartanVPError):
    """The fiber block of a factor set has deficient rank."""


class UndecidedPivotError(CartanVPError):
    """An elimination left a pivot candidate that no zero test certifies."""


class NotClosedError(CartanVPError):
    pass


class NonPolynomialCoefficientError(CartanVPError):
    pass


class EvaluationFailureError(CartanVPError):
    """Numeric integration hit a point where a component cannot be evaluated."""


class BoxExitError(CartanVPError):
    def __init__(self, message, point=None):
        self.point = point
        super().__init__(message)


class TangencyViolationError(CartanVPError):
    def __init__(self, message, point=None):
        self.point = point
        super().__init__(message)


class ResidualTooLargeError(CartanVPError):
    def __init__(self, message, node=None, value=None):
        self.node = node
        self.value = value
        super().__init__(message)


class NonTransversalDistributionError(CartanVPError):
    pass


class InvariantViolationError(CartanVPError):
    """A mathematical self-check of the package failed: a result it has
    just computed does not satisfy the identity that defines it."""


class ExpansionLimitError(CartanVPError):
    """A power of a sum would expand to more terms than `symexpr` allows."""
