"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class ZeroInverse(AlgebraError):
    """Inversion of the zero rational function."""


class SingularEvaluation(AlgebraError):
    """Evaluation point has a zero parameter or kills a denominator."""


class SingularSpecialization(AlgebraError):
    """Parameter substitution makes a denominator vanish identically."""


class GeneratorMismatch(AlgebraError):
    """A polynomial mentions generators the presentation does not declare."""


class NonOrientable(AlgebraError):
    """A relation whose maximal words tie cannot be turned into a rule."""


class ZeroRelation(AlgebraError):
    """The zero polynomial carries no orientation."""


class InconsistentConvention(AlgebraError):
    """A plane-map derivation is ill-posed: its source plane is not
    confluent, a source relation mixes parities under the Koszul
    convention, or a constraint collapsed to a nonzero scalar (1 = 0)."""


class DegreeCapExceeded(AlgebraError):
    """An intermediate word grew past the configured length cap, or an
    input coefficient past its degree-span or integer-size bound."""


class CompletionOverflow(AlgebraError):
    """Bounded completion hit the rule cap without reaching confluence."""


class ShapeMismatch(AlgebraError):
    """Matrix dimensions do not fit the requested operation."""


class NotLocalized(AlgebraError):
    """The operation needs declared inverses that the presentation lacks."""


class NotHomogeneous(AlgebraError):
    """Span comparison requires homogeneous degree-2 inputs."""


class ExprSyntaxError(AlgebraError):
    """Malformed input text; carries the character position of the fault, if any."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(AlgebraError):
    """Expression names a generator absent from the selected presentation."""


class NegativePowerOfNonInvertible(AlgebraError):
    """Negative exponent on a generator with no declared inverse."""
