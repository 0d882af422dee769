"""Exception hierarchy shared across the library."""


class ChernlabError(Exception):
    """Base class for all library errors."""


class ValidationError(ChernlabError):
    pass


class DivisionByZero(ChernlabError):
    pass


class IncompatibleField(ChernlabError):
    pass


class IncompatibleRing(ChernlabError):
    pass


class UnassignedVariable(ChernlabError):
    pass


class ResourceLimit(ChernlabError):
    pass


class NotSymmetric(ChernlabError):
    pass


class InfiniteDimensional(ChernlabError):
    """The complement of a leading-term ideal is provably infinite."""


class NotLocal(ChernlabError):
    pass


class NonIntegralCoefficient(ChernlabError):
    pass


class PrecisionExceeded(ValidationError):
    """A computation needs more of a formal group law than its precision holds."""


class DegreeCeiling(ResourceLimit):
    """A divisor or presentation degree above the supported ceiling."""


class LambdaOutOfRange(ChernlabError):
    pass


class InexactDivision(ChernlabError):
    pass


class NotACharacterTable(ValidationError):
    """Orthogonality or consistency failure in a character table."""


class NegativeStructureConstant(NotACharacterTable):
    pass


class InconsistentFusion(ChernlabError):
    pass


class UnknownGroup(ValidationError):
    pass


class NonIntegralMultiplicity(ChernlabError):
    pass


class NoMatchingClass(ChernlabError):
    pass


class SchemaError(ChernlabError):
    pass


class UsageError(ChernlabError):
    pass
