"""Exception types shared across the package."""


class FusionError(Exception):
    """Base class for all errors raised by this package."""


class NonSquare(FusionError):
    """An input matrix is not square or the matrix list is inconsistent."""


class NegativeEntry(FusionError):
    """A structure constant is negative."""


class NoUnit(FusionError):
    """The first basis element does not act as the unit."""


class NoDuality(FusionError):
    """The unit row of the tensor does not define a matching."""


class BadInvolution(FusionError):
    """The derived duality map is not an involution fixing the unit."""


class RankTooLarge(FusionError):
    """The requested operation exceeds its configured rank cap."""


class NotIntegral(FusionError):
    """Operation defined only for integral rings was called on a non-integral one."""


class NotCommutative(FusionError):
    """Operation requires a commutative ring/algebra."""


class DegenerateSpectrum(FusionError):
    """Joint eigenvector validation failed after all random re-draws."""


class NormalizationFailure(FusionError):
    """A candidate projection could not be rescaled to an idempotent."""


class SideMismatch(FusionError):
    """Element arithmetic mixed the two algebra sides."""


class BadExponent(FusionError):
    """A norm exponent outside [1, inf] was requested."""


class InfeasibleParams(FusionError):
    """Family parameters violate their feasibility constraints."""


class UnboundedSearch(FusionError):
    """Search constraints do not bound the enumeration."""


class InvalidSearchResult(FusionError):
    """The search emitted a tensor that fails the fusion-ring axioms: a
    defect in the search itself, not in its input."""


class SearchTimeout(FusionError):
    """A search exceeded its node or wall-time budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(FusionError):
    """Malformed ring file."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(FusionError):
    """A parsed ring failed structural validation."""
