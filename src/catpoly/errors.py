"""Exception hierarchy shared by all catpoly modules."""


class CatpolyError(Exception):
    """Base class for all catpoly errors."""


class NotCatalan(CatpolyError):
    """Sequence violates the Catalan word invariants.

    ``position`` is the first offending 0-based index.
    """

    def __init__(self, position, message=None):
        self.position = position
        super().__init__(message or f"not a Catalan word (violation at index {position})")


class UsageError(CatpolyError, ValueError):
    """A flag or argument outside its range: the CLI's usage error (exit 2)."""


class EmptyWord(CatpolyError):
    """Statistic requested on the empty word."""


class ResourceLimit(CatpolyError):
    """Requested size exceeds a configured limit or the packed key fields."""


class NotInDomain(CatpolyError):
    """Bijection applied to a word outside its domain."""


class OrderMismatch(CatpolyError):
    """Series operands disagree on their order, or a coefficient past it is read."""


class NonUnitDivisor(CatpolyError):
    """``mpoly.invert`` of a polynomial whose scalar term is not 1 or -1."""


class InternalInconsistency(CatpolyError):
    """An exactness guard failed (inexact monomial division, nonvanishing
    low-order coefficients, ...).  Signals a transcription error rather
    than silently corrupting output."""
