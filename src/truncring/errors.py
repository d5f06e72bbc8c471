"""Exception types shared across the package."""


class CtxMismatch(ValueError):
    """Operands or contexts from incompatible rings were combined."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested in a field."""


class NotAUnit(ZeroDivisionError):
    """Multiplicative inverse of a non-unit requested."""


class UndefinedValuation(ArithmeticError):
    """Valuation of zero requested; only nonzero elements have one."""


class NotAQuotient(ValueError):
    """The two contexts are not related by a one-step quotient map."""


class TooLarge(ValueError):
    """Requested computation exceeds the supported desk scale."""


class SkippedChecks(TooLarge):
    """A verify suite ran, but some checks exceeded the desk scale.
    results holds every check's result, the skipped ones marked."""

    def __init__(self, message: str, results):
        super().__init__(message)
        self.results = results


class OutOfFamily(ValueError):
    """Parameter lies outside the range covered by the construction."""


class PolyParseError(ValueError):
    """Malformed polynomial string."""


class InvariantViolation(RuntimeError):
    """A structural identity that should hold unconditionally failed."""
