"""Exception hierarchy shared by all modules."""


class PolyaGibbsError(Exception):
    """Base class for all library errors."""


class SpecError(PolyaGibbsError):
    """Malformed species specification (parse error, bad constructor use)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class PreconditionError(PolyaGibbsError):
    """An operation's stated precondition was violated."""


class TailNotControlled(PreconditionError):
    """Empirical term ratios do not stabilise below 1; no tail bound."""


class InsufficientData(PreconditionError):
    """Too few usable coefficients for a windowed estimate."""


class InnerHasConstantTerm(PreconditionError):
    """Inner series of a composition has a nonzero constant term."""


class InnerNotSubexponential(PreconditionError):
    """Inner generating series is polynomial (or otherwise outside scope)."""


class IllFoundedRecursion(SpecError):
    """Recursive species definition does not increase size."""

    def __init__(self, message="recursive definition does not increase size"):
        super().__init__(message)


class SizeGuardExceeded(PreconditionError):
    """Exhaustive enumeration requested beyond the configured size guard."""


class EmptySize(PreconditionError):
    """No objects of the requested size exist."""


class ZeroMass(PreconditionError):
    """A sampling distribution has zero total mass."""


class RejectionBudgetExceeded(PolyaGibbsError):
    """Rejection sampler exhausted its attempt budget."""


class KeyMismatch(PreconditionError):
    """Empirical law contains keys outside the exact law's key space."""
