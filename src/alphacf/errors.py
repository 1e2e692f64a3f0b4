"""Exception types shared across the package."""


class AlphaCFError(Exception):
    """Base class for all library-specific errors."""


class AmbiguousFloor(AlphaCFError):
    """A ball straddles an integer, so its floor is undecided."""


class AmbiguousComparison(AlphaCFError):
    """Two float intervals overlap without coinciding exactly."""


class DivisionByZero(AlphaCFError, ZeroDivisionError):
    """Reciprocal of zero, or of an interval containing zero."""


class MixedRadicalError(AlphaCFError):
    """Arithmetic between surds with different radicands is not supported."""


class OutOfDomain(AlphaCFError):
    """Input outside the domain an operation is defined on."""


class OutOfRange(AlphaCFError):
    """Parameter outside the range a procedure is valid for."""


class PrecisionExhausted(AlphaCFError):
    """A ball's orbit is certified to fewer digits than were requested."""


class SingularPoint(AlphaCFError):
    """Evaluator called at a point where the function is singular (x = 0 mod 1)."""


class DivergesAtRational(AlphaCFError):
    """Infinite series requested at a rational point, where it diverges."""


class ExpansionTooShort(AlphaCFError):
    """An operation needs more digits than the expansion provides."""


class QuadratureFailure(AlphaCFError):
    """Mesh refinement did not stabilize the integral estimate."""


class DegenerateInterval(AlphaCFError):
    """Interval of nonpositive length."""
