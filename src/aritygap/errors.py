"""Exception hierarchy shared by all aritygap modules."""


class ArityGapError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(ArityGapError, ValueError):
    """Value table does not have exactly k**n entries."""


class ValueOutOfRange(ArityGapError, ValueError):
    """A table entry or argument coordinate lies outside its range."""


class IndexOutOfRange(ArityGapError, IndexError):
    """A 1-based variable index is not in {1, ..., n}."""


class SameIndex(ArityGapError, ValueError):
    """Variable identification needs two distinct indices."""


class ArityMismatch(ArityGapError, ValueError):
    """A point's length differs from the function's arity."""


class EssentialArityTooSmall(ArityGapError, ValueError):
    """Operation needs at least two essential variables."""


class SpecInvalid(ArityGapError, ValueError):
    """A request is malformed: a generator spec that violates its structural
    constraints, or a sweep or check the verifier refuses (an unknown
    population, a count or worker number below 1, a sampled LemDeg2, a
    resampled Thm1 or one with b != k, a per-function check of Thm1)."""


class GammaNotSurjective(SpecInvalid):
    """Lift map gamma must cover every element of the base set."""


class PhiNotInjective(SpecInvalid):
    """Lift map phi must be injective."""


class HypothesisNotMet(ArityGapError, ValueError):
    """Input does not satisfy the hypothesis of the checked statement."""


class NotTotallyEssential(HypothesisNotMet):
    """Function must depend on all of its variables."""


class NotBoolean(HypothesisNotMet):
    """Operation is only defined for k = b = 2."""


class BudgetExceeded(ArityGapError):
    """Requested enumeration or table is larger than the configured budget."""


class ParseError(ArityGapError, ValueError):
    """Malformed function file."""
