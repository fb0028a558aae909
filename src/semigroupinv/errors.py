"""Exception hierarchy for the semigroup inversion library.

Validation failures (bad inputs, malformed specs) and numerical failures
(overflow of exponential amplification, non-converged quadrature) are kept
in separate branches so the CLI can map them to distinct exit codes.  Every
module shares the checks here: ranges, counts, the exponent limit, budgets.
"""

import math
import operator


class SemigroupInvError(Exception):
    """Base class for all library errors."""


class ValidationError(SemigroupInvError):
    """Input violates a documented precondition."""


class NumericalError(SemigroupInvError):
    """A computation cannot be carried out in double precision."""


# -- validation -------------------------------------------------------------

class NonPositiveWeight(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class NotMSymmetric(ValidationError):
    pass


class NegativeEigenvalue(ValidationError):
    """The generator is not negative semi-definite beyond tolerance."""


class NonFiniteFunctionValue(ValidationError):
    """A spectral function evaluated to nan/inf on the spectrum."""


class NegativeTime(ValidationError):
    pass


class NonPositiveAlpha(ValidationError):
    pass


class DegeneratePhi(ValidationError):
    """A regularising multiplier is not strictly positive on the spectrum."""


class InvalidBoundary(ValidationError):
    pass


class NonPositiveSigma(ValidationError):
    pass


class AsymmetricKernel(ValidationError):
    pass


class RowMassExceeded(ValidationError):
    pass


class InvalidConfig(ValidationError):
    """Malformed run configuration (CLI / JSON schema)."""


class ExpressionParseError(ValidationError):
    """Error in the restricted function-literal grammar.

    Carries the character position at which parsing failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- numerical --------------------------------------------------------------

class OverflowRisk(NumericalError):
    """A value exceeds double range; carries the base-10 exponent instead.

    ``log10_value`` estimates log10 of the quantity that could not be
    represented, so callers can report the magnitude without producing inf.
    """

    def __init__(self, message, log10_value=None):
        if log10_value is not None:
            message = f"{message} (log10 ~ {log10_value:.6g})"
        super().__init__(message)
        self.log10_value = log10_value


class QuadratureNotConverged(NumericalError):
    """Panel refinement was exhausted before the tolerance was met."""

    def __init__(self, message, error_estimate=None):
        if error_estimate is not None:
            message = f"{message} (error estimate {error_estimate:.3g})"
        super().__init__(message)
        self.error_estimate = error_estimate


class ConditioningCapExceeded(NumericalError):
    """The inversion integral would need amplification beyond the cap."""

    def __init__(self, message, exponent=None):
        if exponent is not None:
            message = f"{message} (growth exponent {exponent:.6g})"
        super().__init__(message)
        self.exponent = exponent


# -- parameter ranges ---------------------------------------------------------

def check_range(name, value, low=0.0, high=math.inf, *, closed=False, error=ValidationError) -> float:
    """``float(value)`` when low < value < high, or low <= value < high when ``closed``.

    Anything else raises ``error`` naming the parameter: NaN always, and
    +-inf under the default ``high``.
    """
    number = float(value)
    if (low <= number if closed else low < number) and number < high:
        return number
    if high < math.inf:
        bounds = f"lie in {'[' if closed else '('}{low:g}, {high:g})"
    else:
        bounds = f"be finite and {'>=' if closed else '>'} {low:g}"
    raise error(f"{name} must {bounds}, got {value}")


def check_count(name, value, low, *, error=ValidationError) -> int:
    """``value`` as an ``int`` when it is an integer >= low; anything else raises ``error``.

    A float is refused even when it is whole: numpy sizes and ``range``
    take only integers.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    check_range(name, count, low, closed=True, error=error)
    return count


# -- numerical limits ---------------------------------------------------------

# Largest exponent x whose exp(x) is taken: e^700 ~ 1e304, inside double range.
MAX_EXPONENT = 700.0

# Largest (times x states) table a trajectory or the Picard iterates build:
# 32 MB of doubles, and about 100 MB more as trajectory CSV text.
MAX_TRAJECTORY_CELLS = 4_000_000


def check_exponent(exponent: float, message: str) -> None:
    """Raise :class:`OverflowRisk` with ``message`` unless exponent <= ``MAX_EXPONENT`` (NaN raises)."""
    if not exponent <= MAX_EXPONENT:
        raise OverflowRisk(message, log10_value=exponent / math.log(10.0))


def check_budget(what: str, count, budget: int) -> None:
    """Raise ``ValidationError("<count> <what> exceed the budget of <budget>")`` past ``budget``.

    A float count (a panel count, possibly inf) is shown without decimals.
    """
    if count > budget:
        shown = f"{count:.0f}" if isinstance(count, float) else count
        raise ValidationError(f"{shown} {what} exceed the budget of {budget}")
