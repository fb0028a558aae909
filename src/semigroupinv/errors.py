"""Exception hierarchy for the semigroup inversion library.

Validation failures (bad inputs, malformed specs) and numerical failures
(overflow of exponential amplification, non-converged quadrature) are kept
in separate branches so the CLI can map them to distinct exit codes.  Every
module shares the checks here: ranges, counts, the exponent limit, budgets
and finite results.
"""

import math
import operator

import numpy as np


class SemigroupInvError(Exception):
    """Base class for all library errors."""


class ValidationError(SemigroupInvError):
    """Input violates a documented precondition; ``budget`` is set when it asked for more than a budget."""

    def __init__(self, message, budget=None):
        super().__init__(message)
        self.budget = budget


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


# -- quoted input ---------------------------------------------------------------

# Most characters of a user's input, or of a converter's message about it,
# that an error message quotes: a 16 MiB field or line must not become a
# 16 MB error.json.  numpy's 158-character message on a ragged array fits.
QUOTE_CHARS = 160


def clip(text: str) -> str:
    """``text`` as an error message quotes it: its first ``QUOTE_CHARS`` characters and a count of the rest."""
    if len(text) <= QUOTE_CHARS:
        return text
    return f"{text[:QUOTE_CHARS]}... ({len(text) - QUOTE_CHARS} more characters)"


# -- parameters and their ranges ---------------------------------------------------

_REQUIRED = object()


def check_param(params: dict, key: str, convert, default=_REQUIRED, label="model parameter"):
    """``convert(params[key])``, or ``default`` only when ``key`` is absent.

    A missing required key, or a value ``convert`` rejects, raises :class:`InvalidConfig` naming ``label`` and the key.
    """
    if key not in params:
        if default is _REQUIRED:
            raise InvalidConfig(f"{label} {key!r} is required")
        return default
    try:
        return convert(params[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{label} {key!r}: {clip(str(exc))}") from None


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
        raise error(f"{name} must be an integer, got {clip(repr(value))}") from None
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


def check_finite(values, what: str):
    """``values``, or :class:`OverflowRisk` saying that ``what`` left double range when one is inf or NaN.

    Callers form ``values`` under ``np.errstate(over="ignore")``, so that an
    overflow reaches this check instead of a RuntimeWarning.
    """
    if not np.isfinite(values).all():
        raise OverflowRisk(f"{what} left double range")
    return values


def check_budget(what: str, count, budget: int) -> None:
    """Raise ``ValidationError("<count> <what> exceed the budget of <budget>")`` past ``budget``.

    A float count (a panel count, possibly inf) is shown without decimals.
    """
    if count > budget:
        shown = f"{count:.0f}" if isinstance(count, float) else count
        raise ValidationError(f"{shown} {what} exceed the budget of {budget}", budget)
