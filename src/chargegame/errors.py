"""Exception types shared across the package, the field checks that config
and report ingestion raise them with, and the rule for non-finite numbers."""

import math
import numbers

import numpy as np


class ChargeGameError(Exception):
    """Base class for all package errors."""


class SpecError(ChargeGameError, ValueError):
    """A game instance, flow or profile violates a structural invariant."""


class DomainError(ChargeGameError, ValueError):
    """A cost function was evaluated outside its validity interval."""


class UndefinedAverageError(ChargeGameError, ValueError):
    """An average cost or gradient was requested for a zero-mass group."""


class BracketingError(ChargeGameError, ArithmeticError):
    """A root bracket failed to enclose a sign change.

    Raised by the closed-form solver when the stationarity function does
    not change sign on its guaranteed bracket, which signals that the cost
    family violates the convex/increasing shape requirements.
    """


class NumericsError(ChargeGameError, ArithmeticError):
    """A numerical computation produced non-finite values."""


def _quiet() -> np.errstate:
    """A fresh float-error state that ignores overflow, division by zero and
    invalid operations, as a context manager or a decorator: a non-finite
    result is judged by :func:`_finite`, so numpy's warnings on the way to
    it would be noise."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _finite(values, what: str = "strategy costs encountered"):
    """``values``, a float or a list or array of them, or a NumericsError
    when one is not finite: f or f' overflowed somewhere on the way.  By
    default ``values`` are strategy costs or their gaps, and a profile whose
    costs are not finite is no result."""
    # The ufunc reduction skips ndarray.all's Python-level wrapper.
    if not np.logical_and.reduce(np.isfinite(values), None):
        raise NumericsError(f"non-finite {what}; check the cost family scale")
    return values


def _tolerance(what: str, tol: float) -> None:
    """Raise a SpecError naming ``what`` unless the tolerance ``tol`` is a
    real number other than NaN: a check against NaN would fail (or pass)
    every value silently, one against a string or None would raise a raw
    TypeError, and a bool would be read as 1 or 0.  An infinite tolerance
    is a number, which every check passes."""
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and not math.isnan(tol)):
        raise SpecError(f"{what} must be a number, got {tol!r}")


class _FieldError(SpecError):
    """A config or report field has the wrong type, value or keys.

    The message names the field; the CLI prefixes the kind of input
    (``malformed config:`` or ``malformed report:``).
    """


def _check(field: str, value, want: str, ok: bool):
    """Return ``value``, or raise the field error for ``field``."""
    if not ok:
        raise _FieldError(f"{field} must be {want}, got {value!r}")
    return value


def _is_number(value) -> bool:
    # JSON booleans are Python ints, but no number field takes one.
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _numbers(what: str, values) -> np.ndarray:
    """``values`` as a float array, or a SpecError naming ``what``.  A list
    or tuple must hold numbers by :func:`_is_number`, or non-finite floats,
    for which the callers word their own message: a string, None, a bool, an
    array or a nested list is none, as in a config.  Any other input is read
    by numpy, and must give an array of integers or floats."""
    if isinstance(values, (list, tuple)):
        ok = all(_is_number(v) or (isinstance(v, float) and not math.isfinite(v)) for v in values)
    else:
        ok = np.asarray(values).dtype.kind in "iuf"
    if not ok:
        raise SpecError(f"{what} must be numbers, got {values!r}")
    return np.asarray(values, dtype=float)


def _is_integer(value, minimum: int) -> bool:
    """Whether ``value`` is a finite whole number >= ``minimum``, not a bool."""
    return _is_number(value) and value == int(value) and value >= minimum


def _real(field: str, value) -> float:
    return float(_check(field, value, "a finite number", _is_number(value)))


def _known_keys(field: str, given: dict, keys) -> None:
    """Raise the field error for ``field`` if ``given`` has a key not in ``keys``."""
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise _FieldError(f"{field} has unknown keys {unknown}; accepted: {sorted(keys)}")
