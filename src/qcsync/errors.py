"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration and schema
problems exit 1, correlation-peak acquisition failures exit 2, and
gap-related series problems exit 3.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "QcsyncError",
    "ConfigurationError",
    "SchemaError",
    "ContractViolation",
    "NoPeakError",
    "AcquisitionError",
    "EmptySeriesError",
    "GapError",
    "GapRateError",
]


class QcsyncError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(QcsyncError):
    """A config value, argument or scenario violates its contract."""


class SchemaError(ConfigurationError):
    """Scenario document failed validation.

    ``issues`` is a list of ``(field_path, message)`` tuples.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.issues)
        super().__init__(f"invalid scenario: {lines}")


class ContractViolation(QcsyncError):
    """Caller broke an input contract (e.g. unsorted timestamp arrays)."""


class NoPeakError(QcsyncError):
    """No histogram bin rises above the background threshold."""


class AcquisitionError(QcsyncError):
    """Coarse correlation-window search found no usable peak."""


class EmptySeriesError(QcsyncError):
    """No epoch produced a usable clock-difference sample."""


class GapError(QcsyncError):
    """Series contains gaps where a gap-free series is required."""


class GapRateError(QcsyncError):
    """Fraction of gap epochs exceeds the configured tolerance."""


def number(name, value, low=None, high=None, above=False, integer=False, optional=False):
    """``value`` as a plain ``float``, or ``int`` when ``integer`` is set: the
    one rule for every config number and numeric argument.

    Refused with a ConfigurationError whose message starts with ``name``: a
    bool, a value that is not real (or not integral, with ``integer``),
    None unless ``optional`` (then None is returned), NaN, infinities, an
    integer beyond the float range, and a value below ``low`` (at or below
    it with ``above``) or above ``high``.  Nothing is rounded or parsed.
    """
    if value is None and optional:
        return None
    kind = numbers.Integral if integer else numbers.Real
    if not isinstance(value, bool) and isinstance(value, kind):
        try:
            result = int(value) if integer else float(value)
            finite = math.isfinite(result)
        except OverflowError:
            raise ConfigurationError(f"{name} must lie within the float range") from None
        if (
            finite
            and (low is None or (result > low if above else result >= low))
            and (high is None or result <= high)
        ):
            return result
    bounds = ""
    if low is not None and high is not None:
        bounds = f" in [{low}, {high}]"
    elif low is not None:
        bounds = f" {'>' if above else '>='} {low}"
    elif high is not None:
        bounds = f" <= {high}"
    wanted = ("an integer" if integer else "a finite number") + bounds
    raise ConfigurationError(f"{name} must be {wanted}{' or None' if optional else ''}: {value!r}")


def store_number(obj, name, **rule):
    """Replace field ``name`` of the (possibly frozen) dataclass ``obj`` by
    ``number(name, value, **rule)`` of its value."""
    object.__setattr__(obj, name, number(name, getattr(obj, name), **rule))
