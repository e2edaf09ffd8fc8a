"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration and schema
problems exit 1, correlation-peak acquisition failures exit 2, and
gap-related series problems exit 3.
"""

from __future__ import annotations

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
