"""Exception taxonomy.

Everything raised by this package derives from HerglotzError, so callers can
catch one base class. The CLI maps subclasses onto exit codes: configuration
and parse problems -> 2, numerical failures -> 3.
"""

from __future__ import annotations


class HerglotzError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionError(HerglotzError):
    """Base class for expression parsing and evaluation errors."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionError):
    """Identifier outside the fixed variable and function sets."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (byte offset {offset})")
        self.name = name
        self.offset = offset


class UnboundVariable(ExpressionError):
    """Evaluation hit a variable with no value bound to it."""

    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not bound")
        self.name = name


class InvalidBinding(ExpressionError):
    """A bound value is NaN or infinite."""


class DomainError(HerglotzError):
    """Real-valued evaluation left its domain (log/sqrt of a negative,
    division by zero, zero to a negative power, negative base with a
    fractional exponent)."""


class NonDifferentiable(DomainError):
    """Derivative requested exactly at a kink (abs at 0, sqrt at 0)."""


class NonFinite(HerglotzError):
    """A numerical stage produced NaN or infinity."""


class BadInterval(HerglotzError):
    """Grid construction inputs violate a < b, 0 <= tau < b - a, or n >= 2;
    or the grid is too fine for an interval midpoint to lie inside its
    interval; or n is too coarse for a check: a report has every sample
    excluded."""


class DelayNotAligned(HerglotzError):
    """tau is not an integer multiple of the grid step."""


class OutOfDomain(HerglotzError):
    """Evaluation time outside the domain of definition."""


class InvalidTrajectory(HerglotzError):
    """Trajectory construction data is inconsistent (gaps, jumps, bad sizes,
    a boundary between pieces that is not a grid node), or a trajectory is
    read on a grid other than the problem's."""


class FixedNode(HerglotzError):
    """Attempt to perturb a pinned node (history segment or the endpoint)."""


class BadGuess(HerglotzError):
    """Explicit solver seed violates the pinned nodes."""


class ConfigError(HerglotzError):
    """Problem configuration file is missing keys, has bad types or values."""
