"""Exception types shared across the package, and the value check that raises
`InputError` where a config value enters."""

import math
from numbers import Integral, Real


class MsvddError(Exception):
    """Base class for all package errors."""


class InputError(MsvddError, ValueError):
    """Malformed or inconsistent user input (bad dimensions, bad grids, parse errors)."""


# (kind, ok, what) rules for `checked`, shared by every config taking such a value
COUNT = (Integral, lambda v: v >= 1, "an integer >= 1")
INTEGER = (Integral, lambda v: True, "an integer")
PENALTY = (Real, lambda v: 0 < v < math.inf, "a finite number > 0")
FRACTION = (Real, lambda v: 0 < v <= 1, "a number in (0, 1]")
TIME_LIMIT = ((Real, type(None)), lambda v: v is None or v >= 0, "None or a number >= 0")


def checked(name, value, kind, ok=lambda v: True, what="a value"):
    """``value`` if it is a ``kind`` that is ``ok``; otherwise an `InputError`
    that names ``name``, so a wrongly typed value is refused, not coerced."""
    if not (isinstance(value, kind) and ok(value)):
        raise InputError(f"{name} must be {what}, got {value!r}")
    return value


class ParseError(InputError):
    """Text input that cannot be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleSubproblemError(MsvddError):
    """The capped simplex {0 <= a <= C, sum a = 1} is empty for the requested sphere."""


class SolverFailure(MsvddError):
    """A solve could not be completed."""


class ConvergenceError(SolverFailure):
    """The duality gap did not close: the iteration cap was hit, or no pair
    step was left to take.

    Carries the smallest certified gap the solve reached, which callers
    report when they give up.
    """

    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap


class UndefinedMetricError(MsvddError):
    """A metric was requested on degenerate input (e.g. single-class AUC)."""
