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
POSITIVE = (Real, lambda v: 0 < v < math.inf, "a finite number > 0")
FRACTION = (Real, lambda v: 0 < v <= 1, "a number in (0, 1]")
NOISE_LEVEL = (Real, lambda v: 0 < v < 0.5, "a number in (0, 0.5)")
TIME_LIMIT = ((Real, type(None)), lambda v: v is None or v >= 0, "None or a number >= 0")
FLAG = (bool, lambda v: True, "true or false")
PATH = (str, lambda v: v != "", "a nonempty string")


def _fits(value, kind, ok) -> bool:
    """Whether ``value`` is a ``kind`` that is ``ok``; a bool fits only a
    ``kind`` that names bool, though Python counts it an integer."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return (bool in kinds or not isinstance(value, bool)) and isinstance(value, kind) and ok(value)


def each(rule, size=None):
    """The rule for a list of values that each follow ``rule``: ``size`` of
    them, or any number when ``size`` is None."""
    kind, ok, what = rule
    count = "" if size is None else f"{size} "
    return ((list, tuple),
            lambda vs: size in (None, len(vs)) and all(_fits(v, kind, ok) for v in vs),
            f"a list of {count}entries, each {what}")


# the train, val and test shares of a labelled dataset
SPLIT_FRACTIONS = ((list, tuple), lambda vs: each(FRACTION, 3)[1](vs) and abs(sum(vs) - 1) <= 1e-9,
                   "three numbers in (0, 1] summing to 1")


def checked(name, value, kind, ok=lambda v: True, what="a value"):
    """``value`` if it is a ``kind`` that is ``ok``; otherwise an `InputError`
    that names ``name``, so a wrongly typed value is refused, not coerced."""
    if not _fits(value, kind, ok):
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
