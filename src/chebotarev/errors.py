"""Exception types shared across the package, and the two argument rules
that raise them.

`integer` states what an integer argument is: an int, a numpy integer or
an integral float such as 2.0 or 1e6, but never a bool, returned as a
Python int within its bounds.  `finite` states when an answer has left
the doubles: an OverflowError, a ZeroDivisionError or a non-finite value.
Both raise DomainError, so every input gives either a finite answer or a
usage error.  This module imports only math and operator, so every
command can load it without numpy.
"""

import math
import operator


class DomainError(ValueError):
    """An argument is outside the domain a formula is stated for."""


class PoleError(DomainError):
    """Evaluation requested at a genuine pole."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or lost its bracket."""


class SearchError(NumericError):
    """A constrained parameter search found no admissible point."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured resource limit."""


def integer(n: object, what: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """n as a Python int in lo..hi.  Anything else (True, 10.5, a NaN, an
    infinity, '5', or an integer out of bounds) is a DomainError."""
    try:
        value = int(n) if isinstance(n, float) and n.is_integer() else operator.index(n)
    except TypeError:  # a str, None, a fractional or non-finite float, a numpy bool
        value = None
    if value is None or isinstance(n, bool) or not lo <= value <= hi:
        bounds = "" if (lo, hi) == (-math.inf, math.inf) else f" from {lo:.4g} to {hi:.4g}"
        raise DomainError(f"{what} must be an integer{bounds}, got {n!r}")
    return value


def finite(compute, what: str) -> float:
    """compute(), if it is a finite double.  An answer that overflows,
    divides by zero or comes out infinite or NaN is a DomainError."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"{what} is not finite in double precision")
