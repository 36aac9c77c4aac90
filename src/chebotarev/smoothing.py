"""Rosser-style smoothing weight, its Mellin transform, and transform bounds.

The sharp cutoff 1_[0,1] in a prime sum is replaced by a C^m weight h that
equals 1 on [0, alpha], descends along a polynomial ramp g((t-alpha)/delta)
on [alpha, alpha+delta], and vanishes beyond.  alpha is either 1-delta
(minorant) or 1 (majorant), so the smoothed sums sandwich the sharp one.

g is Rosser's m-fold average of box kernels; both g and the Mellin
transform H of h have closed forms.  Writing c = delta + 2(alpha-1)
(so c = +delta for the majorant and -delta for the minorant),

    H(s) = sum_{j=0..m} (-1)^(j+m) C(m,j) (1 + cj/m)^(m+s)
           / ((c/m)^m s(s+1)...(s+m)).

H has a single pole at s = 0 with residue 1; the apparent poles at
s = -1,...,-m cancel against zeros of the numerator.  Key facts used
downstream: H(1) = alpha + delta/2,

    |H(s)| <= M(delta,k) / (delta^k |s|^(k+1))   (0 < Re s <= 1, k <= m),
    |H(s)| <= (1-delta)^(Re s) / |s|             (Re s <= 0),

with the transform-size bound M(delta, m) given by `m_bound`.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DomainError, NumericError, PoleError

__all__ = ["Endpoint", "SmoothingParams", "weight_g", "weight_h", "mellin_H", "m_bound"]

# Below this distance from a cancelling zero/pole pair at s = -1..-m the
# ratio is evaluated by l'Hopital instead of direct division.
_REMOVABLE_EPS = 1e-8

# The largest order whose closed forms tests/test_smoothing.py shows to
# hold: the weight stays in [0, 1] to 1e-9 and H matches quadrature at
# delta = 0.45.  The alternating sums cancel more with each order: at
# m = 10 the weight leaves [0, 1] by 1.3e-9, at m = 60 it reaches 7.
# H also cancels more as delta shrinks; _MAX_SUM_ERROR bounds that.
_MAX_ORDER = 9

# The largest relative rounding error mellin_H lets its alternating sum
# carry, estimated as 2^-52 sum|term| / |sum term|.  The tests' inputs
# reach 1.2e-7 (m = 9, delta = 0.45, s = 1); H(1) at m = 8, delta = 0.1,
# off by 4e-4 against an mpmath integral, reaches 3.9e-4.
_MAX_SUM_ERROR = 1e-6


class Endpoint(enum.Enum):
    """Which endpoint of the sandwich the weight realizes."""

    LOWER = "lower"  # alpha = 1 - delta, h <= 1_[0,1]
    UPPER = "upper"  # alpha = 1,         h >= 1_[0,1]


@dataclass(frozen=True)
class SmoothingParams:
    m: int
    delta: float
    endpoint: Endpoint = Endpoint.UPPER

    def __post_init__(self) -> None:
        if not isinstance(self.endpoint, Endpoint):
            raise DomainError(f"endpoint must be an Endpoint, got {self.endpoint!r}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must lie in (0,1), got {self.delta}")
        if not (1 <= self.m <= _MAX_ORDER and self.m % 1 == 0):
            raise DomainError(f"the Rosser ramp needs an integer m in 1..{_MAX_ORDER}, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def alpha(self) -> float:
        return 1.0 if self.endpoint is Endpoint.UPPER else 1.0 - self.delta

    @property
    def ramp_scale(self) -> float:
        """c = delta + 2(alpha - 1); the signed ramp parameter."""
        return self.delta + 2.0 * (self.alpha - 1.0)


def weight_g(x: float, p: SmoothingParams) -> float:
    """The ramp profile g on [0,1]: g(x) = h(alpha + delta*x)."""
    return weight_h(p.alpha + p.delta * x, p)


def weight_h(t: float, p: SmoothingParams) -> float:
    """Evaluate the smoothing weight at t >= 0.

    h(t) = 1 for t <= alpha, g((t-alpha)/delta) on the ramp, 0 beyond
    alpha + delta.  The indicator in the closed form is taken half-open,
    1_(0,1); values on that measure-zero boundary set do not affect any
    integral, and the plateau/support values are pinned explicitly.
    """
    if not t >= 0:
        raise DomainError(f"t must be >= 0, got {t}")
    alpha, delta, m = p.alpha, p.delta, p.m
    if t <= alpha:
        return 1.0
    if t >= alpha + delta:
        return 0.0
    c = p.ramp_scale
    total = 0.0
    for j in range(m + 1):
        knot = 1.0 + c * j / m
        if 0.0 < t / knot < 1.0:
            total += (-1) ** (j + m) * math.comb(m, j) * ((knot - t) / (c / m)) ** m
    return total / math.factorial(m)


def mellin_H(s: complex, p: SmoothingParams) -> complex:
    """Closed-form Mellin transform H(s) = int_0^inf h(t) t^(s-1) dt.

    Valid in the whole plane by meromorphic continuation.  s = 0 is the
    one genuine pole; within 1e-8 of s = -1,...,-m the removable
    singularity is resolved by a first-order (l'Hopital) expansion.
    A value the closed form cannot resolve raises: NumericError where its
    alternating sum cancels past _MAX_SUM_ERROR (small delta, high m, or
    s just outside the l'Hopital band), DomainError where a power, the
    denominator or H leaves the doubles (very large |s|).
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    if abs(s) < _REMOVABLE_EPS:
        raise PoleError("H(s) has a pole at s = 0")
    m, c = p.m, p.ramp_scale

    knots = [1.0 + c * j / m for j in range(m + 1)]
    signs = [(-1) ** (j + m) * math.comb(m, j) for j in range(m + 1)]
    scale = (c / m) ** m

    near = next((j for j in range(1, m + 1) if abs(s + j) < _REMOVABLE_EPS), None)
    try:
        if near is None:
            terms = [sg * k ** (m + s) for sg, k in zip(signs, knots)]
            den = scale * math.prod(s + i for i in range(m + 1))
        else:
            # numerator and denominator both vanish at s = -near; take the
            # ratio of derivatives there
            terms = [sg * k ** (m + s) * math.log(k) for sg, k in zip(signs, knots)]
            den = scale * math.prod(complex(-near + i) for i in range(m + 1) if i != near)
        num = sum(terms)
        H = num / den
        finite = cmath.isfinite(den) and cmath.isfinite(H)
    except (OverflowError, ZeroDivisionError):  # a power or H past the doubles
        finite = False
    if not finite:
        raise DomainError(f"H({s}) overflows double precision at m={m}, delta={p.delta}")
    if not 2.0**-52 * sum(map(abs, terms)) <= _MAX_SUM_ERROR * abs(num):
        raise NumericError(
            f"H({s}) cancels past {_MAX_SUM_ERROR:g} relative error at m={m}, delta={p.delta}"
        )
    return H


def m_bound(delta: float, m: int) -> float:
    """Transform-size bound M(delta, m).

    M(delta, 0) = 1 + delta/2 and
    M(delta, m) = (m((1 + delta/m)^(m+1) + 1))^m for m >= 1, so that
    |H(s)| <= M(delta,k)/(delta^k |s|^(k+1)) holds for 0 < Re s <= 1 and
    every k = 0, ..., m.
    """
    if not 0 < delta < 1:
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    if not m >= 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if m == 0:
        return 1.0 + delta / 2.0
    try:
        bound = (m * ((1.0 + delta / m) ** (m + 1) + 1.0)) ** m
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise DomainError(f"M(delta, m) overflows double precision at delta={delta}, m={m}")
    return bound
