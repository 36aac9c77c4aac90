"""Incomplete Bessel-type integrals and the tail constants ell_6, ell_7.

The sums over high zeros of zeta_L reduce, after partial summation against
the density kernel Q, to integrals

    I_{n,m}(alpha, beta; l) = int_l^inf (log(beta u))^(n-1) u^(-m-1)
                              e^(-alpha/log(beta u)) du,

which the substitution v = sqrt(m/alpha) log(beta u) turns into incomplete
modified Bessel integrals

    K_n(z, y) = (1/2) int_y^inf v^(n-1) e^(-(z/2)(v + 1/v)) dv.

bessel_K evaluates them with the standard library alone, by a trapezoid
rule in u = log(v - y) whose step halves until two sums agree to 1e-14.

For large z and y bounded away from 1 the Rosser-Schoenfeld estimate

    K_2(z, w) <= sqrt(pi/2) e^(-z)/sqrt(z) (1 + 15/(8z) + 105/(128 z^2))

applies; feeding it back through the reduction produces the two closed-form
constants ell_6 (tail sum at x = 1) and ell_7 (tail sum at large x).  They
live here rather than with ell_0..ell_5 because they are the only ones
consuming Bessel-regime parameters, which keeps the module graph acyclic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericError
from .zeros import ALPHA1, ALPHA2, ALPHA3, _bisect

__all__ = [
    "bessel_K",
    "bessel_I",
    "k2_upper_bound",
    "BesselArgs",
    "RegimeThreshold",
    "ell6",
    "ell7",
]

_TAIL_CUT = 1e-18  # the walk stops at this fraction of the peak term
_STEP_REL = 1e-14  # two successive trapezoid sums agree to this, relative


def bessel_K(n: float, z: float, y: float) -> float:
    """Incomplete Bessel integral K_n(z, y) by the trapezoid rule.

    In u, v = y + e^u, the integrand g(u) = (1/2) v^(n-1) e^(-(z/2)(v+1/v)) e^u
    has one peak and decays at least exponentially on both flanks, so
    trapezoid sums converge geometrically as the step halves.  They start at
    the peak with step 1/2, walk out until the terms fall below 1e-18 of the
    peak term, and halve the step until two sums agree to 1e-14 relative.  A
    value below the float range is 0.0; overflow, a walk past 4095 steps or
    sums apart after 12 halvings raise NumericError.
    """
    if not (n > 0 and z > 0):
        raise DomainError(f"need n > 0 and z > 0, got n={n}, z={z}")
    if not y >= 0:
        raise DomainError(f"y must be >= 0, got {y}")
    if y == math.inf:
        return 0.0  # an empty range

    def g(u: float) -> float:
        v = y + math.exp(u)
        return 0.5 * math.exp(u + (n - 1.0) * math.log(v) - 0.5 * z * (v + 1.0 / v))

    def rising(u: float) -> bool:  # d log g/du > 0; its one zero is the peak
        t = math.exp(u)
        v = y + t
        return t * (0.5 * z * (1.0 - 1.0 / (v * v)) - (n - 1.0) / v) < 1.0

    try:
        lo = _bisect(rising, -746.0, 710.0)[0]  # e^u over the whole float range
        h, cut = 0.5, _TAIL_CUT * g(lo)
        # steps out to either side until a term is at most cut; 0 if never
        ends = [next((k for k in range(1, 4096) if g(lo + k * s) <= cut), 0) for s in (-h, h)]
        if not all(ends):
            raise NumericError(f"K_{n}({z},{y}): the integrand does not decay")
        start, count = lo - ends[0] * h, sum(ends)
        total = math.fsum(h * g(start + k * h) for k in range(count + 1))
        for _ in range(12):
            new = 0.5 * total + math.fsum(0.5 * h * g(start + (k + 0.5) * h) for k in range(count))
            if abs(new - total) <= _STEP_REL * new:
                return new
            total, h, count = new, 0.5 * h, 2 * count
    except (OverflowError, ZeroDivisionError, ValueError):
        raise NumericError(f"K_{n}({z},{y}) is out of the float range") from None
    raise NumericError(f"K_{n}({z},{y}): the trapezoid sums did not settle")


def bessel_I(n: float, m: float, alpha: float, beta: float, l: float) -> float:
    """I_{n,m}(alpha, beta; l) via the K_n reduction:

    2 beta^m (alpha/m)^(n/2) K_n(2 sqrt(alpha m), sqrt(m/alpha) log(beta l)).
    Requires beta*l > 1 so the logarithm stays positive on the range.
    """
    if min(n, m, alpha, beta, l) <= 0:
        raise DomainError("all of n, m, alpha, beta, l must be positive")
    if beta * l <= 1.0:
        raise DomainError(f"need beta*l > 1, got beta*l = {beta * l}")
    z = 2.0 * math.sqrt(alpha * m)
    y = math.sqrt(m / alpha) * math.log(beta * l)
    return 2.0 * beta**m * (alpha / m) ** (n / 2.0) * bessel_K(n, z, y)


def k2_upper_bound(z: float) -> float:
    """Rosser-Schoenfeld bound on K_2(z, w), uniform in w on [0, sqrt(1/2))."""
    return math.sqrt(math.pi / 2.0) * math.exp(-z) / math.sqrt(z) * (
        1.0 + 15.0 / (8.0 * z) + 105.0 / (128.0 * z * z)
    )


@dataclass(frozen=True)
class BesselArgs:
    """Arguments (z_m, w_m) of the K_2 factor in the zero-tail bound:

    z_m = 2 sqrt(m log x / R_{2,L}),  w_m = sqrt(m R_{2,L}/log x) log(Delta_L T),

    with R_{2,L} = R_2 n_L.  The exponential-decay regime needs
    w_m < sqrt(m/(m+1)), equivalently log x > X_{L,m,T}.
    """

    z_m: float
    w_m: float

    @classmethod
    def from_parameters(
        cls, m: int, R2_L: float, log_delta_L: float, T: float, log_x: float
    ) -> "BesselArgs":
        if log_x <= 0 or R2_L <= 0 or T <= 0:
            raise DomainError("log_x, R2_L and T must be positive")
        z = 2.0 * math.sqrt(m * log_x / R2_L)
        w = math.sqrt(m * R2_L / log_x) * (log_delta_L + math.log(T))
        return cls(z, w)

    def in_decay_regime(self, m: int) -> bool:
        return self.w_m < math.sqrt(m / (m + 1.0))


@dataclass(frozen=True)
class RegimeThreshold:
    """The large-x threshold X_{L,m,T} = (m+1) R_{2,L} log^2(Delta_L T) and
    the turning ordinate W = Delta_L^(-1) exp(sqrt(log x/(R_{2,L}(m+1)))).

    log x > X_{L,m,T} holds iff W > T: both express that the zero-density
    integrand is already decreasing at the truncation height T.
    """

    X_LmT: float
    W_log: float  # log W; W itself can overflow for large log x

    @classmethod
    def from_parameters(
        cls, m: int, R2_L: float, log_delta_L: float, T: float, log_x: float
    ) -> "RegimeThreshold":
        if T <= 0:
            raise DomainError(f"T must be positive, got {T}")
        lg = log_delta_L + math.log(T)
        X = (m + 1.0) * R2_L * lg * lg
        W_log = -log_delta_L + math.sqrt(log_x / (R2_L * (m + 1.0)))
        return cls(X, W_log)

    def large_x(self, log_x: float) -> bool:
        return log_x > self.X_LmT

    def W_exceeds(self, T: float) -> bool:
        return self.W_log > math.log(T)


def ell6(m: int, M: float, T0: float) -> float:
    """Tail-sum constant at x = 1:

        S_L(m, T, 1) <= ell6 (log d_L) (log T)/T^m   for T >= T0 > 4.

    ell6 = (M + 1/log T0)/(m pi) + 2 M alpha1/T0
           + (2 alpha1 + M (alpha1/(m+1) + 2 alpha2 + alpha3))/(T0 log T0).
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if T0 <= 4:
        raise DomainError(f"T0 must exceed 4, got {T0}")
    lt = math.log(T0)
    return (
        (M + 1.0 / lt) / (m * math.pi)
        + 2.0 * M * ALPHA1 / T0
        + (2.0 * ALPHA1 + M * (ALPHA1 / (m + 1.0) + 2.0 * ALPHA2 + ALPHA3)) / (lt * T0)
    )


def ell7(
    m: int,
    M: float,
    R2: float,
    T0: float,
    omega0: float,
    x0_log: float,
    n0: int,
) -> float:
    """Tail-sum constant in the large-x regime:

        S_L(m, T, x) <= ell7 Delta_L^m sqrt(n_L) (log x)^(3/4)
                        e^(-2 sqrt(m log x/(R_2 n_L)))

    for T >= T0, x >= x_0 and log x > X_{L,m,T}.  Two terms: the turning-
    point contribution (visible through (log x0)^(-1/4) and the exponential
    margin ((2m+1)/sqrt(m+1) - 2 sqrt(m)) sqrt((m+1)(1/M + log T0))), and
    the Rosser-Schoenfeld remainder of the K_2 integral.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if T0 <= 4:
        raise DomainError(f"T0 must exceed 4, got {T0}")
    if x0_log <= 0:
        raise DomainError(f"x0_log must be positive, got {x0_log}")
    if n0 < 2:
        raise DomainError(f"n0 must be >= 2, got {n0}")
    lt = math.log(T0)
    margin = ((2 * m + 1) / math.sqrt(m + 1.0) - 2.0 * math.sqrt(m)) * math.sqrt(
        (m + 1.0) * (1.0 / M + lt)
    )
    first = (omega0 / (math.pi * math.sqrt(R2 * (m + 1.0)))) * x0_log ** (-0.25) * math.exp(-margin)
    second = (2.0 * n0 ** (-0.25) / (math.sqrt(math.pi) * m**1.25 * R2**0.75)) * (
        1.0
        + 15.0 / (16.0 * math.sqrt(m * (m + 1.0)) * (1.0 / M + lt))
        + 105.0 / (512.0 * m * (m + 1.0) * (1.0 / M + lt) ** 2)
    )
    return first + second
