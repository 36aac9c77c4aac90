"""Incomplete Bessel-type integrals behind the zero-tail constants.

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
constants ell_6 (tail sum at x = 1) and ell_7 (tail sum at large x), which
constants.py computes with the other ell's.  This module holds the lemma
checks of that chain: K_n, I_{n,m}, the K_2 bound and the regime
conditions.  No CLI command imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# perfbench/worker.py's traced probe still imports the tail constants from here
from .constants import ell6, ell7  # noqa: F401
from .errors import DomainError, NumericError, finite, integer
from .zeros import _bisect

__all__ = ["bessel_K", "bessel_I", "k2_upper_bound", "BesselArgs", "RegimeThreshold"]

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
    return finite(lambda: 2.0 * beta**m * (alpha / m) ** (n / 2.0) * bessel_K(n, z, y),
                  f"I_{n},{m}({alpha}, {beta}; {l})")


def k2_upper_bound(z: float) -> float:
    """Rosser-Schoenfeld bound on K_2(z, w), uniform in w on [0, sqrt(1/2))."""
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    # z * z can fall below the doubles
    return finite(lambda: math.sqrt(math.pi / 2.0) * math.exp(-z) / math.sqrt(z) * (
        1.0 + 15.0 / (8.0 * z) + 105.0 / (128.0 * z * z)
    ), f"the K_2 bound at z={z}")


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
        m = integer(m, "m", 1)
        if not (log_x > 0 and R2_L > 0 and T > 0) or math.isnan(log_delta_L):
            raise DomainError("log_x, R2_L and T must be positive, log_delta_L a number")
        return cls(finite(lambda: 2.0 * math.sqrt(m * log_x / R2_L), "z_m"),
                   finite(lambda: math.sqrt(m * R2_L / log_x) * (log_delta_L + math.log(T)), "w_m"))

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
        m = integer(m, "m", 0)
        if not (T > 0 and R2_L > 0 and log_x >= 0) or math.isnan(log_delta_L):
            raise DomainError("T and R2_L must be positive, log_x >= 0, log_delta_L a number")
        lg = log_delta_L + math.log(T)
        return cls(finite(lambda: (m + 1.0) * R2_L * lg * lg, "X_LmT"),
                   finite(lambda: -log_delta_L + math.sqrt(log_x / (R2_L * (m + 1.0))), "log W"))

    def large_x(self, log_x: float) -> bool:
        return log_x > self.X_LmT

    def W_exceeds(self, T: float) -> bool:
        return self.W_log > math.log(T)
