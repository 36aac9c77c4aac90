"""The error constants ell_0..ell_7 and the master aggregate Y_0.

Each ell_i bounds one contribution to the smoothed prime-sum error
(ramified primes, low zeros, the exceptional-zero window, medium zeros,
and so on) uniformly over a Minkowski row, once the free parameters are
fixed.  ell_6 and ell_7 bound the sum over high zeros, at x = 1 and at
large x; they are closed forms that bessel's Rosser-Schoenfeld estimate
for K_2 justifies, and call no Bessel integral.  Y_0 folds all eight
ell's into a single constant so the whole error reads

    delta/a_beta0 + Y_0 delta^(-m) lambda_L (log x) e^(-2 sqrt(m log x/(R2 n_L))).

Every constant is built at smoothing order m = 1 with anchors omega0 = 1
and T0 = t0 = 40, as in the paper; TuningConfig holds these as class
constants, so a configuration is just a row, a beta_0 state and delta0.
The beta_0 state also fixes the zero-free-region values a_beta0 and
alpha4, which TuningConfig derives from it.

x_0 here is astronomically large (log x_0 is the stored quantity); every
factor of the form x_0^(-a) e^(c sqrt(log x_0)) is therefore evaluated as
exp(-a log x_0 + c sqrt(log x_0)) so that underflow to zero happens in one
well-understood place instead of silently inside a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

from .errors import DomainError, finite, integer
from .invariants import MinkowskiRow
from .smoothing import m_bound
from .zeros import ALPHA1, ALPHA2, ALPHA3, R1, R2, alpha0, alpha0_prime

__all__ = ["TuningConfig", "EllConstants", "alpha_coefficient", "ell_low", "ell6", "ell7",
           "compute_ells", "y0", "y0_terms"]


def alpha_coefficient(M: float, t0: float) -> float:
    """Range coefficient alpha = max(4 R1^2/R2 ((log 4) M + 1)^2,
    4 R2 ((log t0) M + 1)^2); the bounds then require
    log x >= alpha m n_L (log Delta_L)^2."""
    if not (M > 0 and t0 > 0):
        raise DomainError(f"M and t0 must be positive, got {M}, {t0}")
    return finite(lambda: max(
        4.0 * R1 * R1 / R2 * (math.log(4.0) * M + 1.0) ** 2,
        4.0 * R2 * (math.log(t0) * M + 1.0) ** 2,
    ), f"alpha at M={M}, t0={t0}")


@dataclass(frozen=True)
class TuningConfig:
    """Frozen parameter set for one Minkowski row and one beta_0 state.

    m, omega0, t0 and T0 are the fixed values of the module docstring;
    alpha and x0_log follow from the row and are set on construction.
    delta0 must not exceed the sandwich ceiling 1 - sqrt(2)/x_0, delta0_ceiling.
    beta0_present says whether the exceptional real zero beta_0 may exist;
    a_beta0 and alpha4 follow from it.
    """

    m: ClassVar[int] = 1
    omega0: ClassVar[float] = 1.0
    t0: ClassVar[float] = 40.0
    T0: ClassVar[float] = 40.0

    row: MinkowskiRow
    delta0: float
    beta0_present: bool
    alpha: float = field(init=False)
    x0_log: float = field(init=False)

    def __post_init__(self) -> None:
        alpha = alpha_coefficient(self.row.M, self.t0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "x0_log", alpha * self.m * self.row.n0 / (self.row.M**2))
        if not 0.0 < self.delta0 <= self.delta0_ceiling or self.delta0 >= 1.0:
            raise DomainError(f"delta0={self.delta0} outside (0, 1 - sqrt(2)/x0]")

    @property
    def delta0_ceiling(self) -> float:
        return 1.0 - math.sqrt(2.0) * math.exp(-self.x0_log)

    @property
    def a_beta0(self) -> int:
        """Divisor of the free term delta/a_beta0 of the smoothed bound."""
        return 1 if self.beta0_present else 2

    @property
    def alpha4(self) -> float:
        """Scale of the low-lying region |s - 1| < 1/(alpha4 log d_L) that
        holds no zero other than beta_0."""
        return 1.7 if self.beta0_present else 2.0

    def with_delta0(self, delta0: float) -> "TuningConfig":
        return replace(self, delta0=delta0)


@dataclass(frozen=True)
class EllConstants:
    l0: float
    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    l6: float
    l7: float
    Y0: float


def ell_low(cfg: TuningConfig) -> tuple[float, float, float, float, float, float]:
    """The six low-index constants (ell_0, ..., ell_5).

    ell_0: ramified prime powers.  ell_1: the explicit-formula constant
    term plus low zeros of every Artin factor; its literal constants
    3.1430, 48.3969 and 11.54 absorb the fixed gamma-factor and B(chi)
    bookkeeping, with 3 alpha0(1) counting zeros below height 1.  ell_2:
    the pole/prime-power crossterm.  ell_3: zeros inside the exceptional
    window, through alpha0(1/2) and alpha4.  ell_4: remaining zeros with
    |Im rho| <= 2, via alpha0(1) and alpha0_prime(2).  ell_5: zeros of
    height 2..T, evaluated at the anchor T0.

    alpha0(1/2) and alpha0(1) come from the eps-minimizer while height 2
    uses the closed-form alpha0_prime(2), which is sharper there.
    """
    row, d0, lx0 = cfg.row, cfg.delta0, cfg.x0_log
    M = row.M
    a0_1 = alpha0(1.0, row)
    a0_half = alpha0(0.5, row)
    a0p_2 = alpha0_prime(2.0, row)
    T0 = cfg.T0

    l0 = (2.0 / math.log(2.0)) * (1.0 + math.log1p(d0) / lx0)

    # ((1-delta0) x0)^(-2) in log space; vanishes for table-sized x0
    inv_sq = math.exp(-2.0 * (math.log1p(-d0) + lx0))
    l1 = (3.1430 + 3.0 * a0_1) / lx0 + M * (
        1.0
        + d0 / (2.0 * (1.0 - d0) * lx0)
        + inv_sq / lx0
        + 48.3969 / lx0
        + 11.54 / (row.n0 * lx0)
    )

    l2 = 1.0 + d0 / (2.0 * (1.0 - d0) * lx0)

    l3 = cfg.alpha4 * ((2.0 + d0) / 2.0 + math.exp(-lx0 / 2.0)) * a0_half / 2.0

    l4 = ((2.0 + d0) / 2.0) * (
        1.0 + math.exp((-1.0 + 2.0 / (R1 * row.n0 * (1.0 / M + math.log(4.0)))) * lx0)
    ) * (a0_1 + a0p_2) / 2.0

    lt = math.log(T0)
    bracket = (
        (math.log(T0 - 1.0) - 1.0) / (math.pi * lt * lt)
        + ALPHA1 * T0 / (lt * lt * (T0 - 1.0))
        + (T0 + 1.0) / (math.pi * (T0 - 1.0) * lt * lt)
        + M
        * (
            1.0 / (2.0 * math.pi)
            + (T0 + 1.0) * math.log(T0 + 1.0) / (math.pi * (T0 - 1.0) * lt * lt)
            + ALPHA1 * math.log(T0 + 1.0) / ((T0 - 1.0) * lt * lt)
            + (ALPHA3 * T0 / (T0 - 1.0)) / (row.n0 * lt * lt)
            + (
                0.683 / math.pi
                + 0.92 * ALPHA1
                - (math.log(2.0 * math.pi * math.e) / math.pi)
                * ((T0 + 1.0) / (T0 - 1.0) - math.log(2.0))
                + math.log(math.pi * math.e) / math.pi
                + ALPHA1 * math.log(2.0) / 2.0
                + ALPHA2 * T0 / (T0 - 1.0)
            )
            / (lt * lt)
        )
    )
    l5 = ((2.0 + d0) / 4.0) * (
        1.0 + math.exp((-1.0 + 2.0 / (R2 * row.n0 * (1.0 / M + lt))) * lx0)
    ) * bracket

    return l0, l1, l2, l3, l4, l5


def ell6(m: int, M: float, T0: float) -> float:
    """Tail-sum constant at x = 1:

        S_L(m, T, 1) <= ell6 (log d_L) (log T)/T^m   for T >= T0 > 4.

    ell6 = (M + 1/log T0)/(m pi) + 2 M alpha1/T0
           + (2 alpha1 + M (alpha1/(m+1) + 2 alpha2 + alpha3))/(T0 log T0).
    """
    m = integer(m, "m", 1)
    if not M > 0:
        raise DomainError(f"M must be positive, got {M}")
    if not T0 > 4:
        raise DomainError(f"T0 must exceed 4, got {T0}")
    lt = math.log(T0)
    return finite(
        lambda: (M + 1.0 / lt) / (m * math.pi)
        + 2.0 * M * ALPHA1 / T0
        + (2.0 * ALPHA1 + M * (ALPHA1 / (m + 1.0) + 2.0 * ALPHA2 + ALPHA3)) / (lt * T0),
        f"ell6 at m={m}, M={M}, T0={T0}",
    )


def ell7(m: int, M: float, R2: float, T0: float, omega0: float, x0_log: float, n0: int) -> float:
    """Tail-sum constant in the large-x regime:

        S_L(m, T, x) <= ell7 Delta_L^m sqrt(n_L) (log x)^(3/4)
                        e^(-2 sqrt(m log x/(R_2 n_L)))

    for T >= T0, x >= x_0 and log x > X_{L,m,T}.  Two terms: the turning-
    point contribution (visible through (log x0)^(-1/4) and the exponential
    margin ((2m+1)/sqrt(m+1) - 2 sqrt(m)) sqrt((m+1)(1/M + log T0))), and
    the Rosser-Schoenfeld remainder of the K_2 integral.
    """
    m = integer(m, "m", 1)
    if not (M > 0 and R2 > 0 and omega0 > 0):
        raise DomainError(f"M, R2 and omega0 must be positive, got {M}, {R2}, {omega0}")
    if not T0 > 4:
        raise DomainError(f"T0 must exceed 4, got {T0}")
    if not x0_log > 0:
        raise DomainError(f"x0_log must be positive, got {x0_log}")
    n0 = integer(n0, "n0", 2)
    lt = math.log(T0)

    def l7() -> float:
        margin = ((2 * m + 1) / math.sqrt(m + 1.0) - 2.0 * math.sqrt(m)) * math.sqrt(
            (m + 1.0) * (1.0 / M + lt)
        )
        first = (omega0 / (math.pi * math.sqrt(R2 * (m + 1.0)))) * x0_log ** (-0.25)
        first *= math.exp(-margin)
        second = (2.0 * n0 ** (-0.25) / (math.sqrt(math.pi) * m**1.25 * R2**0.75)) * (
            1.0
            + 15.0 / (16.0 * math.sqrt(m * (m + 1.0)) * (1.0 / M + lt))
            + 105.0 / (512.0 * m * (m + 1.0) * (1.0 / M + lt) ** 2)
        )
        return first + second

    # a power can leave the doubles, such as (1/M + log T0)^2
    return finite(l7, f"ell7 at m={m}, M={M}, R2={R2}, omega0={omega0}")


def compute_ells(cfg: TuningConfig) -> EllConstants:
    """All eight ell's plus the aggregate Y_0 for one configuration."""
    ells = EllConstants(*ell_low(cfg), ell6(cfg.m, cfg.row.M, cfg.T0),
                        ell7(cfg.m, cfg.row.M, R2, cfg.T0, cfg.omega0, cfg.x0_log, cfg.row.n0),
                        Y0=0.0)
    return replace(ells, Y0=y0(cfg, ells))


def y0_terms(cfg: TuningConfig, ells: EllConstants) -> tuple[float, ...]:
    """The seven summands of Y_0, before delta-scaling of the first five.

    The first five are multiplied by delta0^m in the total; terms carrying
    x_0^(-1) or x_0^(-1/2) underflow to exactly 0.0 for table-sized x_0,
    which is the correct limit, not an accident.
    """
    row, m, lx0 = cfg.row, cfg.m, cfg.x0_log
    M = row.M
    n0 = row.n0
    drift = 2.0 * math.sqrt(m * lx0 / (R2 * n0))  # exponent 2 sqrt(m log x0/(R2 n0))
    md = m_bound(cfg.delta0, m)
    return (
        (ells.l0 + ells.l1) * M / n0 * math.exp(-lx0 + drift),
        ells.l2 * M * M / (n0 * n0) * math.exp(-lx0 / 2.0 + drift),
        ells.l3 / lx0 * math.exp(-lx0 / 2.0 + drift),
        ells.l4 * M / (n0 * lx0),
        ells.l5 * M / (4.0 * m * R2 * n0 * n0),
        ells.l6 * md / (4.0 * math.sqrt(m * R2)) / math.sqrt(lx0) * math.exp(-lx0 + 1.75 * drift),
        ells.l7 * md / 2.0 * M * lx0 ** (-0.25),
    )


def y0(cfg: TuningConfig, ells: EllConstants) -> float:
    """Master aggregate: Y_0 = (t1+...+t5) delta0^m + t6 + t7."""
    t = y0_terms(cfg, ells)
    return sum(t[:5]) * cfg.delta0**cfg.m + t[5] + t[6]
