"""Zero-free-region constants and zero-counting bounds for zeta_L.

Two families of bounds on N_L(T), the number of nontrivial zeros of the
Dedekind zeta function with |Im rho| <= T, are implemented:

* alpha0(T): N_L(T) <= alpha0(T) log d_L, obtained by minimizing over
  eps > 0 a bound built from the explicit formula evaluated at
  1 + eps + iT.  Sharper for small T (T <= 1).

* alpha0_prime(T): the Hasanalizade-Shen-Wong counting bound
  |N_L(T) - P_L(T)| <= E_L(T) folded through the Minkowski inequality.
  Sharper for T >= 2.

The same counting data yields the window constants b1..b4 bounding
N_L(T+1) - N_L(T-1), the zero-density kernel Q(u,t) >= N_L(u) - N_L(t),
and the threshold pairs (omega0, t0) with
Q(u,t) < omega0 * (u n_L / pi) log(Delta_L u) for u >= t >= t0.

The zero-free-region radii R1 and R2 are module constants.  The two
values that depend on whether an exceptional real zero beta_0 exists,
alpha4 and a_beta0, are properties of constants.TuningConfig.

Everything here is a pure function of its arguments.  The one-dimensional
eps-minimization runs on a fixed 100 000-point geometric eps grid, but no
call builds that grid: alpha0 bisects over the grid indices, reading about
40 points in all, each a Python float from one scalar numpy power by
numpy's own geomspace formula.  No point outlives the call, and every
value of the objective comes from c123.
numpy loads with the first alpha0 call; importing this module loads none.
alpha0 memoizes its result: it depends only on T and the row, and one
table or one delta0 bisection asks for the same few values many times.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

from .errors import DomainError, NumericError, finite
from .invariants import FieldParams, MinkowskiRow

__all__ = [
    "ALPHA1",
    "ALPHA2",
    "ALPHA3",
    "R1",
    "R2",
    "EPS0_WINDOW",
    "c123",
    "alpha0",
    "alpha0_prime",
    "window_coeffs",
    "P_E_L",
    "Q_kernel",
    "Q_kernel_partial_u",
    "solve_omega0",
    "solve_t0",
]

# Counting constants of Hasanalizade-Shen-Wong:
# |N_L(T) - P_L(T)| <= alpha1 (log d_L + n_L log T) + alpha2 n_L + alpha3.
ALPHA1 = 0.228
ALPHA2 = 23.108
ALPHA3 = 4.520

# Zero-free regions: apart from at most one real zero beta_0, zeta_L does
# not vanish for Re s >= 1 - 1/(R1 n_L log(4 Delta_L)) when |Im s| <= 2,
# nor for Re s >= 1 - 1/(R2 n_L log(Delta_L |Im s|)) when |Im s| > 2.
R1 = 20.0
R2 = 12.2411

# eps minimizing c1(1,eps)(1 + log(1 + (2+eps)/3)/log 3), fixed once for
# the window constants b1..b4.
EPS0_WINDOW = 1.1814


def c123(a: float, eps: float, T: float) -> tuple[float, float, float]:
    """Per-character coefficients of the zero-window count n_{chi,a}(T).

    n_{chi,a}(T) <= c1 log A(chi) + c2 n_E + c3 1(chi principal), with

        c1 = ((1+eps)^2 + a^2) / (2 eps),
        c2 = c1 log(2 + eps + |T|) + 2 c1 (1/eps + 539/268),
        c3 = 2 c1 ((1+eps)/sqrt((1+eps)^2+T^2) + eps/sqrt(eps^2+T^2)).
    """
    if not (0 < a < math.inf and 0 < eps < math.inf and math.isfinite(T)):
        raise DomainError(f"need finite a > 0, eps > 0 and T, got a={a}, eps={eps}, T={T}")
    one = 1.0 + eps
    c1 = (one * one + a * a) / (2.0 * eps)
    c2 = c1 * math.log(2.0 + eps + abs(T)) + 2.0 * c1 * (1.0 / eps + 539.0 / 268.0)
    c3 = 2.0 * c1 * (one / math.hypot(one, T) + eps / math.hypot(eps, T))
    return c1, c2, c3


_GOLDEN_TOL = 1e-12  # relative width at which _golden_min stops


def _golden_min(f, lo: float, hi: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c, d = a + invphi2 * h, a + invphi * h
    yc, yd = f(c), f(d)
    while h > _GOLDEN_TOL * max(1.0, abs(a) + abs(b)):
        h *= invphi
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + invphi2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + invphi * h
            yd = f(d)
    return 0.5 * (a + b)


_EPS_LO, _EPS_HI = 1e-3, 50.0
_GRID_SIZE = 100_000
_L0 = math.log10(_EPS_LO)
_STEP = (math.log10(_EPS_HI) - _L0) / (_GRID_SIZE - 1)


def _eps_point(i: int) -> float:
    """np.geomspace(_EPS_LO, _EPS_HI, _GRID_SIZE)[i], bit for bit, without
    the grid: numpy's own formula 10 ** (i * step + log10(_EPS_LO)), with
    index 0 and the last index pinned to the ends as np.geomspace pins them."""
    if i == 0:
        return _EPS_LO
    if i == _GRID_SIZE - 1:
        return _EPS_HI
    import numpy as np

    return float(np.power(10.0, i * _STEP + _L0))


@lru_cache(maxsize=512)
def _alpha0_cached(T: float, M: float, log_d0: float) -> float:
    # Guarded 1-D minimization: the argmin of B(T, .) over the eps grid,
    # refined by golden section.  B is unimodal on [1e-3, 50]
    # (tests/test_zeros.py checks it on the full grid), so its grid argmin
    # is the first index i with B(eps_{i+1}) >= B(eps_i), which bisection
    # over the indices finds in 17 probes.  The golden-section bracket is
    # i - 2 .. i + 2, clamped to the grid.  B grows like 1/eps^2 at the
    # small end, so it is largest at grid index 0, and overflows there
    # first.
    def count_bound(eps: float) -> float:
        # summing c123 over the characters, N_L(T) <= B(T, eps) log d_L
        c1, c2, c3 = c123(T, eps, 0.0)
        return c1 + c2 * M + c3 / log_d0

    def rising(i: int) -> bool:
        return count_bound(_eps_point(i + 1)) >= count_bound(_eps_point(i))

    if not math.isfinite(count_bound(_EPS_LO)):
        raise NumericError("zero-count bound overflowed during minimization")
    i = bisect_left(range(_GRID_SIZE - 1), True, key=rising)
    left, mid, right = map(_eps_point, (max(0, i - 2), i, min(_GRID_SIZE - 1, i + 2)))
    return min(count_bound(mid), count_bound(_golden_min(count_bound, left, right)))


def alpha0(T: float, row: MinkowskiRow) -> float:
    """min over eps > 0 of B(T, eps):  N_L(T) <= alpha0(T) log d_L."""
    if not 0 < T < math.inf:
        raise DomainError(f"T must be positive and finite, got {T}")
    return _alpha0_cached(float(T), row.M, row.log_d0)


def alpha0_prime(T: float, row: MinkowskiRow) -> float:
    """Counting-theorem coefficient: N_L(T) <= alpha0_prime(T) log d_L.

    T/pi + alpha1 + M (T/pi log(T/(2 pi e)) + alpha1 log T + alpha2)
    + alpha3/log d_0, valid for T >= 1.
    """
    if not T >= 1:
        raise DomainError(f"T must be >= 1, got {T}")
    return finite(
        lambda: T / math.pi
        + ALPHA1
        + row.M
        * ((T / math.pi) * math.log(T / (2 * math.pi * math.e)) + ALPHA1 * math.log(T) + ALPHA2)
        + ALPHA3 / row.log_d0,
        f"alpha0_prime at T={T}",
    )


# published window constants, nominally the values c123 gives at EPS0_WINDOW
# rounded at the fourth decimal (b3 was rounded to nearest where the others
# round up; kept verbatim)
_WINDOW_COEFFS = (8.0818, 27.8581, 4.8743, 9.3052)


def window_coeffs() -> tuple[float, float, float, float]:
    """Constants (b1, b2, b3, b4) of the unit-window zero count

        N_L(T+1) - N_L(T-1) <= b1 n_L log T + b2 n_L + b3 log d_L + b4

    for T >= 3, at eps = EPS0_WINDOW.  Derived for completeness; nothing
    downstream consumes them.
    """
    return _WINDOW_COEFFS


def P_E_L(T: float, field: FieldParams) -> tuple[float, float]:
    """Main term and error radius of the zero count:

        P_L(T) = (T/pi) (log d_L + n_L log(T/(2 pi e))),
        E_L(T) = alpha1 (log d_L + n_L log T) + alpha2 n_L + alpha3,

    so that |N_L(T) - P_L(T)| <= E_L(T) for T >= 1.
    """
    if not T >= 1:
        raise DomainError(f"T must be >= 1, got {T}")
    P = (T / math.pi) * (field.log_dL + field.n_L * math.log(T / (2 * math.pi * math.e)))
    E = ALPHA1 * (field.log_dL + field.n_L * math.log(T)) + ALPHA2 * field.n_L + ALPHA3
    return finite(lambda: P, f"P_L at T={T}"), finite(lambda: E, f"E_L at T={T}")


def Q_kernel(u: float, t: float, field: FieldParams) -> float:
    """Zero-density kernel Q(u, t) >= N_L(u) - N_L(t) for u >= t >= 1:

    (n u/pi) log(Delta u/(2 pi e)) - (n t/pi) log(Delta t/(2 pi e))
    + 2 alpha1 n log(Delta sqrt(ut)) + 2 alpha2 n + 2 alpha3.
    """
    if not (u >= t >= 1):
        raise DomainError(f"need u >= t >= 1, got u={u}, t={t}")
    n = field.n_L
    ld = field.log_delta_L
    l2pe = math.log(2 * math.pi * math.e)
    return finite(
        lambda: (n * u / math.pi) * (ld + math.log(u) - l2pe)
        - (n * t / math.pi) * (ld + math.log(t) - l2pe)
        + 2 * ALPHA1 * n * (ld + 0.5 * math.log(u * t))
        + 2 * ALPHA2 * n
        + 2 * ALPHA3,
        f"Q at u={u}, t={t}",
    )


def Q_kernel_partial_u(u: float, field: FieldParams) -> float:
    """dQ/du (u, t) = (n/pi) log(Delta u/(2 pi)) + alpha1 n / u, for u > 0."""
    if not u > 0:
        raise DomainError(f"u must be positive, got {u}")
    n = field.n_L
    return finite(lambda: (n / math.pi) * (field.log_delta_L + math.log(u) - math.log(2 * math.pi))
                  + ALPHA1 * n / u, f"dQ/du at u={u}")


def solve_omega0(t0: float) -> float:
    """Smallest kernel coefficient admissible at threshold t0:

        omega0 = (pi/t0) (2 alpha1 + (2 alpha2 + alpha3)/log(sqrt(3) t0)),

    strictly decreasing in t0 where log(sqrt(3) t0) > 0.
    """
    if not t0 > 1 / math.sqrt(3):
        raise DomainError(f"t0 must exceed 1/sqrt(3), got {t0}")
    return (math.pi / t0) * (2 * ALPHA1 + (2 * ALPHA2 + ALPHA3) / math.log(math.sqrt(3) * t0))


def _bisect(left_of_root, lo: float, hi: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the point where left_of_root turns False.

    Expects left_of_root(lo) true and left_of_root(hi) false.  Halves until
    the midpoint rounds to an endpoint, i.e. lo and hi are adjacent doubles;
    any further halving step would leave both unchanged.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if left_of_root(mid):
            lo = mid
        else:
            hi = mid


def solve_t0(omega0: float) -> float:
    """Invert solve_omega0: smallest t0 with Q(u,t) < omega0 (u n/pi) log(Delta u)
    for all u >= t >= t0.  Bisection on (1, 1e9]; the profile is strictly
    decreasing there."""
    f = lambda t: solve_omega0(t) - omega0
    # f(1e9) < 0 for every omega0 >= 1, so f(1) > 0 is the whole bracket check
    if not (omega0 >= 1 and f(1.0) > 0):
        raise DomainError(f"omega0 must lie in [1, {solve_omega0(1.0)}), got {omega0}")
    lo, hi = _bisect(lambda t: f(t) > 0, 1.0, 1e9)
    return 0.5 * (lo + hi)
