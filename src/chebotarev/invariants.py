"""Number-field invariants and the minimal-discriminant (Minkowski) table.

Every bound in this package is expressed through three quantities of a
number field L: the degree n_L, the logarithm of the absolute discriminant
log d_L, and the root discriminant Delta_L = d_L^(1/n_L).  Discriminants
themselves routinely exceed double precision (the table below reaches
10^25), so log d_L is the stored primitive and d_L never appears.

The table of per-degree minimal discriminants d_0 and coefficients M with
n_L/log(d_L) <= M comes from the published Odlyzko-style discriminant
bounds.  Rows are embedded verbatim; M oscillates slightly between
consecutive degrees (it tracks the best bound per signature) and must not
be smoothed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "MinkowskiRow",
    "FieldParams",
    "MINKOWSKI_TABLE",
    "minkowski_lookup",
    "lambda_L",
    "lambda_0",
]


@dataclass(frozen=True)
class MinkowskiRow:
    """One row (n_0, d_0, M): fields of degree >= n_0 have d_L >= d_0 and
    n_L/log(d_L) <= M.  Immutable; safe to share across threads."""

    n0: int
    log_d0: float
    M: float


def _row(n0: int, d0: float, M: float) -> MinkowskiRow:
    return MinkowskiRow(n0, math.log(d0), M)


# (n_0, d_0, M) rows, degree 2 through 21.  The last row covers every
# degree >= 21 with d_0 = 10^(n_0) and M = 1/log(10).
MINKOWSKI_TABLE: tuple[MinkowskiRow, ...] = (
    _row(2, 3, 1.82048),
    _row(3, 23, 0.956787),
    _row(4, 117, 0.839953),
    _row(5, 1609, 0.677198),
    _row(6, 9747, 0.653259),
    _row(7, 184607, 0.577273),
    _row(8, 1257728, 0.569605),
    _row(9, 2.29e7, 0.531078),
    _row(10, 1.56e8, 0.530072),
    _row(11, 3.91e9, 0.498035),
    _row(12, 2.74e10, 0.499297),
    _row(13, 7.56e11, 0.475297),
    _row(14, 5.43e12, 0.477442),
    _row(15, 1.61e14, 0.458541),
    _row(16, 1.17e15, 0.461151),
    _row(17, 3.70e16, 0.445613),
    _row(18, 2.73e17, 0.448338),
    _row(19, 9.03e18, 0.435310),
    _row(20, 6.74e19, 0.438047),
    MinkowskiRow(21, 21 * math.log(10), 0.434294),
)

_ROW_BY_N0 = {row.n0: row for row in MINKOWSKI_TABLE}


# the largest degree whose top-row log d0 = n_L log 10 is a double
_MAX_DEGREE = sys.float_info.max / math.log(10)


def _require_degree(n: int) -> None:
    """The one rule for a degree: an integer >= 2, integral floats such as
    2.0 included, whose top-row log d0 = n log 10 is finite."""
    if not (2 <= n <= _MAX_DEGREE and n % 1 == 0):
        raise DomainError(f"degree must be an integer from 2 to {_MAX_DEGREE:.4g}, got {n}")


def minkowski_lookup(n_L: int) -> MinkowskiRow:
    """Return the table row with the largest n_0 <= min(n_L, 21).

    For n_L >= 21 the returned row carries d_0 = 10^(n_L), i.e.
    log d_0 = n_L * log(10), with the same coefficient M = 1/log(10).
    """
    _require_degree(n_L)
    if n_L >= 21:
        return MinkowskiRow(21, n_L * math.log(10), _ROW_BY_N0[21].M)
    return _ROW_BY_N0[n_L]


@dataclass(frozen=True)
class FieldParams:
    """Degree and log-discriminant of a number field L != Q.

    delta_L is always recomputed from (n_L, log_dL), never stored, so the
    defining relation delta_L = exp(log_dL/n_L) holds exactly.  Instances
    are validated against the Minkowski inequality on construction; pairs
    that no actual field can realize are rejected.
    """

    n_L: int
    log_dL: float

    def __post_init__(self) -> None:
        _require_degree(self.n_L)
        if not math.isfinite(self.log_dL):
            raise DomainError(f"log d_L must be finite, got {self.log_dL}")
        if self.log_dL < math.log(3) - 1e-12:
            raise DomainError(
                f"log d_L = {self.log_dL} below log(3); no quadratic or higher "
                "field has a smaller discriminant"
            )
        # M is the same for every degree >= 21; only the top row's log d0,
        # unused here, grows with the degree
        M = _ROW_BY_N0[min(self.n_L, 21)].M
        # the printed (d0, M) rows are independently rounded, so the exact
        # minima overshoot n0 = M log d0 by up to ~1.2e-6 relative
        if self.n_L > M * self.log_dL * (1 + 2e-6):
            raise DomainError(
                f"(n_L={self.n_L}, log d_L={self.log_dL}) violates "
                f"n_L <= {M} * log d_L; no such field exists"
            )

    @classmethod
    def from_discriminant(cls, n_L: int, d_L: float) -> "FieldParams":
        if d_L <= 1:
            raise DomainError(f"|discriminant| must exceed 1, got {d_L}")
        return cls(n_L, math.log(d_L))

    @property
    def delta_L(self) -> float:
        """Root discriminant Delta_L = d_L^(1/n_L)."""
        return math.exp(self.log_dL / self.n_L)

    @property
    def log_delta_L(self) -> float:
        return self.log_dL / self.n_L


def lambda_L(field: FieldParams, m: int) -> float:
    """Field-size factor max((log Delta)^2 n^2, (log Delta) Delta^m sqrt(n)).

    This multiplies the exponentially decaying error term; m is the
    smoothing order.  Monotone non-decreasing in n_L, log d_L and m.
    """
    if not m >= 1:
        raise DomainError(f"smoothing order m must be >= 1, got {m}")
    ld = field.log_delta_L
    n = field.n_L
    return max(ld * ld * n * n, ld * math.exp(m * ld) * math.sqrt(n))


def lambda_0(n0: int, M: float) -> float:
    """Row-level lower bound for lambda_L: max(n0^2/M^2, sqrt(n0) e^(1/M)/M).

    Obtained from lambda_L by replacing log Delta_L with its row minimum
    1/M; any field on the row (n_0, d_0, M) satisfies lambda_L >= lambda_0.
    """
    _require_degree(n0)
    if not 0 < M < math.inf:
        raise DomainError(f"M must be positive and finite, got {M}")
    try:
        lam = max(n0 * n0 / (M * M), math.sqrt(n0) * math.exp(1.0 / M) / M)
    except (OverflowError, ZeroDivisionError):  # e^(1/M) or 1/M^2 past the doubles
        lam = math.inf
    if lam == math.inf:
        raise DomainError(f"lambda_0 overflows double precision at n0={n0}, M={M}")
    return lam
