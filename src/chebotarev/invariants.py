"""Number-field invariants and the minimal-discriminant (Minkowski) table.

Every bound in this package is expressed through three quantities of a
number field L: the degree n_L, the logarithm of the absolute discriminant
log d_L, and the root discriminant Delta_L = d_L^(1/n_L).  Discriminants
themselves routinely exceed double precision (the table below reaches
10^25), so log d_L is the stored primitive and d_L never appears.

The table of per-degree minimal discriminants d_0 and coefficients M with
n_L/log(d_L) <= M comes from the published Odlyzko-style discriminant
bounds.  Its rows are read from the printed table 3 in reference_values,
the one transcription of them; M oscillates slightly between consecutive
degrees (it tracks the best bound per signature) and must not be smoothed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, finite, integer
from .reference_values import TABLE3_MINKOWSKI

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


# (n_0, d_0, M) rows, degree 2 through 21, as printed in table 3.  float()
# parses a cell correctly rounded; reference_values._legacy_double (the
# mantissa's double times 10.0 ** exp) does not, and would move the d_0 of
# rows 12 and 19 by an ulp.  The top row covers every degree
# n_L >= n_0 with d_0 = 10^(n_L), so its log d_0 is n_0 log(10), not the
# log of its printed 1E21.
_TOP_N0 = max(TABLE3_MINKOWSKI)
MINKOWSKI_TABLE: tuple[MinkowskiRow, ...] = tuple(
    MinkowskiRow(n0, n0 * math.log(10) if n0 == _TOP_N0 else math.log(float(d0)), float(M))
    for n0, (d0, M) in TABLE3_MINKOWSKI.items()
)

_ROW_BY_N0 = {row.n0: row for row in MINKOWSKI_TABLE}


# the largest degree whose top-row log d0 = n_L log 10 is a double
_MAX_DEGREE = sys.float_info.max / math.log(10)


def minkowski_lookup(n_L: int) -> MinkowskiRow:
    """Return the table row with the largest n_0 <= n_L.

    From the top row's degree (21) on, the returned row carries
    d_0 = 10^(n_L), i.e. log d_0 = n_L * log(10), with the same coefficient
    M = 1/log(10).
    """
    n_L = integer(n_L, "degree", 2, _MAX_DEGREE)
    if n_L >= _TOP_N0:
        return MinkowskiRow(_TOP_N0, n_L * math.log(10), _ROW_BY_N0[_TOP_N0].M)
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
        object.__setattr__(self, "n_L", integer(self.n_L, "degree", 2, _MAX_DEGREE))
        if not math.isfinite(self.log_dL):
            raise DomainError(f"log d_L must be finite, got {self.log_dL}")
        if self.log_dL < math.log(3) - 1e-12:
            raise DomainError(
                f"log d_L = {self.log_dL} below log(3); no quadratic or higher "
                "field has a smaller discriminant"
            )
        # M is the same for every degree from the top row's on; only its
        # log d0, unused here, grows with the degree
        M = _ROW_BY_N0[min(self.n_L, _TOP_N0)].M
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
    m = integer(m, "smoothing order m", 1)
    ld = field.log_delta_L
    n = field.n_L
    return max(ld * ld * n * n, ld * math.exp(m * ld) * math.sqrt(n))


def lambda_0(n0: int, M: float) -> float:
    """Row-level lower bound for lambda_L: max(n0^2/M^2, sqrt(n0) e^(1/M)/M).

    Obtained from lambda_L by replacing log Delta_L with its row minimum
    1/M; any field on the row (n_0, d_0, M) satisfies lambda_L >= lambda_0.
    """
    n0 = integer(n0, "degree", 2, _MAX_DEGREE)
    if not 0 < M < math.inf:
        raise DomainError(f"M must be positive and finite, got {M}")
    return finite(lambda: max(n0 * n0 / (M * M), math.sqrt(n0) * math.exp(1.0 / M) / M),
                  f"lambda_0 at n0={n0}, M={M}")
