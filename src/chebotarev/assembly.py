"""Final theorem constants, bound evaluation, and regeneration of the
published constant tables.

Pipeline per Minkowski row and exceptional-zero state, at smoothing order
m = 1 and anchors omega0 = 1, T0 = t0 = 40:

    alpha, log x0  ->  ell_0..ell_7  ->  Y_0  ->  E_1, E_2, E_3, E_3~, N_0
                  ->  D-family (log-form, order k)
                  ->  C-family (classical shape)
                  ->  (a_0, b_0, c_0) absolute-constant corollaries.

FinalConstants is the one record of that chain: it carries its
TuningConfig and its ell's next to the E/D/C constants, so every consumer
(bound evaluation, the tables, the corollaries, the CLI's params) takes
that record alone.  _finals_cached keeps one record per table row and
beta_0 state for the process, which warm bound evaluation reads.
_bound_report states each of the four bound forms once: its threshold on
log x, its details and, on the branch in use, a coefficient and a decay
rate.  Each branch's published b0, the default of classical_constants, is
read into _PUBLISHED_B0 from table 7's degree-range rows.

Each of the eight published tables is one spec in _TABLES (its title,
printed rows, row-level cells and, for tables 4-8, one block of cells per
beta_0 state), and generate_table builds every one in the same loop.
Table.rounding rounds the inputs a spec names (table 3's d0 and M, table
4's delta0, table 7's b0) to nearest when published, every bound up.

The smoothing, bessel and invariants functions and ell6/ell7 keep general
m; TuningConfig fixes m = 1, where the decay exponent
2 sqrt(m)/((m+1) sqrt(R2)) is maximal.

Two unrelated quantities share the letter c0 in the literature and get
distinct names here: C_CURLY_N0 = max(1/(4e), 2^(-3/2)) sits inside the
degree ceiling N_0, while ClassicalConstants.c0 = alpha/n0^2 scales the
admissible range of the absolute-constant bound.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Any

from . import reference_values as pv
from .constants import EllConstants, TuningConfig, compute_ells
from .errors import DomainError, SearchError, integer
from .invariants import _TOP_N0, FieldParams, lambda_0, lambda_L, minkowski_lookup
from .zeros import R2, _bisect

__all__ = [
    "C_CURLY_N0",
    "B0_FULL",
    "B0_REFINED",
    "FinalConstants",
    "ClassicalBranch",
    "ClassicalConstants",
    "BoundForm",
    "BoundReport",
    "Table",
    "CellDiff",
    "standard_config",
    "final_constants",
    "curly_N0",
    "choose_delta0",
    "classical_constants",
    "classical_a0_grid",
    "bound_eval",
    "generate_table",
    "diff_table",
    "corollary_constants",
    "TABLE_IDS",
]

# constant inside the degree ceiling N_0: max(1/(4e), 2^(-3/2)); quoted in
# prose as its round-up 0.354, but the published N_0 column only reproduces
# with the exact value
C_CURLY_N0 = 2.0**-1.5


@dataclass(frozen=True)
class FinalConstants:
    """Theorem-level constants for one configuration (m = 1), with the
    configuration and the ell's they come from.

    E1/E2 govern the general error term, E3 the refined term available for
    degrees up to N0, E3_tilde = E3/sqrt(n0 lambda0) its re-expression on
    the general shape.  D* are the log-form constants at order k, C* the
    classical-shape constants, and the two exponent coefficients are
    1/sqrt(R2) - 1/sqrt(alpha) (full) and 1/sqrt(R2) - 1/(2 sqrt(alpha))
    (refined).
    """

    cfg: TuningConfig
    ells: EllConstants
    E1: float
    E2: float
    E3: float
    E3_tilde: float
    N0: float
    k: int
    D12: float
    D3: float
    D3_tilde: float
    C12: float
    C3: float
    C3_tilde: float
    exp_coeff_full: float
    exp_coeff_half: float

    @property
    def alpha(self) -> float:
        return self.cfg.alpha

    @property
    def x0_log(self) -> float:
        return self.cfg.x0_log

    @property
    def max_E12(self) -> float:
        return max(self.E1, self.E2)


class ClassicalBranch(enum.Enum):
    """Which error shape feeds the absolute-constant corollary."""

    REFINED = "refined"  # (A, B) = (3/4, 3/4), exponent 1/sqrt(R2) - 1/(2 sqrt(alpha))
    FULL = "full"        # (A, B) = (2, 1),     exponent 1/sqrt(R2) - 1/sqrt(alpha)


# published exponent choices for the absolute-constant corollary, one per
# branch, read from table 7's degree-range rows
_PUBLISHED_B0 = {ClassicalBranch(branch): float(b0) for _, _, _, b0, _, branch in pv.TABLE7_RANGE}
B0_FULL = _PUBLISHED_B0[ClassicalBranch.FULL]
B0_REFINED = _PUBLISHED_B0[ClassicalBranch.REFINED]


@dataclass(frozen=True)
class ClassicalConstants:
    a0: float
    b0: float
    c0: float
    branch: ClassicalBranch


class Delta0Mode(enum.Enum):
    """The one delta0 search; perfbench/worker.py still passes SEARCH."""

    SEARCH = "search"


def standard_config(n0: int, beta0_present: bool) -> TuningConfig:
    """Standard configuration on a table row (n0 in 2..21), with the
    published per-row delta0."""
    if n0 not in range(2, _TOP_N0 + 1):
        raise DomainError(f"n0 must be a table row in 2..21, got {n0}")
    if beta0_present not in (True, False):
        raise DomainError(f"beta0_present must be True or False, got {beta0_present!r}")
    return TuningConfig(minkowski_lookup(n0), pv.DELTA0[(n0, beta0_present)], bool(beta0_present))


def curly_N0(cfg: TuningConfig, Y0: float) -> float:
    """Degree ceiling for the refined error branch:

    N_0 = delta0^((m+1)/3) M exp((m/(3M))(2 sqrt(alpha/R2) - 1))
          / (m (a_beta0 * C_CURLY_N0 * alpha * Y0)^(1/3)).

    Strictly increasing in delta0 (directly and through Y0's structure).
    """
    if not Y0 > 0:
        raise DomainError(f"Y0 must be positive, got {Y0}")
    m, M = cfg.m, cfg.row.M
    num = cfg.delta0 ** ((m + 1) / 3.0) * M * math.exp(
        (m / (3.0 * M)) * (2.0 * math.sqrt(cfg.alpha) / math.sqrt(R2) - 1.0)
    )
    return num / (m * (cfg.a_beta0 * C_CURLY_N0 * cfg.alpha * Y0) ** (1.0 / 3.0))


def _k_max(cfg: TuningConfig) -> float:
    return 0.5 * ((1.0 / cfg.row.M) * math.sqrt(cfg.alpha / R2) - 1.0)


def final_constants(cfg: TuningConfig, k: int = 1) -> FinalConstants:
    """All theorem-level constants for one configuration.

    k is the log-form order; it must satisfy
    k <= ((1/M) sqrt(alpha/R2) - 1)/2 for the bracketed factor of the
    log-form bound to be decreasing on the admissible range.
    """
    k = integer(k, "k", 0)
    if k > _k_max(cfg):
        raise DomainError(f"k={k} exceeds the admissible maximum {_k_max(cfg):.3f}")

    ells = compute_ells(cfg)
    Y0 = ells.Y0
    m = cfg.m
    M = cfg.row.M
    n0 = cfg.row.n0
    ab = cfg.a_beta0
    alpha = cfg.alpha
    frac = m / (m + 1.0)
    Yfrac = Y0 ** (1.0 / (m + 1.0))

    E1 = (m ** (1.0 / (m + 1.0)) * M ** (2 * frac) * Yfrac) / (ab**frac * n0 ** (3 * frac)) + (
        (alpha * m) ** frac
        * Y0
        / (
            cfg.delta0**m
            * M ** (2 * frac)
            * math.exp(2.0 * (m * m / (m + 1.0)) * math.sqrt(alpha / (R2 * M * M)))
        )
    )
    E2 = (m + 1.0) * M ** (2 * frac) * Yfrac / ((ab * m) ** frac * n0 ** (3 * frac))
    E3 = (ab * m) ** (-frac) * (m + 1.0) * Yfrac
    lam0 = lambda_0(n0, M)
    E3_tilde = E3 / math.sqrt(n0 * lam0)

    decay = (alpha / (M * M)) ** (k + 0.5) * math.exp(-math.sqrt(alpha) / (math.sqrt(R2) * M))
    D12 = max(E1, E2) * decay
    D3 = E3 * decay
    D3_tilde = D3 / math.sqrt(lam0 * n0)

    C12 = max(E1, E2) / (math.e * math.sqrt(alpha * m))
    C3 = E3 / (math.e * math.sqrt(alpha * m)) ** (1.0 / (m + 1.0))
    C3_tilde = C3 * alpha ** (-0.25) * n0 ** (-1.5) * math.sqrt(M) * math.exp(-1.0 / (2.0 * M))

    return FinalConstants(
        cfg=cfg,
        ells=ells,
        E1=E1,
        E2=E2,
        E3=E3,
        E3_tilde=E3_tilde,
        N0=curly_N0(cfg, Y0),
        k=k,
        D12=D12,
        D3=D3,
        D3_tilde=D3_tilde,
        C12=C12,
        C3=C3,
        C3_tilde=C3_tilde,
        exp_coeff_full=1.0 / math.sqrt(R2) - 1.0 / math.sqrt(alpha),
        exp_coeff_half=1.0 / math.sqrt(R2) - 1.0 / (2.0 * math.sqrt(alpha)),
    )


@lru_cache(maxsize=None)
def _finals_cached(n0: int, beta0_present: bool) -> FinalConstants:
    """The record of a table row and beta_0 state, built once per process."""
    return final_constants(standard_config(n0, beta0_present))


def _N0_at(cfg: TuningConfig, delta0: float) -> float:
    c = cfg.with_delta0(delta0)
    return curly_N0(c, compute_ells(c).Y0)


def _delta0_interval(n0: int, beta0_present: bool) -> tuple[float, float]:
    """Admissible delta0 interval (d_lo, d_hi) of a row in 2..20, on which
    n0 <= N_0 < n0 + 1.

    N_0 is strictly increasing in delta0, so each end is found by bisection;
    d_lo is nudged inside the interval to keep N_0 >= n0 strictly.
    """
    base = standard_config(n0, beta0_present)
    ceiling = min(base.delta0_ceiling, 1.0 - 1e-9)  # smoothing needs delta0 < 1 strictly
    top = _N0_at(base, ceiling)
    if top < n0:
        raise SearchError(f"no delta0 reaches N0 = {n0} on this row")

    def first_reaching(target: int) -> float:
        return _bisect(lambda d: _N0_at(base, d) < target, 1e-9, ceiling)[1]

    d_lo = first_reaching(n0)
    d_hi = first_reaching(n0 + 1) if top >= n0 + 1 else ceiling
    if not d_lo < d_hi:
        raise SearchError(f"empty admissible delta0 interval at n0={n0}")
    return min(d_lo * (1 + 1e-12) + 1e-18, d_hi), d_hi


def choose_delta0(n0: int, beta0_present: bool, mode: Delta0Mode = Delta0Mode.SEARCH) -> float:
    """Search the ramp-width ceiling delta0 for a table row in 2..21.

    Rows up to 20 need n0 <= N_0 < n0 + 1 (N_0 is strictly increasing in
    delta0, so the admissible set is an interval, found by bisection); the
    search takes its lower end, which minimizes min(max(E1, E2), E3~) over
    the interval: that objective is increasing there on every row, as
    tests/test_assembly.py::TestChooseDelta0::test_search_objective_increasing
    checks.  The top row instead pushes N_0 as high as possible:
    delta0 = min(1 - sqrt(2)/x0, 0.99999).  A given delta0 is reproduced,
    with the same checks, by standard_config(n0, beta0_present).with_delta0.
    """
    if n0 >= _TOP_N0:
        return min(standard_config(n0, beta0_present).delta0_ceiling, 0.99999)
    return _delta0_interval(n0, beta0_present)[0]


def _a0_peak_value(C: float, A: float, B: float, D: float, b0: float, c0: float, M: float, n0: int) -> float:
    """Closed-form maximizer of the absolute-constant reduction:

    a0 = C M^(2A/3) c0^(-A/3) max_{y >= c0 n0^3/M^2} y^(A/3+B) e^(-K y^(1/3)),
    K = (D - b0) c0^(1/6) / M^(1/3); the maximizer y* = (3(A/3+B)/K)^3 is
    clipped from below at the range edge.  Evaluated in log space.
    """
    K = (D - b0) * c0 ** (1.0 / 6.0) / M ** (1.0 / 3.0)
    p = A / 3.0 + B
    y_star = (3.0 * p / K) ** 3
    y_min = c0 * n0**3 / (M * M)
    y = max(y_star, y_min)
    return C * M ** (2.0 * A / 3.0) / c0 ** (A / 3.0) * math.exp(p * math.log(y) - K * y ** (1.0 / 3.0))


_A0_GRID_POINTS = 1_000_000  # geometric grid of classical_a0_grid


def classical_a0_grid(C: float, A: float, B: float, D: float, b0: float, c0: float, M: float, n0: int) -> float:
    """Grid-search replacement for the closed-form maximizer (oracle)."""
    import numpy as np

    K = (D - b0) * c0 ** (1.0 / 6.0) / M ** (1.0 / 3.0)
    p = A / 3.0 + B
    y_min = c0 * n0**3 / (M * M)
    y_hi = max((3.0 * p / K) ** 3 * 10.0, y_min * 10.0)
    y = np.geomspace(y_min, y_hi, _A0_GRID_POINTS)
    vals = p * np.log(y) - K * np.cbrt(y)
    return C * M ** (2.0 * A / 3.0) / c0 ** (A / 3.0) * math.exp(float(np.max(vals)))


def classical_constants(f: FinalConstants, branch: ClassicalBranch,
                        b0: float | None = None) -> ClassicalConstants:
    """Absolute constants (a0, b0, c0) of the configuration behind f, with
    E_C(x) <= x^(beta0-1)/beta0 + a0 e^(-b0 sqrt(log x/n_L)) for
    log x >= c0 n_L (log d_L)^2; b0 defaults to the branch's published one.
    A branch that is not a ClassicalBranch, such as its string value,
    raises DomainError."""
    if not isinstance(branch, ClassicalBranch):
        raise DomainError(f"branch must be a ClassicalBranch, got {branch!r}")
    if b0 is None:
        b0 = _PUBLISHED_B0[branch]
    cfg = f.cfg
    c0 = cfg.alpha / cfg.row.n0**2
    if branch is ClassicalBranch.REFINED:
        A, B, D, C = 0.75, 0.75, f.exp_coeff_half, f.C3
    else:
        A, B, D, C = 2.0, 1.0, f.exp_coeff_full, f.C12
    if not 0 < b0 < D:
        raise DomainError(f"b0 must lie in (0, {D:.5f}), got {b0}")
    a0 = _a0_peak_value(C, A, B, D, b0, c0, cfg.row.M, cfg.row.n0)
    return ClassicalConstants(a0=a0, b0=b0, c0=c0, branch=branch)


class BoundForm(enum.Enum):
    EXP = "exp"                      # sqrt(log x) exponential shape
    LOG = "log"                      # 1/(log x)^k shape
    CLASSICAL_NL = "classical-nl"    # degree-only coefficients
    CLASSICAL_ABS = "classical-abs"  # absolute constants a0 e^(-b0 sqrt(...))


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of one error-bound form for a concrete field and x.

    epsilon is the unconditional part of the bound on
    |psi_C(x) - x |C|/|G|| / (x |C|/|G|); when an exceptional zero may
    exist the additional term x^(beta0-1)/beta0 is reported symbolically
    in exceptional_term, never numerically (beta0 itself is unknown).
    """

    form: BoundForm
    n_L: int
    log_x: float
    beta0_present: bool
    threshold: float
    applicable: bool
    epsilon: float | None
    refined_used: bool
    exceptional_term: str | None
    details: dict[str, float] = field(default_factory=dict)


def bound_eval(
    field: FieldParams, log_x: float, beta0_present: bool, form: BoundForm
) -> BoundReport:
    """Evaluate one published bound form for a user-supplied field.

    The field is attached to its Minkowski row (largest n0 <= n_L); the
    refined branch is selected whenever n_L <= N_0 of that row.  Ranges
    where the form is not yet valid return applicable = False with
    epsilon unset.  Inputs whose threshold or epsilon would leave the
    double range raise DomainError, so every report is finite, and so does
    a form that is not a BoundForm, such as its string value.
    """
    if not (math.isfinite(log_x) and log_x > 0):
        raise DomainError(f"log x must be positive and finite, got {log_x}")
    if not isinstance(form, BoundForm):
        raise DomainError(f"form must be a BoundForm, got {form!r}")
    try:
        report = _bound_report(field, log_x, beta0_present, form)
        finite = math.isfinite(report.threshold) and math.isfinite(report.epsilon or 0.0)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"the bound for n_L = {field.n_L}, log d_L = {field.log_dL}, "
            f"log x = {log_x} overflows double precision"
        )
    return report


def _decayed(coeff: float, exponent: float) -> float:
    """coeff * exp(-exponent), coeff > 0.  Once exp(-exponent) is below the
    normal floats, the product is coeff e^(-exponent/2) e^(-exponent/2),
    raised past its four roundings, so it is never 0.0."""
    decay = math.exp(-exponent)
    if decay >= sys.float_info.min:
        return coeff * decay
    half = math.exp(-exponent / 2)
    return math.nextafter(coeff * half * half * (1 + 2**-49), math.inf)


def _bound_report(
    field: FieldParams, log_x: float, beta0_present: bool, form: BoundForm
) -> BoundReport:
    # epsilon = coeff e^(-rate), with rate 0 in the log form; computed early,
    # the coefficient raises on no input whose threshold computes
    f = _finals_cached(min(field.n_L, _TOP_N0), beta0_present)
    beta0_present = f.cfg.beta0_present  # a bool, where 1 or np.True_ may have been passed
    n = field.n_L
    refined = n <= f.N0
    root = math.sqrt(log_x / n)

    if form is BoundForm.CLASSICAL_ABS:
        cc = classical_constants(f, ClassicalBranch.FULL)
        threshold = cc.c0 * n * field.log_dL**2
        details = {"a0": cc.a0, "b0": cc.b0, "c0": cc.c0}
        if refined:
            cc = classical_constants(f, ClassicalBranch.REFINED)
            details.update({"a0_refined": cc.a0, "b0_refined": cc.b0})
        coeff, rate = cc.a0, cc.b0 * root
    else:
        threshold = f.alpha * f.cfg.m * n * field.log_delta_L**2
        if form is BoundForm.CLASSICAL_NL:
            details = {"C12": f.C12, "C3": f.C3,
                       "exp_full": f.exp_coeff_full, "exp_half": f.exp_coeff_half}
            if refined:
                coeff, rate = f.C3 * n**0.75 * log_x**0.75, f.exp_coeff_half * root
            else:
                coeff, rate = f.C12 * n * n * log_x, f.exp_coeff_full * root
        else:
            # only exp and log read lambda_L, which overflows for m log Delta_L > 709.78
            lam = lambda_L(field, f.cfg.m)
            if form is BoundForm.EXP:
                details = {"max_E12": f.max_E12, "E3": f.E3, "decay": 1.0 / math.sqrt(R2)}
                rate = root / math.sqrt(R2)
                if refined:
                    coeff = f.E3 * math.sqrt(lam) * math.sqrt(log_x)
                else:
                    coeff = f.max_E12 * lam * math.sqrt(n) * math.sqrt(log_x)
            else:
                details = {"D12": f.D12, "D3": f.D3, "k": float(f.k)}
                rate = 0.0
                if refined:
                    coeff = f.D3 * math.sqrt(lam) * n**1.5 / log_x**f.k
                else:
                    coeff = f.D12 * lam * n * n / log_x**f.k

    applicable = log_x >= threshold
    return BoundReport(
        form=form,
        n_L=n,
        log_x=log_x,
        beta0_present=beta0_present,
        threshold=threshold,
        applicable=applicable,
        epsilon=_decayed(coeff, rate) if applicable else None,
        refined_used=refined and applicable,
        exceptional_term="x^(beta0-1)/beta0" if beta0_present else None,
        details=details,
    )


# --------------------------------------------------------------------------
# table regeneration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CellDiff:
    row: str
    column: str
    computed: float
    printed: str
    ok: bool


@dataclass(frozen=True)
class Table:
    table_id: int
    title: str
    columns: tuple[str, ...]
    labels: tuple[str, ...]
    computed: tuple[tuple[float | None, ...], ...]
    printed: tuple[tuple[str | None, ...], ...]
    rel_tol: float | None  # None selects the round-up band policy
    rounding: tuple[str, ...]  # round_like's direction per column of columns[1:]


def _split_tail(cells: tuple) -> tuple[tuple, tuple, tuple]:
    """(row-level..., present block, absent block)"""
    return cells[:-2], cells[-2], cells[-1]


def _split_a0(cells: tuple) -> tuple[tuple, tuple, tuple]:
    """(a0 present, a0 absent, shared tail...): each state repeats the tail"""
    return (), (cells[0], *cells[2:]), (cells[1], *cells[2:])


def _record(*attrs: str) -> Callable[[Any, list[FinalConstants]], tuple]:
    """Row-level cells read off the first state's record: they depend on
    the row alone.  With no attributes no record is read."""
    return lambda key, finals: tuple(getattr(finals[0], a) for a in attrs)


def _table1_cells(n0: int, finals: list[FinalConstants]) -> tuple[float, ...]:
    from .zeros import alpha0, alpha0_prime

    row = minkowski_lookup(n0)
    return (alpha0(0.5, row), alpha0(1.0, row), alpha0(2.0, row),
            alpha0_prime(1.0, row), alpha0_prime(2.0, row))


def _table2_reference() -> dict[str, tuple[str, str]]:
    """Both sections of table 2, keyed by the printed label given=value,
    omega0 rows first; each printed row is (omega0, t0)."""
    rows = {f"omega0={omega_s}": (omega_s, t_s) for omega_s, t_s in pv.TABLE2_OMEGA_TO_T}
    rows.update({f"t0={t_s}": (omega_s, t_s) for t_s, omega_s in pv.TABLE2_T_TO_OMEGA})
    return rows


def _table2_cells(label: str, finals: list[FinalConstants]) -> tuple[float, float]:
    from .zeros import solve_omega0, solve_t0

    value = float(label.split("=")[1])
    return (value, solve_t0(value)) if label.startswith("omega0=") else (solve_omega0(value), value)


def _table3_cells(n0: int, finals: list[FinalConstants]) -> tuple[float, float]:
    row = minkowski_lookup(n0)
    return math.exp(row.log_d0), row.M


def _table7_range_rows(use: tuple[bool, ...]) -> list[tuple[str, list, list]]:
    """Degree-range rows of table 7, at n0 = 21, blank outside their state."""
    rows = []
    for label, present, a0_s, b0_s, c0_s, branch_s in pv.TABLE7_RANGE:
        if present not in use:
            continue
        cc = classical_constants(_finals_cached(_TOP_N0, present), ClassicalBranch(branch_s))
        crow: list[float | None] = [None] * (len(use) * 3)
        prow: list[str | None] = [None] * (len(use) * 3)
        off = use.index(present) * 3
        crow[off:off + 3] = [cc.a0, cc.b0, cc.c0]
        prow[off:off + 3] = [a0_s, b0_s, c0_s]
        rows.append((label, crow, prow))
    return rows


@dataclass(frozen=True)
class _TableSpec:
    """One published table: its title and its printed rows by key, read
    from reference_values at call time, each split into row-level cells and
    one block per exceptional-zero state; the computed row-level cells come
    from the key or the first state's record (by default none), each
    state's block from that state's record.  No state_cells, no blocks."""

    title: str
    reference: Callable[[], Mapping[Any, tuple]]
    columns: tuple[str, ...]  # the label column, then the row-level columns
    row_cells: Callable[[Any, list[FinalConstants]], tuple] = _record()  # (key, records)
    split: Callable[[tuple], tuple[tuple, tuple, tuple]] = lambda cells: (cells, (), ())
    state_columns: tuple[str, ...] = ()
    state_cells: Callable[[FinalConstants], tuple[float, ...]] | None = None
    rel_tol: float | None = None
    extra_rows: Callable[[tuple[bool, ...]], list[tuple[str, list, list]]] | None = None
    inputs: tuple[str, ...] = ()  # the columns the paper supplies rather than bounds


_TABLES = {
    1: _TableSpec("Zero-counting coefficients alpha0(T) and alpha0'(T)", lambda: pv.TABLE1_ALPHA0,
                  ("n0", "alpha0(1/2)", "alpha0(1)", "alpha0(2)", "alpha0'(1)", "alpha0'(2)"),
                  _table1_cells),
    2: _TableSpec("Kernel threshold pairs (omega0, t0)", _table2_reference,
                  ("given", "omega0", "t0"), _table2_cells),
    3: _TableSpec("Minimal discriminants and Minkowski coefficients", lambda: pv.TABLE3_MINKOWSKI,
                  ("n0", "d0", "M"), _table3_cells, inputs=("d0", "M")),
    4: _TableSpec("Main error-term constants (E-family)", lambda: pv.TABLE4,
                  ("n0", "alpha", "log_x0"), _record("alpha", "x0_log"), _split_tail,
                  ("delta0", "max(E1,E2)", "N0", "E3", "E3~"),
                  attrgetter("cfg.delta0", "max_E12", "N0", "E3", "E3_tilde"), inputs=("delta0",)),
    5: _TableSpec("Log-form constants (D-family, k = 1)", lambda: pv.TABLE5, ("n0", "alpha"),
                  _record("alpha"), _split_tail, ("D12", "N0", "D3", "D3~"),
                  attrgetter("D12", "N0", "D3", "D3_tilde")),
    6: _TableSpec("Classical-shape constants (C-family)", lambda: pv.TABLE6,
                  ("n0", "alpha", "exp_full", "exp_half"),
                  _record("alpha", "exp_coeff_full", "exp_coeff_half"), _split_tail,
                  ("N0", "C12", "C3", "C3~"), attrgetter("N0", "C12", "C3", "C3_tilde")),
    7: _TableSpec("Absolute constants (a0, b0, c0), refined per degree",
                  lambda: pv.TABLE7_PER_DEGREE, ("n_L",), split=_split_a0,
                  state_columns=("a0", "b0", "c0"),
                  state_cells=lambda f: attrgetter("a0", "b0", "c0")(
                      classical_constants(f, ClassicalBranch.REFINED)),
                  rel_tol=pv.GUARD_TABLES_REL_TOL, extra_rows=_table7_range_rows, inputs=("b0",)),
    8: _TableSpec("Absolute constants (a0, c0) for all degrees >= n0", lambda: pv.TABLE8, ("n0",),
                  split=_split_a0, state_columns=("a0", "c0"),
                  state_cells=lambda f: attrgetter("a0", "c0")(
                      classical_constants(f, ClassicalBranch.FULL)),
                  rel_tol=pv.GUARD_TABLES_REL_TOL),
}

TABLE_IDS = tuple(_TABLES)


def generate_table(table_id: int, beta0: str = "both") -> Table:
    """Recompute one published table from its one spec in _TABLES.

    beta0 selects the exceptional-zero blocks ('present', 'absent' or
    'both') of tables 4-8; tables 1-3 have none, ignore it and build no
    FinalConstants record.
    """
    table_id = integer(table_id, "table id", TABLE_IDS[0], TABLE_IDS[-1])
    if beta0 not in ("present", "absent", "both"):
        raise DomainError(f"beta0 must be present/absent/both, got {beta0!r}")

    spec = _TABLES[table_id]
    use = (True, False) if beta0 == "both" else (beta0 == "present",)
    if spec.state_cells is None:
        use = ()
    rows = []
    for key, cells in spec.reference().items():
        shared, present_cells, absent_cells = spec.split(cells)
        finals = [_finals_cached(key, present) for present in use]
        crow = list(spec.row_cells(key, finals))
        prow = list(shared)
        for present, f in zip(use, finals):
            crow += spec.state_cells(f)
            prow += present_cells if present else absent_cells
        rows.append((str(key), crow, prow))
    if spec.extra_rows is not None:
        rows += spec.extra_rows(use)

    state_names = [f"{c} [{'present' if p else 'absent'}]" for p in use for c in spec.state_columns]
    return Table(table_id, spec.title, (*spec.columns, *state_names),
                 tuple(label for label, _, _ in rows),
                 tuple(tuple(c) for _, c, _ in rows),
                 tuple(tuple(p) for _, _, p in rows), spec.rel_tol,
                 tuple("nearest" if c in spec.inputs else "up"
                       for c in (*spec.columns[1:], *spec.state_columns * len(use))))


def diff_table(table: Table) -> list[CellDiff]:
    """Compare every computed cell against its printed baseline.

    Cells listed in the errata table are compared against the corrected
    baseline and reported with both values.
    """
    out: list[CellDiff] = []
    for label, crow, prow in zip(table.labels, table.computed, table.printed):
        for col, c, p in zip(table.columns[1:], crow, prow):
            if p is None or c is None:
                continue
            erratum = pv.ERRATA.get((table.table_id, label, col))
            if erratum is not None:
                corrected, reason = erratum
                ok = pv.matches_printed(c, corrected, rel_tol=table.rel_tol)
                p = f"{corrected} (erratum, {reason}; printed {p})"
            else:
                ok = pv.matches_printed(c, p, rel_tol=table.rel_tol)
            out.append(CellDiff(label, col, c, p, ok))
    return out


# --------------------------------------------------------------------------
# headline corollary constants
# --------------------------------------------------------------------------

def corollary_constants() -> dict[str, dict[str, float]]:
    """Headline constants of the four numerical corollaries.

    Bound coefficients are returned unrounded (the published quotes round
    them up at 3-4 significant digits, which the acceptance suite checks
    under the same band policy as the tables); thresholds are rounded up
    to integers and exponent coefficients down at three decimals, both of
    which reproduce the published quotes exactly.

    All wide-range entries come from the exceptional-zero-present state,
    which dominates; refined entries additionally need n_L below the
    degree ceiling of the relevant row.
    """
    f2 = _finals_cached(2, True)
    worst_exp_half = min(_finals_cached(n0, True).exp_coeff_half for n0 in pv.TABLE6)
    full2 = classical_constants(f2, ClassicalBranch.FULL)
    refined_top = classical_constants(_finals_cached(_TOP_N0, True), ClassicalBranch.REFINED)
    # each exponent coefficient's exact value, floored at three decimals
    decay, decay_general, decay_refined = (
        float(pv.round_like(v, "0.000", "down"))
        for v in (1.0 / math.sqrt(R2), f2.exp_coeff_full, worst_exp_half))

    return {
        "exp": {
            "threshold": float(math.ceil(f2.alpha)),
            "general": f2.E3_tilde,
            "refined": f2.E3,
            "decay": decay,
        },
        "log": {"general": f2.D3_tilde, "refined": f2.D3},
        "classical": {
            "general": f2.C12,
            "refined": f2.C3,
            "decay_general": decay_general,
            "decay_refined": decay_refined,
        },
        "absolute": {
            "threshold": float(math.ceil(full2.c0)),
            "a0_general": full2.a0,
            "b0_general": full2.b0,
            "a0_refined": refined_top.a0,
            "b0_refined": refined_top.b0,
        },
    }
