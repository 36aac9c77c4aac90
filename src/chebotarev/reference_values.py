"""Published reference values for the constant tables, embedded verbatim.

These strings are the diff baseline the table generator checks itself
against.  They are also the one source of the published inputs: the
Minkowski rows (d0, M) of table 3, which invariants parses into
MINKOWSKI_TABLE, delta0 of table 4 (DELTA0 below), and b0 of table 7's
degree-range rows, which assembly reads as each branch's default.

They are kept as printed (including trailing zeros) because the
comparison tolerance is derived from the number of digits shown: published
values were nominally rounded up at the last printed digit, but a few
cells were rounded to nearest and a few sit almost two units below an
exact recomputation (their pipeline rounded some intermediates), so a
recomputed value v is accepted within the symmetric band

    printed - 2u < v < printed + 2u,       u = one unit in the last digit.

That is still a relative agreement of a few parts in 10^6 for most cells.
The (a0, b0, c0) tables 7 and 8 use a relative tolerance of 1e-2
instead.  Why is still open (ROADMAP item 5): a0 recomputed from table
6's printed, already-rounded inputs is off by up to 1 260 last-digit
units on table 7 and 1 661 on table 8, so input rounding does not
explain their gap to a full-precision recomputation.

One exact reader serves both the band and the published-style output: a
cell is read as a decimal.  The band works out its edges exactly from it,
and round_like rounds a float's exact binary value at its last digit, so
a value a hair past a printed boundary is never taken for the boundary
itself.  round_like rounds up a computed bound, down an exponent
coefficient (the corollaries floor them) and to nearest the columns in
INPUT_COLUMNS, which the paper supplies rather than bounds.
parse_printed is not correctly rounded, and stays only because DELTA0 is
parsed with it: the constants computed from those delta0 bits are
recorded in the benchmark goldens.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_PREC, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal

from .errors import DomainError

__all__ = [
    "parse_printed",
    "last_digit_unit",
    "matches_printed",
    "round_like",
    "INPUT_COLUMNS",
    "published_direction",
    "TABLE1_ALPHA0",
    "TABLE2_OMEGA_TO_T",
    "TABLE2_T_TO_OMEGA",
    "TABLE3_MINKOWSKI",
    "TABLE4",
    "TABLE5",
    "TABLE6",
    "TABLE7_PER_DEGREE",
    "TABLE7_RANGE",
    "TABLE8",
    "DELTA0",
    "GUARD_TABLES_REL_TOL",
]

_SCI = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?)\s*[eE]\s*([+-]?\d+)\s*$")


def parse_printed(s: str) -> float:
    """Parse a printed cell like '40.1778', '2.26E-03' or '1.0073 E4'."""
    m = _SCI.match(s)
    if m:
        return float(m.group(1)) * 10.0 ** int(m.group(2))
    return float(s)


# wide enough that every operation on a double's exact decimal value is exact
_EXACT = Context(prec=MAX_PREC)


def _read(s: str) -> tuple[Decimal, int, int, bool]:
    """A printed cell exactly: (its decimal value, whose exponent is that of
    the last printed digit; the mantissa's decimal places; the decimal
    exponent; scientific?)."""
    m = _SCI.match(s)
    mant, exp = (m.group(1), int(m.group(2))) if m else (s.strip(), 0)
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    return Decimal(mant).scaleb(exp, _EXACT), decimals, exp, m is not None


def last_digit_unit(s: str) -> float:
    """One unit in the last printed digit of the cell string."""
    _, decimals, exp, _ = _read(s)
    return 10.0 ** (exp - decimals)


def matches_printed(computed: float, printed: str, rel_tol: float | None = None) -> bool:
    """Accept computed against a printed cell.

    Default policy is the open band printed - 2u < computed < printed + 2u;
    a relative tolerance replaces it with the closed band
    |computed - printed| <= rel_tol |printed| when given.  Each edge is
    worked out exactly from the printed decimal, then rounded once to the
    nearest double, so the double that stands for an edge (40.1780 against
    40.1778) lies on it, outside the open band.  A NaN matches nothing.
    """
    target, decimals, exp, _ = _read(printed)
    if rel_tol is None:
        half = Decimal(2).scaleb(exp - decimals)
    else:
        half = _EXACT.multiply(Decimal(rel_tol), abs(target))
    lo, hi = float(_EXACT.subtract(target, half)), float(_EXACT.add(target, half))
    return lo < computed < hi if rel_tol is None else lo <= computed <= hi


_ROUNDING = {"up": ROUND_CEILING, "down": ROUND_FLOOR, "nearest": ROUND_HALF_EVEN}


def round_like(value: float, template: str, direction: str) -> str:
    """The exact binary value of value rounded at the last printed digit of
    the template cell, 'up', 'down' or to 'nearest' (ties to even), in the
    template's style (plain or scientific)."""
    if direction not in _ROUNDING:
        raise DomainError(f"direction must be one of {tuple(_ROUNDING)}, got {direction!r}")
    if not math.isfinite(value):
        raise DomainError(f"only a finite value can be printed, got {value}")
    unit, decimals, exp, sci = _read(template)
    mant = Decimal(value).quantize(unit, _ROUNDING[direction], _EXACT).scaleb(-exp, _EXACT)
    return f"{mant:.{decimals}f}" + (f"E{exp:+03d}" if sci else "")


# Tables with a plain round-up band; ids 7 and 8 use this relative
# tolerance instead (why they need it is open, see the module docstring).
GUARD_TABLES_REL_TOL = 1e-2

# Cells whose printed value is inconsistent with the publication's own
# pipeline.  Keyed by (table id, row label, column name); the value is the
# string actually used as the comparison baseline, with the reason.
ERRATA: dict[tuple[int, str, str], tuple[str, str]] = {
    # With the published alpha = 394.15 and E3 = 0.09767 of the same row,
    # E3/sqrt(e sqrt(alpha)) = 1.3295e-2; the printed 1.323E-2 cannot come
    # from the stated formula.
    (6, "11", "C3 [absent]"): ("1.3295E-2", "inconsistent with printed E3"),
    # The same quantity is printed as 519.59 in the two companion tables;
    # the trailing zero here overstates the published precision.
    (6, "21", "N0 [absent]"): ("519.59", "over-printed final digit"),
}


# --- zero-counting coefficients --------------------------------------------
# n0 -> (alpha0(1/2), alpha0(1), alpha0(2), alpha0'(1), alpha0'(2))
TABLE1_ALPHA0: dict[int, tuple[str, str, str, str, str]] = {
    2: ("36.0416", "40.1778", "52.4347", "45.0838", "44.8487"),
    3: ("18.5920", "20.7192", "27.0288", "23.2331", "23.2605"),
    4: ("15.9830", "17.8055", "23.2168", "20.1463", "20.2091"),
    5: ("13.0111", "14.4971", "18.9071", "16.1955", "16.3079"),
    6: ("12.4404", "13.8590", "18.0713", "15.5438", "15.6635"),
    7: ("11.1248", "12.3959", "16.1678", "13.7372", "13.8800"),
    8: ("10.9182", "12.1647", "15.8643", "13.5161", "13.6612"),
    9: ("10.2616", "11.4346", "14.9148", "12.6055", "12.7623"),
    10: ("10.1957", "11.3602", "14.8164", "12.5560", "12.7132"),
    11: ("9.6703", "10.7765", "14.0581", "11.8096", "11.9765"),
    12: ("9.6569", "10.7608", "14.0364", "11.8212", "11.9877"),
    13: ("9.2696", "10.3307", "13.4778", "11.2655", "11.4392"),
    14: ("9.2793", "10.3410", "13.4902", "11.3018", "11.4750"),
    15: ("8.9781", "10.0066", "13.0560", "10.8663", "11.0452"),
    16: ("9.0005", "10.0310", "13.0870", "10.9163", "11.0945"),
    17: ("8.7555", "9.7590", "12.7340", "10.5595", "10.7423"),
    18: ("8.7833", "9.7896", "12.7731", "10.6141", "10.7961"),
    19: ("8.5795", "9.5634", "12.4795", "10.3158", "10.5017"),
    20: ("8.6100", "9.5970", "12.5226", "10.3720", "10.5571"),
    21: ("8.5458", "9.5256", "12.4297", "10.2832", "10.4694"),
}

# --- kernel threshold pairs -------------------------------------------------
TABLE2_OMEGA_TO_T: tuple[tuple[str, str], ...] = (
    ("1", "39.217"), ("2", "22.479"), ("3", "16.364"), ("4", "13.116"),
    ("5", "11.077"), ("6", "9.666"), ("7", "8.625"), ("8", "7.823"),
    ("9", "7.183"), ("10", "6.660"),
)
TABLE2_T_TO_OMEGA: tuple[tuple[str, str], ...] = (
    ("1", "291.601"), ("2", "64.860"), ("3", "32.718"), ("4", "20.945"),
    ("5", "15.053"), ("6", "11.586"), ("7", "9.330"), ("8", "7.758"),
    ("9", "6.607"), ("10", "5.732"),
)

# --- Minimal-discriminant table (degree, d0, M) ----------------------------
TABLE3_MINKOWSKI: dict[int, tuple[str, str]] = {
    2: ("3", "1.82048"), 3: ("23", "0.956787"), 4: ("117", "0.839953"),
    5: ("1609", "0.677198"), 6: ("9747", "0.653259"), 7: ("184607", "0.577273"),
    8: ("1257728", "0.569605"), 9: ("2.29E7", "0.531078"), 10: ("1.56E8", "0.530072"),
    11: ("3.91E9", "0.498035"), 12: ("2.74E10", "0.499297"), 13: ("7.56E11", "0.475297"),
    14: ("5.43E12", "0.477442"), 15: ("1.61E14", "0.458541"), 16: ("1.17E15", "0.461151"),
    17: ("3.70E16", "0.445613"), 18: ("2.73E17", "0.448338"), 19: ("9.03E18", "0.435310"),
    20: ("6.74E19", "0.438047"), 21: ("1E21", "0.434294"),
}

# --- Main-theorem constants ------------------------------------------------
# n0 -> (alpha, log x0,
#        beta0 present: (delta0, max(E1,E2), N0, E3, E3~),
#        beta0 absent:  (delta0, max(E1,E2), N0, E3, E3~))
TABLE4: dict[int, tuple[str, str, tuple[str, ...], tuple[str, ...]]] = {
    2: ("2914.82", "1759",
        ("2.26E-03", "0.28649", "2.003", "0.44511", "0.27134"),
        ("3.20E-03", "0.20275", "2.003", "0.31501", "0.19203")),
    3: ("1004.56", "3292",
        ("1.92E-03", "0.05216", "3.005", "0.28090", "0.05172"),
        ("2.71E-03", "0.03695", "3.000", "0.19872", "0.03659")),
    4: ("822.49", "4663.1",
        ("2.26E-03", "0.02557", "4.009", "0.24256", "0.02547"),
        ("3.19E-03", "0.01812", "4.003", "0.17160", "0.01802")),
    5: ("599.17", "6532.6",
        ("2.02E-03", "0.01225", "5.010", "0.20219", "0.01225"),
        ("2.85E-03", "8.6637E-03", "5.001", "0.14304", "8.6637E-03")),
    6: ("569.3", "8004.2",
        ("2.35E-03", "8.4069E-03", "6.002", "0.18914", "8.4069E-03"),
        ("3.33E-03", "5.9476E-03", "6.007", "0.13381", "5.9476E-03")),
    7: ("479.55", "1.0073E4",
        ("2.17E-03", "5.2678E-03", "7.021", "0.16900", "5.2678E-03"),
        ("3.06E-03", "3.7266E-03", "7.006", "0.11956", "3.7266E-03")),
    8: ("470.92", "1.1611E4",
        ("2.48E-03", "4.0823E-03", "8.016", "0.16217", "4.0823E-03"),
        ("3.50E-03", "2.8882E-03", "8.003", "0.11473", "2.8882E-03")),
    9: ("428.75", "1.3681E4",
        ("2.41E-03", "2.9687E-03", "9.015", "0.15093", "2.9687E-03"),
        ("3.41E-03", "2.1003E-03", "9.015", "0.10678", "2.1003E-03")),
    10: ("427.67", "1.5221E4",
        ("2.73E-03", "2.4617E-03", "10.002", "0.14686", "2.4617E-03"),
        ("3.87E-03", "1.7417E-03", "10.014", "0.10391", "1.7417E-03")),
    11: ("394.15", "1.7480E4",
        ("2.61E-03", "1.8846E-03", "11.026", "0.13805", "1.8846E-03"),
        ("3.69E-03", "1.3333E-03", "11.019", "0.09767", "1.3333E-03")),
    12: ("395.45", "1.9035E4",
        ("2.93E-03", "1.6252E-03", "12.026", "0.13531", "1.6252E-03"),
        ("4.14E-03", "1.1499E-03", "12.014", "0.09574", "1.1499E-03")),
    13: ("371.19", "2.1360E4",
        ("2.81E-03", "1.3049E-03", "13.009", "0.12868", "1.3049E-03"),
        ("3.98E-03", "9.2322E-04", "13.017", "0.09104", "9.2322E-04")),
    14: ("373.33", "2.2928E4",
        ("3.13E-03", "1.1547E-03", "14.028", "0.12669", "1.1547E-03"),
        ("4.42E-03", "8.1702E-04", "14.009", "0.08964", "8.1702E-04")),
    15: ("354.71", "2.5305E4",
        ("3.02E-03", "9.5867E-04", "15.004", "0.12146", "9.5867E-04"),
        ("4.28E-03", "6.7832E-04", "15.019", "0.08594", "6.7832E-04")),
    16: ("357.25", "2.6879E4",
        ("3.33E-03", "8.6431E-04", "16.002", "0.11995", "8.6431E-04"),
        ("4.72E-03", "6.1159E-04", "16.019", "0.08488", "6.1159E-04")),
    17: ("342.25", "2.9300E4",
        ("3.24E-03", "7.3537E-04", "17.019", "0.11567", "7.3537E-04"),
        ("4.58E-03", "5.2033E-04", "17.007", "0.08185", "5.2033E-04")),
    18: ("344.86", "3.0882E4",
        ("3.55E-03", "6.7207E-04", "18.031", "0.11448", "6.7207E-04"),
        ("5.02E-03", "4.7558E-04", "18.021", "0.08101", "4.7558E-04")),
    19: ("336.07", "3.3696E4",
        ("3.26E-03", "5.8200E-04", "19.035", "0.11073", "5.8200E-04"),
        ("4.61E-03", "4.1182E-04", "19.025", "0.07835", "4.1182E-04")),
    20: ("337.66", "3.5193E4",
        ("3.60E-03", "5.3776E-04", "20.009", "0.10980", "5.3776E-04"),
        ("5.10E-03", "3.8054E-04", "20.022", "0.07770", "3.8054E-04")),
    21: ("335.48", "3.7351E4",
        ("0.99999", "7.6933E-04", "654.650", "0.17047", "7.6933E-04"),
        ("0.99999", "5.4400E-04", "519.59", "0.12054", "5.4400E-04")),
}

# delta0 per (row, beta0 state), parsed from the table above.
DELTA0: dict[tuple[int, bool], float] = {
    (n0, present): parse_printed(states[2 if present else 3][0])
    for n0, states in TABLE4.items()
    for present in (True, False)
}

# The columns the paper supplies as inputs rather than bounds, by table id:
# table 3's Minkowski rows (d0, M) above, table 4's delta0 (DELTA0 above)
# and table 7's b0 (the per-degree and range rows below).  Published-style
# output prints them to nearest; every computed cell rounds up.
INPUT_COLUMNS: dict[int, tuple[str, ...]] = {3: ("d0", "M"), 4: ("delta0",), 7: ("b0",)}


def published_direction(table_id: int, column: str) -> str:
    """round_like's direction for a cell of a table column ('delta0
    [present]' is column delta0): nearest for an input, up for a bound."""
    return "nearest" if column.split(" [")[0] in INPUT_COLUMNS.get(table_id, ()) else "up"


# --- log-form constants (k = 1) --------------------------------------------
# n0 -> (alpha, (D12, N0, D3, D3~) present, (D12, N0, D3, D3~) absent)
TABLE5: dict[int, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    2: ("2914.82", ("1.5568", "2.003", "2.4187", "1.4744"),
        ("1.1018", "2.003", "1.7118", "1.0435")),
    3: ("1004.56", ("1.4654E-1", "3.005", "7.8910E-1", "1.4530E-1"),
        ("1.0379E-1", "3.000", "5.5825E-1", "1.0279E-1")),
    4: ("822.49", ("5.8817E-2", "4.009", "5.5787E-1", "5.8573E-2"),
        ("4.1663E-2", "4.003", "3.9468E-1", "4.1439E-2")),
    5: ("599.17", ("1.8856E-2", "5.010", "3.1131E-1", "1.8856E-2"),
        ("1.3339E-2", "5.001", "2.2023E-1", "1.3339E-2")),
    6: ("569.30", ("1.1985E-2", "6.002", "2.6964E-1", "1.1985E-2"),
        ("8.4791E-3", "6.007", "1.9076E-1", "8.4791E-3")),
    7: ("479.55", ("5.6230E-3", "7.021", "1.8040E-1", "5.6230E-3"),
        ("3.9779E-3", "7.006", "1.2762E-1", "3.9779E-3")),
    8: ("470.92", ("4.2129E-3", "8.016", "1.6736E-1", "4.2129E-3"),
        ("2.9805E-3", "8.003", "1.1840E-1", "2.9805E-3")),
    9: ("428.75", ("2.5453E-3", "9.015", "1.2940E-1", "2.5453E-3"),
        ("1.8007E-3", "9.015", "9.1550E-2", "1.8007E-3")),
    10: ("427.67", ("2.0996E-3", "10.002", "1.2526E-1", "2.0996E-3"),
        ("1.4855E-3", "10.014", "8.8623E-2", "1.4855E-3")),
    11: ("394.15", ("1.3451E-3", "11.026", "9.8535E-2", "1.3451E-3"),
        ("9.5167E-4", "11.019", "6.9713E-2", "9.5167E-4")),
    12: ("395.45", ("1.1687E-3", "12.026", "9.7304E-2", "1.1687E-3"),
        ("8.2693E-4", "12.014", "6.8847E-2", "8.2693E-4")),
    13: ("371.19", ("8.0811E-4", "13.009", "7.9693E-2", "8.0811E-4"),
        ("5.7176E-4", "13.017", "5.6385E-2", "5.7176E-4")),
    14: ("373.33", ("7.2519E-4", "14.028", "7.9565E-2", "7.2519E-4"),
        ("5.1312E-4", "14.009", "5.6298E-2", "5.1312E-4")),
    15: ("354.71", ("5.2964E-4", "15.004", "6.7102E-2", "5.2964E-4"),
        ("3.7475E-4", "15.019", "4.7479E-2", "3.7475E-4")),
    16: ("357.25", ("4.8636E-4", "16.002", "6.7498E-2", "4.8636E-4"),
        ("3.4415E-4", "16.019", "4.7762E-2", "3.4415E-4")),
    17: ("342.25", ("3.6968E-4", "17.019", "5.8148E-2", "3.6968E-4"),
        ("2.6158E-4", "17.007", "4.1145E-2", "2.6158E-4")),
    18: ("344.86", ("3.4481E-4", "18.031", "5.8734E-2", "3.4481E-4"),
        ("2.4400E-4", "18.021", "4.1562E-2", "2.4400E-4")),
    19: ("336.07", ("2.5749E-4", "19.035", "4.8988E-2", "2.5749E-4"),
        ("1.8220E-4", "19.025", "3.4663E-2", "1.8220E-4")),
    20: ("337.66", ("2.4644E-4", "20.009", "5.0320E-2", "2.4644E-4"),
        ("1.7439E-4", "20.022", "3.5608E-2", "1.7439E-4")),
    21: ("335.48", ("3.3591E-4", "654.65", "7.4434E-2", "3.3591E-4"),
        ("2.3753E-4", "519.59", "5.2633E-2", "2.3753E-4")),
}

# --- classical-shape constants ----------------------------------------------
# n0 -> (alpha, 1/sqrt(R2)-1/sqrt(alpha), 1/sqrt(R2)-1/(2 sqrt(alpha)),
#        (N0, C12, C3, C3~) present, (N0, C12, C3, C3~) absent)
TABLE6: dict[int, tuple[str, str, str, tuple[str, ...], tuple[str, ...]]] = {
    2: ("2914.82", "0.26730", "0.27656",
        ("2.003", "1.952E-3", "3.674E-2", "1.813E-3"),
        ("2.003", "1.382E-3", "2.600E-2", "1.283E-3")),
    3: ("1004.56", "0.25427", "0.27004",
        ("3.005", "6.055E-4", "3.026E-2", "6.001E-4"),
        ("3.000", "4.289E-4", "2.141E-2", "4.245E-4")),
    4: ("822.49", "0.25095", "0.26838",
        ("4.009", "3.280E-4", "2.747E-2", "3.241E-4"),
        ("4.003", "2.324E-4", "1.944E-2", "2.293E-4")),
    5: ("599.17", "0.24497", "0.26539",
        ("5.010", "1.841E-4", "2.479E-2", "1.762E-4"),
        ("5.001", "1.302E-4", "1.754E-2", "1.247E-4")),
    6: ("569.30", "0.24391", "0.26486",
        ("6.002", "1.296E-4", "2.349E-2", "1.230E-4"),
        ("6.007", "9.170E-5", "1.662E-2", "8.701E-5")),
    7: ("479.55", "0.24015", "0.26299",
        ("7.021", "8.850E-5", "2.190E-2", "8.076E-5"),
        ("7.006", "6.260E-5", "1.550E-2", "5.714E-5")),
    8: ("470.92", "0.23974", "0.26278",
        ("8.016", "6.921E-5", "2.111E-2", "6.285E-5"),
        ("8.003", "4.896E-5", "1.494E-2", "4.446E-5")),
    9: ("428.75", "0.23752", "0.26167",
        ("9.015", "5.274E-5", "2.012E-2", "4.654E-5"),
        ("9.015", "3.731E-5", "1.423E-2", "3.293E-5")),
    10: ("427.67", "0.23746", "0.26164",
        ("10.002", "4.380E-5", "1.959E-2", "3.861E-5"),
        ("10.014", "3.098E-5", "1.386E-2", "2.732E-5")),
    11: ("394.15", "0.23545", "0.26063",
        ("11.026", "3.492E-5", "1.879E-2", "2.990E-5"),
        ("11.019", "2.471E-5", "1.323E-2", "2.115E-5")),
    12: ("395.45", "0.23553", "0.26067",
        ("12.026", "3.007E-5", "1.840E-2", "2.577E-5"),
        ("12.014", "2.127E-5", "1.302E-2", "1.824E-5")),
    13: ("371.19", "0.23391", "0.25987",
        ("13.009", "2.492E-5", "1.778E-2", "2.081E-5"),
        ("13.017", "1.763E-5", "1.258E-2", "1.472E-5")),
    14: ("373.33", "0.23406", "0.25994",
        ("14.028", "2.199E-5", "1.748E-2", "1.841E-5"),
        ("14.009", "1.556E-5", "1.237E-2", "1.302E-5")),
    15: ("354.71", "0.23272", "0.25927",
        ("15.004", "1.873E-5", "1.698E-2", "1.532E-5"),
        ("15.019", "1.325E-5", "1.201E-2", "1.084E-5")),
    16: ("357.25", "0.23291", "0.25937",
        ("16.002", "1.682E-5", "1.673E-2", "1.381E-5"),
        ("16.019", "1.190E-5", "1.184E-2", "9.773E-6")),
    17: ("342.25", "0.23176", "0.25879",
        ("17.019", "1.462E-5", "1.631E-2", "1.176E-5"),
        ("17.007", "1.035E-5", "1.154E-2", "8.321E-6")),
    18: ("344.86", "0.23197", "0.25889",
        ("18.031", "1.331E-5", "1.611E-2", "1.075E-5"),
        ("18.021", "9.421E-6", "1.140E-2", "7.605E-6")),
    19: ("336.07", "0.23127", "0.25854",
        ("19.035", "1.168E-5", "1.569E-2", "9.254E-6"),
        ("19.025", "8.264E-6", "1.110E-2", "6.548E-6")),
    20: ("337.66", "0.23140", "0.25861",
        ("20.009", "1.077E-5", "1.554E-2", "8.565E-6"),
        ("20.022", "7.619E-6", "1.099E-2", "6.061E-6")),
    21: ("335.48", "0.23122", "0.25852",
        ("654.650", "1.545E-5", "2.416E-2", "1.222E-5"),
        ("519.590", "1.093E-5", "1.708E-2", "8.644E-6")),
}

# --- absolute-constant tables ------------------------------------------------
# per-degree refined rows: n_L -> (a0 present, a0 absent, b0, c0)
TABLE7_PER_DEGREE: dict[int, tuple[str, str, str, str]] = {
    2: ("46.1831", "32.6846", "0.25", "728.705"),
    3: ("137.697", "97.4145", "0.25", "111.618"),
    4: ("238.328", "168.612", "0.25", "51.4056"),
    5: ("470.197", "332.625", "0.25", "23.9668"),
    6: ("640.325", "453.008", "0.25", "15.8139"),
    7: ("1066.09", "754.188", "0.25", "9.78673"),
    8: ("1309.41", "926.389", "0.25", "7.35812"),
    9: ("1886.57", "1334.69", "0.25", "5.29321"),
    10: ("2166.54", "1532.86", "0.25", "4.27670"),
    11: ("3045.99", "2155.04", "0.25", "3.25744"),
    12: ("3364.38", "2380.43", "0.25", "2.74618"),
    13: ("4520.51", "3198.42", "0.25", "2.19639"),
    14: ("4868.41", "3444.76", "0.25", "1.90474"),
    15: ("6321.82", "4473.06", "0.25", "1.57649"),
    16: ("6680.25", "4726.91", "0.25", "1.39551"),
    17: ("8456.72", "5983.82", "0.25", "1.18426"),
    18: ("8822.43", "6243.00", "0.25", "1.06438"),
    19: ("10248.5", "7251.71", "0.25", "0.93095"),
    20: ("10779.4", "7628.01", "0.25", "0.84415"),
}

# range rows: (label, beta0_present, a0, b0, c0, branch)
TABLE7_RANGE: tuple[tuple[str, bool, str, str, str, str], ...] = (
    ("21 to 654", True, "18457.3", "0.25", "0.76073", "refined"),
    ("21 to 519", False, "13051.2", "0.25", "0.76073", "refined"),
    (">= 655", True, "1.480E10", "0.23", "0.76073", "full"),
    (">= 520", False, "1.047E10", "0.23", "0.76073", "full"),
)

# all-degree rows (exponential branch, b0 = 0.23): n0 -> (a0 present, a0 absent, c0)
TABLE8: dict[int, tuple[str, str, str]] = {
    2: ("174.707", "123.643", "728.705"),
    3: ("1125.19", "797.005", "111.618"),
    4: ("2752.61", "1949.78", "51.4056"),
    5: ("13667.2", "9668.48", "23.9668"),
    6: ("23258.1", "16454.4", "15.8139"),
    7: ("1.085E5", "76773.3", "9.78673"),
    8: ("1.542E5", "1.091E5", "7.35812"),
    9: ("5.669E5", "4.010E5", "5.29321"),
    10: ("6.712E5", "4.749E5", "4.27670"),
    11: ("3.219E6", "2.278E6", "3.25744"),
    12: ("3.345E6", "2.367E6", "2.74618"),
    13: ("1.884E7", "1.333E7", "2.19639"),
    14: ("1.733E7", "1.226E7", "1.90474"),
    15: ("1.285E8", "9.094E7", "1.57649"),
    16: ("1.008E8", "7.133E7", "1.39551"),
    17: ("1.238E9", "8.758E8", "1.18426"),
    18: ("7.774E8", "5.501E8", "1.06438"),
    19: ("6.863E9", "4.856E9", "0.93095"),
    20: ("4.601E9", "3.256E9", "0.84415"),
    21: ("1.480E10", "1.047E10", "0.76073"),
}
