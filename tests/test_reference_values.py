"""Parsing, tolerance, and formatting helpers for the embedded baselines."""

import math
import random
from decimal import (MAX_PREC, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal,
                     localcontext)

import pytest

from chebotarev import reference_values as pv
from chebotarev.errors import DomainError
from chebotarev.reference_values import (DELTA0, GUARD_TABLES_REL_TOL, TABLE4, TABLE6,
                                         TABLE7_PER_DEGREE, TABLE7_RANGE, TABLE8, _read,
                                         matches_printed, round_like)


class TestParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("40.1778", 40.1778),
            ("2.26E-03", 2.26e-3),
            ("1.0073E4", 10073.0),
            ("1759", 1759.0),
            ("1E21", 1e21),
            ("7.6933E-04", 7.6933e-4),
        ],
    )
    def test_parse(self, text, value):
        # the exact reader's n 10^e rounds to the double float() gives
        n, e, *_ = _read(text)
        assert float(Decimal(n).scaleb(e)) == value
        assert Decimal(n).scaleb(e) == Decimal(text)

    @pytest.mark.parametrize(
        "text,unit",
        [
            ("40.1778", 1e-4),
            ("2.26E-03", 1e-5),
            ("1.0073E4", 1.0),
            ("1759", 1.0),
            ("0.99999", 1e-5),
            ("519.59", 1e-2),
            ("519.590", 1e-3),
        ],
    )
    def test_last_digit_unit(self, text, unit):
        # the reader carries the last printed digit's exponent e, which
        # round_like rounds at and matches_printed's band scales
        _, e, decimals, exp, _ = _read(text)
        assert e == exp - decimals == Decimal(text).as_tuple().exponent
        assert Decimal(1).scaleb(e) == Decimal(repr(unit))

    def test_delta0_legacy_bits(self):
        # DELTA0 keeps the bits the benchmark goldens were computed from;
        # they differ from float() of the printed cell at exactly these keys
        moved = {(n0, present) for (n0, present), delta0 in DELTA0.items()
                 if delta0 != float(TABLE4[n0][2 if present else 3][0])}
        assert len(DELTA0) == 40
        assert moved == {(7, False), (9, False), (9, True), (10, True), (12, True),
                         (17, True), (18, False), (18, True), (20, False), (20, True)}


class TestMatching:
    def test_band_accepts_round_up_neighborhood(self):
        # value that was rounded up to the printed cell
        assert matches_printed(40.17777, "40.1778")
        # value a hair above a nearest-rounded cell
        assert matches_printed(52.43471, "52.4347")
        # two units below is already out
        assert not matches_printed(40.1776, "40.1778")
        assert not matches_printed(40.1780, "40.1778")

    def test_relative_override(self):
        assert matches_printed(1.48e10, "1.480E10", rel_tol=1e-2)
        assert not matches_printed(1.55e10, "1.480E10", rel_tol=1e-2)


class TestRoundUpFormatting:
    def test_plain_decimal(self):
        assert round_like(2.00255, "2.003", "up") == "2.003"
        assert round_like(2.0031, "2.003", "up") == "2.004"
        assert round_like(1759.02, "1759", "up") == "1760"

    def test_scientific(self):
        assert round_like(2.259e-3, "2.26E-03", "up") == "2.26E-03"
        assert round_like(7.69321e-4, "7.6933E-04", "up") == "7.6933E-04"

    def test_idempotent_on_exact(self):
        # the double nearest 0.28649 lies 2.2e-17 above it, so only the
        # nearest rule gives the printed cell back; up gives 0.28650
        assert round_like(0.28649, "0.28649", "nearest") == "0.28649"
        assert round_like(0.28649, "0.28649", "up") == "0.28650"

    def test_a_hair_above_a_boundary_rounds_up(self):
        assert round_like(2.0030000000001, "2.003", "up") == "2.004"
        assert round_like(2.0030000000001, "2.003", "down") == "2.003"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, value):
        with pytest.raises(DomainError):
            round_like(value, "2.003", "up")
        assert not matches_printed(value, "2.003")
        assert not matches_printed(value, "1.480E10", rel_tol=1e-2)

    def test_unknown_direction(self):
        with pytest.raises(DomainError):
            round_like(2.0, "2.003", "ceiling")


def _templates(obj):
    """Every printed number among the strings of a reference table."""
    if isinstance(obj, str):
        try:
            float(obj)
        except ValueError:
            return
        yield obj
    elif isinstance(obj, (tuple, dict)):
        for item in (obj.values() if isinstance(obj, dict) else obj):
            yield from _templates(item)


TEMPLATES = sorted({t for name in pv.__all__ if name.startswith("TABLE")
                    for t in _templates(getattr(pv, name))})


def test_every_template_is_collected():
    assert len(TEMPLATES) > 500
    assert {"3", "1E21", "2.26E-03", "1.0073E4", "0.99999", "0.23"} <= set(TEMPLATES)


_QUANTIZE = {"up": ROUND_CEILING, "down": ROUND_FLOOR, "nearest": ROUND_HALF_EVEN}


def _decimal_round_like(value, template, direction):
    """round_like's cell from decimal arithmetic, as an independent oracle."""
    mant_text, _, exp_text = template.upper().partition("E")
    places, exp = -Decimal(mant_text).as_tuple().exponent, int(exp_text or 0)
    unit = Decimal(1).scaleb(exp - places)
    mant = Decimal(value).quantize(unit, _QUANTIZE[direction]).scaleb(-exp)
    return f"{mant:.{places}f}" + (f"E{exp:+03d}" if exp_text else "")


def test_rounding_rule():
    # values on each template's grid of last-digit units and halfway
    # between, their negatives, and one ulp to either side of each: up
    # lands on the value or less than a unit above it, down on it or less
    # than a unit below, nearest within half a unit, each as the decimal
    # oracle rounds it; +-0.0 keep their sign
    rng = random.Random(25)
    with localcontext(Context(prec=MAX_PREC)):
        for template in TEMPLATES:
            exact = Decimal(template)
            unit = Decimal(1).scaleb(exact.as_tuple().exponent)
            values = {0.0, -0.0}
            for k in [0] + [rng.randint(-50, 50) for _ in range(4)]:
                for offset in (k * unit, (k + Decimal("0.5")) * unit):
                    for point in (float(exact + offset), -float(exact + offset)):
                        values |= {math.nextafter(point, -math.inf), point,
                                   math.nextafter(point, math.inf)}
            for v in values:
                x = Decimal(v)
                up, down, near = (round_like(v, template, d) for d in ("up", "down", "nearest"))
                for direction, printed in zip(("up", "down", "nearest"), (up, down, near)):
                    assert printed == _decimal_round_like(v, template, direction), (
                        template, v, direction, printed)
                    assert Decimal(printed).as_tuple().exponent == exact.as_tuple().exponent
                    assert printed.startswith("-") == (math.copysign(1.0, v) < 0)
                up, down, near = map(Decimal, (up, down, near))
                assert x <= up < x + unit, (template, v, up)
                assert x - unit < down <= x, (template, v, down)
                assert abs(near - x) <= unit / 2, (template, v, near)


def test_band_edges():
    # each band edge and its ulp neighbours, for every template and its
    # negative, are judged as the decimal oracle judges them: the edge
    # worked out exactly, then rounded once to a double
    with localcontext(Context(prec=MAX_PREC)):
        for template in TEMPLATES:
            for exact in (Decimal(template), -Decimal(template)):
                unit = Decimal(1).scaleb(exact.as_tuple().exponent)
                for rel_tol in (None, GUARD_TABLES_REL_TOL):
                    half = 2 * unit if rel_tol is None else Decimal(rel_tol) * abs(exact)
                    lo, hi = float(exact - half), float(exact + half)
                    printed = str(exact)
                    for edge in (lo, hi):
                        for v in (math.nextafter(edge, -math.inf), edge,
                                  math.nextafter(edge, math.inf)):
                            inside = lo < v < hi if rel_tol is None else lo <= v <= hi
                            assert matches_printed(v, printed, rel_tol) == inside, (
                                printed, rel_tol, v)


def test_c0_is_printed_alpha_over_n0_squared():
    # why tables 7-8's c0 misses the exact recomputation: every printed c0
    # lies within one last-digit unit of table 6's printed alpha over n0^2
    # (the range rows are n0 = 21); the largest gap is 0.82 units, at row 19
    cells = [(n0, c0) for n0, (*_, c0) in TABLE7_PER_DEGREE.items()]
    cells += [(21, c0) for _, _, _, _, c0, _ in TABLE7_RANGE]
    cells += [(n0, c0) for n0, (_, _, c0) in TABLE8.items()]
    assert len(cells) == 19 + 4 + 20
    with localcontext(Context(prec=30)):
        for n0, c0 in cells:
            n, e, *_ = _read(c0)
            n_alpha, e_alpha, *_ = _read(TABLE6[n0][0])
            gap = abs(Decimal(n).scaleb(e) - Decimal(n_alpha).scaleb(e_alpha) / (n0 * n0))
            assert gap < Decimal(1).scaleb(e), (n0, c0)
