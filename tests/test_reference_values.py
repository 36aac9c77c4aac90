"""Parsing, tolerance, and formatting helpers for the embedded baselines."""

import math
import random
from decimal import MAX_PREC, Context, Decimal, localcontext

import pytest

from chebotarev import reference_values as pv
from chebotarev.errors import DomainError
from chebotarev.reference_values import (
    last_digit_unit,
    matches_printed,
    parse_printed,
    round_like,
)


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
        assert parse_printed(text) == value

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
        assert last_digit_unit(text) == pytest.approx(unit, rel=1e-12)


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
        assert round_like(parse_printed("0.28649"), "0.28649", "nearest") == "0.28649"
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


def test_rounding_rule():
    # values on each template's grid of last-digit units, and one ulp to
    # either side: up lands on the value or less than a unit above it, down
    # on it or less than a unit below, nearest within half a unit
    rng = random.Random(25)
    with localcontext(Context(prec=MAX_PREC)):
        for template in TEMPLATES:
            exact = Decimal(template)
            unit = Decimal(1).scaleb(exact.as_tuple().exponent)
            for k in [0] + [rng.randint(-50, 50) for _ in range(4)]:
                point = float(exact + k * unit)
                for v in (math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)):
                    x = Decimal(v)
                    up, down, near = (Decimal(round_like(v, template, d))
                                      for d in ("up", "down", "nearest"))
                    assert x <= up < x + unit, (template, v, up)
                    assert x - unit < down <= x, (template, v, down)
                    assert abs(near - x) <= unit / 2, (template, v, near)
                    for printed in (up, down, near):
                        assert printed.as_tuple().exponent == exact.as_tuple().exponent
