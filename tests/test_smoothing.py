"""Smoothing weight, Mellin transform, and the transform-size bound."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from chebotarev import (
    DomainError,
    Endpoint,
    NumericError,
    PoleError,
    SmoothingParams,
    m_bound,
    mellin_H,
    weight_g,
    weight_h,
)
from chebotarev.smoothing import _MAX_ORDER


def mellin_quadrature(s: complex, p: SmoothingParams) -> complex:
    """Oracle: numerically integrate h(t) t^(s-1) over the support."""
    hi = p.alpha + p.delta

    def part(trig):
        def f(t):
            if t <= 0:
                return 0.0
            return weight_h(t, p) * t ** (s.real - 1) * trig(s.imag * math.log(t))

        return quad(f, 0, hi, limit=400, epsabs=1e-13, epsrel=1e-12)[0]

    return complex(part(math.cos), part(math.sin))


UPPER = lambda m, d: SmoothingParams(m, d, Endpoint.UPPER)
LOWER = lambda m, d: SmoothingParams(m, d, Endpoint.LOWER)


class TestWeight:
    def test_plateau(self):
        assert weight_h(0.0, UPPER(1, 0.5)) == 1.0
        assert weight_h(0.3, LOWER(2, 0.4)) == 1.0

    def test_support(self):
        p = UPPER(1, 0.5)
        assert weight_h(p.alpha + p.delta + 0.1, p) == 0.0

    def test_ramp_integral_is_half_delta(self):
        p = UPPER(1, 0.5)
        val = quad(lambda t: weight_h(t, p), p.alpha, p.alpha + p.delta, limit=200)[0]
        assert abs(val - p.delta / 2) < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("make", [UPPER, LOWER])
    def test_g_between_zero_and_one(self, m, make):
        p = make(m, 0.37)
        xs = np.linspace(1e-9, 1 - 1e-9, 10_000)
        ys = np.array([weight_g(x, p) for x in xs])
        assert np.all(ys >= -1e-12)
        assert np.all(ys <= 1 + 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("make", [UPPER, LOWER])
    def test_g_integral_identities(self, m, make):
        p = make(m, 0.37)
        ig = quad(lambda x: weight_g(x, p), 0, 1, limit=200)[0]
        assert abs(ig - 0.5) < 1e-8
        # int |g'| = total variation of g, sampled densely
        xs = np.linspace(1e-9, 1 - 1e-9, 40_001)
        ys = np.array([weight_g(x, p) for x in xs])
        tv = float(np.abs(np.diff(ys)).sum())
        assert abs(tv - 1.0) < 1e-6

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            weight_h(-0.1, UPPER(1, 0.5))

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            weight_h(0.5, SmoothingParams(0, 0.5))


class TestMellin:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("make", [UPPER, LOWER])
    @pytest.mark.parametrize("delta", [0.3, 0.7])
    def test_H_at_one(self, m, make, delta):
        p = make(m, delta)
        assert abs(mellin_H(1.0, p) - (p.alpha + delta / 2)) < 1e-12

    def test_matches_quadrature_upper(self):
        p = UPPER(1, 0.3)
        got = mellin_H(2.0, p)
        want = mellin_quadrature(2.0 + 0j, p)
        assert abs(got - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("m", [1, 2, 3, _MAX_ORDER])
    @pytest.mark.parametrize("make", [UPPER, LOWER])
    @pytest.mark.parametrize("s", [0.5 + 3j, 2.5 - 1.2j, 1.0 + 0j])
    def test_matches_quadrature_complex(self, m, make, s):
        p = make(m, 0.45)
        got = mellin_H(s, p)
        want = mellin_quadrature(s, p)
        assert abs(got - want) <= 1e-7 * max(abs(want), 1e-6)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            mellin_H(0.0, UPPER(1, 0.5))

    def test_removable_singularity_matches_limit(self):
        p = UPPER(2, 0.4)
        inside = mellin_H(-1.0, p)
        nearby = mellin_H(-1.0 + 1e-6, p)
        assert abs(inside - nearby) < 1e-5 * abs(inside)
        # and the limit agrees with the defining integral continued there:
        # approach along a sequence
        seq = [mellin_H(-1.0 + 10.0**-k, p) for k in (4, 5, 6)]
        for v in seq:
            assert abs(v - inside) < 1e-3 * abs(inside)

    @pytest.mark.parametrize("p", [LOWER(5, 1e-3), LOWER(9, 0.1), UPPER(8, 0.1)])
    def test_cancelled_sum_raises(self, p):
        # H(1) = alpha + delta/2 exactly; the closed form's alternating sum
        # gave 24.6 for 0.9995, 0.9567 for 0.95 and 1.04959 for 1.05 here
        with pytest.raises(NumericError):
            mellin_H(1.0, p)

    def test_boundary_decay_bound(self):
        # |H(it)| <= 1/|it| at the Re(s) = 0 edge (with int |g'| = 1)
        p = UPPER(1, 0.5)
        for t in (0.1, 1.0, 7.5, 40.0):
            assert abs(mellin_H(1j * t, p)) <= 1.0 / t + 1e-12


class TestOrderCap:
    """The weight's closed form holds up to the order cap (H's is checked
    there by test_matches_quadrature_complex); the next order is where its
    alternating sum first cancels past the tolerance."""

    XS = np.linspace(0.0, 1.0, 401)[1:-1].tolist()
    DELTAS = (1e-3, 0.1, 0.5, 0.99)

    def worst_excursion(self, m):
        # how far the ramp leaves [0, 1] on the 399-point grid, over the
        # acceptance suite's deltas and both endpoints
        worst = 0.0
        for delta in self.DELTAS:
            for endpoint in Endpoint:
                p = SmoothingParams(1, delta, endpoint)
                # set after construction, so that m may pass the cap
                object.__setattr__(p, "m", m)
                for x in self.XS:
                    g = weight_g(x, p)
                    worst = max(worst, -g, g - 1.0)
        return worst

    def test_weight_within_unit_interval_at_cap(self):
        assert self.worst_excursion(_MAX_ORDER) <= 1e-9

    def test_next_order_leaves_unit_interval(self):
        assert self.worst_excursion(_MAX_ORDER + 1) > 1e-9

    def test_integral_float_order_is_an_int(self):
        p = SmoothingParams(2.0, 0.5)
        assert type(p.m) is int and p == SmoothingParams(2, 0.5)
        assert weight_h(1.2, p) == weight_h(1.2, SmoothingParams(2, 0.5))


class TestMBound:
    def test_order_zero(self):
        assert m_bound(0.3, 0) == 1.15

    def test_order_one_half(self):
        assert math.isclose(m_bound(0.5, 1), (1.5**2 + 1), rel_tol=1e-15)

    def test_small_delta_limit(self):
        assert math.isclose(m_bound(1e-12, 1), 2.0, rel_tol=1e-9)

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            m_bound(1.5, 1)


class TestTransformInequalities:
    """Sampled versions of the two |H(s)| bounds; the exhaustive grid
    runs in the acceptance suite."""

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    @pytest.mark.parametrize("make", [UPPER, LOWER])
    def test_right_halfplane_bound(self, delta, make):
        m = 1
        p = make(m, delta)
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            re = rng.uniform(1e-3, 1.0)
            radius = 10 ** rng.uniform(math.log10(0.1), 2)
            im = math.sqrt(max(radius**2 - re**2, 0.0))
            s = complex(re, im if rng.random() < 0.5 else -im)
            if abs(s) < 0.1:
                continue
            h = abs(mellin_H(s, p))
            for k in range(m + 1):
                assert h <= m_bound(delta, k) / (delta**k * abs(s) ** (k + 1)) * (1 + 1e-9)

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    @pytest.mark.parametrize("make", [UPPER, LOWER])
    def test_left_halfplane_bound(self, delta, make):
        p = make(1, delta)
        rng = np.random.default_rng(20240812)
        for _ in range(200):
            re = -rng.uniform(0.0, 5.0)
            im = rng.uniform(0.1, 50.0) * (1 if rng.random() < 0.5 else -1)
            s = complex(re, im)
            if abs(s) < 0.1 or abs(s + 1) < 1e-6:
                continue
            assert abs(mellin_H(s, p)) <= (1 - delta) ** re / abs(s) * (1 + 1e-9)
