"""Incomplete Bessel integrals, their reduction identity, and the tail
constants ell_6 / ell_7."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from chebotarev import (
    BesselArgs,
    DomainError,
    NumericError,
    RegimeThreshold,
    bessel_I,
    bessel_K,
    k2_upper_bound,
)
from chebotarev.constants import ell6, ell7
from chebotarev.zeros import ALPHA1, ALPHA2, ALPHA3, R2


def simpson_K(n: float, z: float, y: float, points: int = 400_001, hi: float = 80.0) -> float:
    """Independent fixed-step oracle for K_n."""
    xs = np.linspace(max(y, 1e-12), hi, points)
    ys = 0.5 * xs ** (n - 1) * np.exp(-(z / 2) * (xs + 1.0 / xs))
    return float(simpson(ys, x=xs))


def quad_K(n: float, z: float, y: float) -> float:
    """Independent adaptive oracle for K_n: scipy's quad at epsrel 1e-12 on
    [y, hi], split at the peak, with hi where the integrand has fallen below
    1e-18 of its peak value."""

    def log_f(v: float) -> float:
        return (n - 1.0) * math.log(v) - (z / 2.0) * (v + 1.0 / v)

    q = (n - 1.0) / z
    v_peak = max(q + math.sqrt(q * q + 1.0), y + 1e-12)
    cut = log_f(v_peak) + math.log(1e-18)
    hi = max(2.0 * v_peak, y + 1.0)
    while log_f(hi) > cut:
        hi *= 2.0
    points = [v_peak] if y < v_peak < hi else None
    return quad(lambda v: 0.5 * math.exp(log_f(v)), y, hi, points=points, limit=400,
                epsabs=0.0, epsrel=1e-12)[0]


def oracle_grid() -> list[tuple[float, float, float]]:
    """320 seeded (n, z, y) with n in [0.5, 3.5], z in [1e-2, 500] and y at 0,
    just above 0, below and above the integrand's peak in v, and uniform in
    [0, 10]; every y is at most 10."""
    rng = np.random.default_rng(11)
    grid = []
    for i in range(320):
        n = rng.uniform(0.5, 3.5)
        z = 10 ** rng.uniform(-2.0, math.log10(500.0))
        q = (n - 1.0) / z
        v_peak = q + math.sqrt(q * q + 1.0)
        y = (
            0.0,
            10 ** rng.uniform(-15.0, -3.0),
            v_peak * rng.uniform(0.3, 0.999),
            v_peak * rng.uniform(1.001, 2.0),
            rng.uniform(0.0, 10.0),
        )[i % 5]
        grid.append((n, z, min(y, 10.0)))
    return grid


def direct_I(n: float, m: float, a: float, b: float, l: float) -> float:
    """Independent oracle: integrate the defining integrand over geometric
    segments until the tail is negligible."""

    def f(u: float) -> float:
        lg = math.log(b * u)
        return lg ** (n - 1) * u ** (-m - 1) * math.exp(-a / lg)

    total, lo = 0.0, l
    for _ in range(200):
        hi = 4.0 * lo
        seg = quad(f, lo, hi, limit=200, epsabs=0.0, epsrel=1e-13)[0]
        total += seg
        if seg < 1e-16 * total and lo > 16 * l:
            break
        lo = hi
    return total


class TestBesselK:
    def test_matches_simpson_oracle(self):
        got = bessel_K(2.0, 2.0, 1.0)
        want = simpson_K(2.0, 2.0, 1.0)
        assert abs(got - want) <= 1e-8 * want

    def test_decreasing_in_lower_limit(self):
        vals = [bessel_K(2.0, 3.0, y) for y in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rosser_schoenfeld_anchor(self):
        assert bessel_K(2.0, 20.0, 0.5) <= k2_upper_bound(20.0)

    def test_bound_grid(self):
        for z in (10.0, 20.0, 50.0, 100.0):
            bound = k2_upper_bound(z)
            # the integral is largest at w = 0; the bound is w-free
            for w in np.linspace(0.0, 0.7, 8):
                assert bessel_K(2.0, z, float(w)) <= bound

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            bessel_K(2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            bessel_K(2.0, 1.0, -0.5)

    def test_matches_quad_oracle(self):
        # below the normal range a float holds fewer than 11 digits, so the
        # check there is absolute, at 1e-11 of the smallest normal float
        for n, z, y in oracle_grid():
            got, want = bessel_K(n, z, y), quad_K(n, z, y)
            assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11 * sys.float_info.min), (n, z, y)

    def test_underflow_is_zero_in_bounded_time(self):
        # y = 1e300 absorbs e^u in y + e^u, so a walk on relative terms
        # would never leave the peak
        for args in ((2.0, 1e6, 0.5), (2.0, 800.0, 0.0), (2.0, 2.0, 1e300)):
            start = time.perf_counter()
            assert bessel_K(*args) == 0.0
            assert time.perf_counter() - start < 1.0, args

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            bessel_K(300.0, 1.0, 0.0)

    def test_package_never_loads_scipy(self):
        # with scipy blocked, every command and both integrals still run and
        # give the in-process values
        run = (
            "import contextlib, io\n"
            "from chebotarev import bessel_I, bessel_K, cli\n"
            "out = []\n"
            "for argv in (['tables', '--id', '4'], ['params', '--n0', '7'],\n"
            "             ['bound', '--nL', '5', '--dL', '1e6', '--logx', '1e5'],\n"
            "             ['verify', '--disc', '5', '--x', '1e5']):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        out.append([cli.main(argv), buf.getvalue()])\n"
            "out += [bessel_K(2.0, 2.0, 1.0), bessel_I(2.0, 1.0, 3.0, 2.0, 5.0)]\n"
        )
        blocked = "import json, sys\nsys.modules['scipy'] = None\n" + run + "print(json.dumps(out))\n"
        res = subprocess.run([sys.executable, "-c", blocked], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        here: dict = {}
        exec(run, here)
        assert json.loads(res.stdout) == here["out"]


class TestBesselI:
    def test_reduction_identity_anchor(self):
        got = bessel_I(2.0, 1.0, 3.0, 2.0, 5.0)
        want = direct_I(2.0, 1.0, 3.0, 2.0, 5.0)
        assert abs(got - want) <= 1e-8 * want

    def test_reduction_identity_random(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = rng.uniform(1.0, 3.0)
            m = rng.uniform(0.5, 2.0)
            a = rng.uniform(0.5, 8.0)
            b = rng.uniform(0.5, 3.0)
            l = rng.uniform(1.05 / b + 0.2, 10.0)
            got = bessel_I(n, m, a, b, l)
            want = direct_I(n, m, a, b, l)
            assert abs(got - want) <= 1e-8 * want

    def test_vanishing_exponent_limit(self):
        # alpha -> 0 with n = 1: integral of u^(-m-1) is 1/(m l^m)
        m, l = 1.5, 3.0
        got = bessel_I(1.0, m, 1e-12, 1.0, l)
        assert math.isclose(got, 1.0 / (m * l**m), rel_tol=1e-6)

    def test_decreasing_in_lower_limit(self):
        vals = [bessel_I(2.0, 1.0, 3.0, 2.0, l) for l in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_log_sign_violation(self):
        with pytest.raises(DomainError):
            bessel_I(2.0, 1.0, 3.0, 0.5, 1.0)


def ell6_retranscribed(m: int, M: float, T0: float) -> float:
    lt = math.log(T0)
    return (
        (1.0 / (m * math.pi)) * (M + 1.0 / lt)
        + 2.0 * M * ALPHA1 / T0
        + (2.0 * ALPHA1 + M * (ALPHA1 / (m + 1) + 2.0 * ALPHA2 + ALPHA3)) / (lt * T0)
    )


def ell7_retranscribed(m, M, r2, T0, omega0, x0_log, n0):
    lt = math.log(T0)
    gap = (2 * m + 1) / math.sqrt(m + 1) - 2 * math.sqrt(m)
    first = (
        omega0
        / (math.pi * math.sqrt(r2 * (m + 1)))
        * x0_log ** (-1 / 4)
        * math.exp(-gap * math.sqrt((m + 1) * (1 / M + lt)))
    )
    second = (
        2
        * n0 ** (-1 / 4)
        / (math.sqrt(math.pi) * m ** (5 / 4) * r2 ** (3 / 4))
        * (
            1
            + 15 / (16 * math.sqrt(m * (m + 1)) * (1 / M + lt))
            + 105 / (512 * m * (m + 1) * (1 / M + lt) ** 2)
        )
    )
    return first + second


class TestEll6:
    def test_second_transcription(self):
        assert math.isclose(ell6(1, 1.82048, 40.0), ell6_retranscribed(1, 1.82048, 40.0), rel_tol=1e-10)

    def test_decreasing_in_T0(self):
        vals = [ell6(1, 1.82048, t) for t in (5.0, 10.0, 40.0, 200.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_T0_limit(self):
        # the 1/T0 terms decay; only (M + 1/log T0)/(m pi) survives
        T0, M = 1e12, 0.5
        leading = (M + 1 / math.log(T0)) / math.pi
        assert abs(ell6(1, M, T0) - leading) < 1e-11

    def test_rejects_small_T0(self):
        with pytest.raises(DomainError):
            ell6(1, 1.0, 4.0)


class TestEll7:
    def test_second_transcription(self):
        args = (1, 1.82048, 12.2411, 40.0, 1.0, 1759.0, 2)
        assert math.isclose(ell7(*args), ell7_retranscribed(*args), rel_tol=1e-10)

    def test_decreasing_in_x0_log(self):
        vals = [ell7(1, 1.82048, 12.2411, 40.0, 1.0, lx, 2) for lx in (100.0, 1759.0, 1e5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exponent_margin_positive_at_m1(self):
        assert math.isclose(3 / math.sqrt(2) - 2, 0.12132, abs_tol=1e-5)
        assert 3 / math.sqrt(2) - 2 > 0


class TestRegime:
    def test_equivalence_sampled(self):
        rng = np.random.default_rng(314)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            n_L = int(rng.integers(2, 30))
            log_delta = rng.uniform(0.3, 4.0)
            T = rng.uniform(4.1, 400.0)
            log_x = 10 ** rng.uniform(1, 6)
            thr = RegimeThreshold.from_parameters(m, R2 * n_L, log_delta, T, log_x)
            assert thr.large_x(log_x) == thr.W_exceeds(T)

    def test_bessel_args_regime_flag(self):
        m, n_L, log_delta, T = 1, 2, math.log(3.0) / 2, 40.0
        thr = RegimeThreshold.from_parameters(m, R2 * n_L, log_delta, T, 1.0)
        log_x = thr.X_LmT * 1.5
        args = BesselArgs.from_parameters(m, R2 * n_L, log_delta, T, log_x)
        assert args.in_decay_regime(m)
        args_small = BesselArgs.from_parameters(m, R2 * n_L, log_delta, T, thr.X_LmT * 0.5)
        assert not args_small.in_decay_regime(m)

    def test_bessel_args_reject_nonpositive(self):
        with pytest.raises(DomainError):
            BesselArgs.from_parameters(1, R2 * 2, 1.0, 40.0, 0.0)
        with pytest.raises(DomainError):
            RegimeThreshold.from_parameters(1, R2 * 2, 1.0, 0.0, 10.0)


class TestTailChain:
    def test_ell7_dominates_assembled_tail(self):
        # turning-point term + K2-bounded integral term stays below the
        # packaged ell7 shape throughout the admissible regime
        from chebotarev import standard_config
        from chebotarev.constants import compute_ells

        rng = np.random.default_rng(7)
        for _ in range(150):
            n0 = int(rng.choice([2, 5, 9, 21]))
            present = bool(rng.random() < 0.5)
            cfg = standard_config(n0, present)
            l7 = compute_ells(cfg).l7
            n_L = n0 + int(rng.integers(0, 3))
            m = cfg.m
            log_delta = (1.0 / cfg.row.M) * rng.uniform(1.0, 3.0)
            delta = math.exp(log_delta)
            T = cfg.T0 * rng.uniform(1.0, 5.0)
            X = (m + 1) * R2 * n_L * (log_delta + math.log(T)) ** 2
            log_x = max(X * rng.uniform(1.001, 3.0), cfg.x0_log)
            zm = 2.0 * math.sqrt(m * log_x / (R2 * n_L))
            lhs = (
                cfg.omega0
                / (math.pi * math.sqrt(R2 * (m + 1)))
                * delta**m
                * math.sqrt(n_L)
                * math.sqrt(log_x)
                * math.exp(-((2 * m + 1) / math.sqrt(m + 1)) * math.sqrt(log_x / (R2 * n_L)))
                + 2.0 / (math.pi * m * R2) * delta**m * log_x * k2_upper_bound(zm)
            )
            rhs = l7 * delta**m * math.sqrt(n_L) * log_x**0.75 * math.exp(-zm)
            assert lhs <= rhs * (1 + 1e-12)
