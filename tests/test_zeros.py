"""Zero-counting coefficients, the density kernel, and threshold pairs."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev import (
    ALPHA1,
    ALPHA2,
    ALPHA3,
    DomainError,
    FieldParams,
    NumericError,
    P_E_L,
    Q_kernel,
    Q_kernel_partial_u,
    alpha0,
    alpha0_prime,
    c123,
    minkowski_lookup,
    solve_omega0,
    solve_t0,
    window_coeffs,
)
from chebotarev import zeros
from chebotarev.invariants import MINKOWSKI_TABLE
from chebotarev.reference_values import TABLE2_OMEGA_TO_T, matches_printed


def avx512_features() -> list[str]:
    """The AVX-512 features numpy uses here, as NPY_DISABLE_CPU_FEATURES
    names them; disabling them gives the kernels of a CPU without AVX-512."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f)]


class TestC123:
    def test_unit_arguments_collapse(self):
        c1, c2, c3 = c123(1.0, 1.0, 0.0)
        assert c1 == 2.5
        assert c3 == 10.0  # both square roots collapse at T = 0
        assert math.isclose(c2, 2.5 * math.log(3) + 5 * (1 + 539 / 268), rel_tol=1e-14)

    def test_window_eps_matches_published_b3(self):
        c1, _, _ = c123(1.0, 1.1814, 3.0)
        assert abs(2 * c1 - 4.8743) < 1e-4

    def test_divergence_in_eps(self):
        c1_small, _, _ = c123(0.5, 1.0, 0.0)
        c1_large, _, _ = c123(0.5, 1e6, 0.0)
        assert c1_large > 1e5 > c1_small

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            c123(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            c123(1.0, -1.0, 0.0)


class TestAlpha0:
    def test_anchor_values_degree_two(self):
        row = minkowski_lookup(2)
        assert matches_printed(alpha0(1.0, row), "40.1778")
        assert matches_printed(alpha0(0.5, row), "36.0416")

    def test_anchor_top_row(self):
        row = minkowski_lookup(21)
        assert matches_printed(alpha0(2.0, row), "12.4297")

    def test_nondecreasing_in_T(self):
        for n0 in (2, 7, 21):
            row = minkowski_lookup(n0)
            vals = [alpha0(t, row) for t in (0.5, 0.75, 1.0, 1.5, 2.0)]
            assert vals == sorted(vals)

    def test_matches_independent_optimizer(self):
        # cross-check the grid+golden minimizer with a general-purpose one
        from scipy.optimize import minimize_scalar

        for n0 in (2, 9, 21):
            row = minkowski_lookup(n0)
            for T in (0.5, 1.0, 2.0):

                def B(eps):
                    c1v, c2v, c3v = c123(T, eps, 0.0)
                    return c1v + c2v * row.M + c3v / row.log_d0

                res = minimize_scalar(B, bounds=(1e-3, 50.0), method="bounded",
                                      options={"xatol": 1e-12})
                assert abs(alpha0(T, row) - res.fun) <= 1e-6 * res.fun

    def test_rejects_nonpositive_T(self):
        with pytest.raises(DomainError):
            alpha0(0.0, minkowski_lookup(2))

    def test_rejects_nan_T(self):
        with pytest.raises(DomainError):
            alpha0(math.nan, minkowski_lookup(2))

    def test_overflow_is_numeric_error(self):
        # at T = 1e155, T^2 overflows, so B(T, eps) is inf at every eps; at
        # 1e154, T^2 is finite and B overflows at the small end of the grid.
        # Either way the NumericError is the one signal: nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (1e155, 1e154):
                with pytest.raises(NumericError, match="overflowed"):
                    alpha0(T, minkowski_lookup(2))

    def test_scalar_objective_equals_c123(self):
        # the golden section's B is c123(T, eps, 0.0); at window center 0
        # both square roots collapse, so it equals B written out with
        # c3 = 4 c1, bit for bit
        rng = np.random.default_rng(20261018)
        rows = list(MINKOWSKI_TABLE)
        n = 100_000
        Ts = rng.uniform(1e-3, 100.0, n).tolist()
        epss = np.geomspace(1e-3, 50.0, n)[rng.permutation(n)].tolist()
        for T, eps, r in zip(Ts, epss, rng.integers(0, len(rows), n).tolist()):
            row = rows[r]
            one = 1.0 + eps
            w1 = (one * one + T * T) / (2.0 * eps)
            w2 = w1 * math.log(2.0 + eps) + 2.0 * w1 * (1.0 / eps + 539.0 / 268.0)
            c1, c2, c3 = c123(T, eps, 0.0)
            assert c1 + c2 * row.M + c3 / row.log_d0 == w1 + w2 * row.M + 4.0 * w1 / row.log_d0


# the full eps grid and its log(2 + eps) column by libm, the oracle's inputs
GRID = np.geomspace(1e-3, 50.0, 100_000)
LOG_2_PLUS_GRID = np.array([math.log(2.0 + e) for e in GRID.tolist()])


def full_grid_alpha0(T: float, M: float, log_d0: float) -> tuple[float, np.ndarray, int]:
    """Reference minimizer: B(T, .) on all 100 000 grid points, then the
    argmin refined by golden section.  Returns (value, grid values, argmin).

    B is c123's, written out for arrays: numpy's + - * / round as Python's
    do and the log column is libm's, so every grid value is c123's B, bit
    for bit (c3 = 4 c1: both square roots collapse at window center 0)."""
    one = 1.0 + GRID
    c1 = (one * one + T * T) / (2.0 * GRID)
    c2 = c1 * LOG_2_PLUS_GRID + 2.0 * c1 * (1.0 / GRID + 539.0 / 268.0)
    vals = c1 + c2 * M + 4.0 * c1 / log_d0
    i = int(np.argmin(vals))

    def B(e: float) -> float:
        c1, c2, c3 = c123(T, e, 0.0)
        return c1 + c2 * M + c3 / log_d0

    best = zeros._golden_min(B, GRID[max(0, i - 2)], GRID[min(len(GRID) - 1, i + 2)])
    return min(float(vals[i]), B(best)), vals, i


def assert_unimodal(vals: np.ndarray, i: int) -> None:
    steps = np.diff(vals)
    assert np.all(steps[:i] < 0) and np.all(steps[i:] > 0)


def height_with_argmin(eps: float, M: float, log_d0: float) -> float | None:
    """The T > 0 at which eps is the stationary point of B(T, .), or None.

    B = ((1+eps)^2 + T^2) q(eps) with q = h/(2 eps) and
    h = 1 + M (log(2+eps) + 2/eps + 1078/268) + 4/log d0, so dB/deps = 0
    gives T^2 = -2 (1+eps) q/q' - (1+eps)^2."""
    h = 1.0 + M * (math.log(2.0 + eps) + 2.0 / eps + 1078.0 / 268.0) + 4.0 / log_d0
    dh = M * (1.0 / (2.0 + eps) - 2.0 / eps**2)
    q, dq = h / (2.0 * eps), dh / (2.0 * eps) - h / (2.0 * eps**2)
    t2 = -2.0 * (1.0 + eps) * q / dq - (1.0 + eps) ** 2
    return math.sqrt(t2) if t2 > 0 else None


class TestAlpha0Window:
    """alpha0 bisects over the indices of its eps grid for the first index
    where B(T, .) rises; that is its grid argmin only while B(T, .) is
    unimodal."""

    # T = 50..55 puts the argmin in the last few hundred indices of the
    # grid, and from T ~ 55 on it sits on the upper edge
    HEIGHTS = [*np.geomspace(1e-6, 1e6, 25), *np.linspace(50.0, 55.0, 11)]

    def test_matches_full_grid_bit_for_bit(self):
        argmins = set()
        for row in MINKOWSKI_TABLE:
            for T in self.HEIGHTS:
                want, vals, i = full_grid_alpha0(float(T), row.M, row.log_d0)
                assert_unimodal(vals, i)
                assert alpha0(float(T), row) == want, (row.n0, T)
                argmins.add(i)
        # the upper edge, where no index rises and the bracket is clamped
        assert 99_999 in argmins

    def test_libm_log_points_match_full_grid(self):
        # heights whose grid argmin sits on a point where numpy's log(2 + eps)
        # is not libm's: alpha0's B is c123's, so it takes libm's value
        # there.  On an AVX-512 host numpy's log differs at 69 grid points,
        # 9 of them an argmin on every row; where numpy's log is libm's the
        # set is empty and this test checks nothing
        points = np.flatnonzero(np.log(2.0 + GRID) != LOG_2_PLUS_GRID)
        for row in MINKOWSKI_TABLE:
            for j in points:
                T = height_with_argmin(GRID[j], row.M, row.log_d0)
                if T is None:
                    continue
                want, vals, i = full_grid_alpha0(T, row.M, row.log_d0)
                assert_unimodal(vals, i)
                assert zeros._alpha0_cached(T, row.M, row.log_d0) == want, (row.n0, T)

    def test_argmins_on_and_next_to_first_round_samples(self):
        # seeded heights whose grid argmin is an index s that the bisection
        # probes first, or a neighbour of s: the probe at s compares B at s
        # and s + 1, so the argmin falls on either side of a probed pair.
        # The first three rounds probe 49 999, then 24 999 or 74 999, then
        # one of 12 499, 37 499, 62 499 and 87 499; 0 and 99 999 are the
        # grid's ends
        samples = [k * 99_999 // 8 for k in range(9)]
        rows = list(MINKOWSKI_TABLE)
        rng = np.random.default_rng(20261018)
        offsets = []
        for _ in range(100):
            row = rows[rng.integers(len(rows))]
            reachable = [s for s in samples[1:-1]
                         if height_with_argmin(GRID[s - 1], row.M, row.log_d0)]
            s = reachable[rng.integers(len(reachable))]
            for d in (-1, 0, 1):
                T = height_with_argmin(GRID[s + d], row.M, row.log_d0)
                want, vals, i = full_grid_alpha0(T, row.M, row.log_d0)
                assert_unimodal(vals, i)
                assert zeros._alpha0_cached(T, row.M, row.log_d0) == want, (row.n0, T)
                offsets.append(i - s)
        assert {offsets.count(d) for d in (-1, 0, 1)} == {100}

    def test_bit_for_bit_without_avx512(self):
        # numpy picks its power kernel, and so the grid's points, by CPU
        # feature; the search must match the full grid on the points a CPU
        # without AVX-512 computes
        found = avx512_features()
        if not found:
            pytest.skip("numpy reports no AVX-512 feature to disable")
        tests = [f"{__file__}::TestAlpha0Window::{name}" for name in (
            "test_matches_full_grid_bit_for_bit",
            "test_argmins_on_and_next_to_first_round_samples")]
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found)},
            cwd=Path(__file__).parents[1], capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "2 passed" in res.stdout, res.stdout

    def test_grid_and_coarse_indices(self):
        # the full grid exists only in these tests, as the oracle for the
        # point formula
        pts = zeros._eps_points(range(100_000))
        assert np.array_equal(pts.view(np.int64), GRID.view(np.int64))

    def test_import_builds_no_grid(self):
        code = ("import sys\n"
                "from chebotarev import zeros\n"
                "print('numpy' in sys.modules, zeros._alpha0_cached.cache_info().currsize)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False", "0"]

    def test_cold_call_allocates_no_grid(self):
        # the first alpha0 call of a process, numpy already loaded: it holds
        # only the ~40 points it reads, two or three at a time, never a grid
        # of 100 000 doubles (781 KiB on its own); it peaks near 1 KiB
        code = ("import tracemalloc\n"
                "import numpy\n"
                "from chebotarev import minkowski_lookup, zeros\n"
                "row = minkowski_lookup(2)\n"
                "tracemalloc.start()\n"
                "zeros._alpha0_cached(1.0, row.M, row.log_d0)\n"
                "print(tracemalloc.get_traced_memory()[1])\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) < 8 * 1024

    def test_lower_grid_edge(self):
        # no real row puts the argmin on the lower edge (B grows like
        # 1/eps^2 there), so a synthetic (M, log d0) exercises that clamp
        want, vals, i = full_grid_alpha0(1.0, -1.0, 0.5)
        assert i == 0
        assert_unimodal(vals, i)
        assert zeros._alpha0_cached(1.0, -1.0, 0.5) == want


class TestAlpha0Prime:
    def test_anchors(self):
        row2 = minkowski_lookup(2)
        row21 = minkowski_lookup(21)
        assert matches_printed(alpha0_prime(1.0, row2), "45.0838")
        assert matches_printed(alpha0_prime(2.0, row2), "44.8487")
        assert matches_printed(alpha0_prime(2.0, row21), "10.4694")

    def test_crossover_with_alpha0(self):
        # the explicit-formula count wins at T = 1, the counting theorem at T = 2
        for n0 in (2, 21):
            row = minkowski_lookup(n0)
            assert alpha0(1.0, row) < alpha0_prime(1.0, row)
            assert alpha0_prime(2.0, row) < alpha0(2.0, row)

    def test_rejects_T_below_one(self):
        with pytest.raises(DomainError):
            alpha0_prime(0.5, minkowski_lookup(2))


class TestWindowCoeffs:
    def test_published_values(self):
        assert window_coeffs() == (8.0818, 27.8581, 4.8743, 9.3052)

    def test_recomputation_within_one_rounding_unit(self):
        # independent transcription; the stored values round the raw ones
        # at the fourth decimal
        eps0 = 1.1814
        c1, _, _ = c123(1.0, eps0, 0.0)
        _, _, c3 = c123(1.0, eps0, 3.0)
        raw = (
            2 * c1 * (1 + math.log(1 + (2 + eps0) / 3) / math.log(3)),
            4 * c1 * (1 / eps0 + 539 / 268),
            2 * c1,
            2 * c3,
        )
        for r, stored in zip(raw, window_coeffs()):
            assert abs(stored - r) < 1e-4


class TestCountingTheorem:
    def test_main_term_at_2_pi_e(self):
        f = FieldParams.from_discriminant(3, 23.0)
        P, _ = P_E_L(2 * math.pi * math.e, f)
        assert math.isclose(P, 2 * math.e * f.log_dL, rel_tol=1e-13)

    def test_error_term_frozen_value(self):
        # alpha1 log3 + 2 alpha2 + alpha3 = 50.98648...
        f = FieldParams.from_discriminant(2, 3.0)
        _, E = P_E_L(1.0, f)
        oracle = ALPHA1 * math.log(3.0) + 2 * ALPHA2 + ALPHA3
        assert math.isclose(E, oracle, rel_tol=1e-14)
        assert math.isclose(E, 50.9865, rel_tol=1e-5)

    def test_bound_increasing_in_T(self):
        # P_L + E_L increases on T >= 1 once log d_L >= n_L (log(2 pi e) - 1);
        # below that the main term still dips near T = 1
        f = FieldParams.from_discriminant(2, 50.0)
        assert f.log_dL >= f.n_L * (math.log(2 * math.pi * math.e) - 1)
        vals = [sum(P_E_L(t, f)) for t in (1.0, 1.5, 2.0, 5.0, 17.0, 100.0)]
        assert vals == sorted(vals)


def q_regrouped(u: float, t: float, f: FieldParams) -> float:
    # second printed form, grouped by log d_L and n_L
    l2pe = math.log(2 * math.pi * math.e)
    return (
        ((u - t) / math.pi + 2 * ALPHA1) * f.log_dL
        + (
            (u / math.pi) * (math.log(u) - l2pe)
            - (t / math.pi) * (math.log(t) - l2pe)
            + ALPHA1 * math.log(u * t)
            + 2 * ALPHA2
        )
        * f.n_L
        + 2 * ALPHA3
    )


class TestQKernel:
    def test_diagonal_is_twice_error_term(self):
        f = FieldParams.from_discriminant(2, 3.0)
        for t in (1.0, 2.0, 40.0):
            _, E = P_E_L(t, f)
            assert math.isclose(Q_kernel(t, t, f), 2 * E, rel_tol=1e-12)

    def test_equals_regrouped_form(self):
        f = FieldParams.from_discriminant(2, 3.0)
        assert math.isclose(Q_kernel(5.0, 2.0, f), q_regrouped(5.0, 2.0, f), rel_tol=1e-10)

    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1.0, max_value=1e5),
        st.sampled_from([2, 3, 8, 21]),
        st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_regrouped_form_property(self, a, b, n0, scale):
        u, t = max(a, b), min(a, b)
        row = minkowski_lookup(n0)
        f = FieldParams(n0, max(row.n0 / row.M, row.log_d0) * scale)
        q1 = Q_kernel(u, t, f)
        q2 = q_regrouped(u, t, f)
        assert math.isclose(q1, q2, rel_tol=1e-10, abs_tol=1e-8)

    def test_partial_matches_central_difference(self):
        f = FieldParams.from_discriminant(2, 5.0)
        u, t, h = 11.0, 3.0, 1e-5
        fd = (Q_kernel(u + h, t, f) - Q_kernel(u - h, t, f)) / (2 * h)
        assert abs(Q_kernel_partial_u(u, f) - fd) < 1e-6

    def test_rejects_bad_ordering(self):
        f = FieldParams.from_discriminant(2, 5.0)
        with pytest.raises(DomainError):
            Q_kernel(1.0, 2.0, f)


class TestThresholdPairs:
    def test_anchors(self):
        assert matches_printed(solve_t0(1.0), "39.217")
        assert matches_printed(solve_omega0(1.0), "291.601")

    def test_round_trip(self):
        assert math.isclose(solve_omega0(solve_t0(5.0)), 5.0, rel_tol=1e-5)

    def test_strictly_decreasing(self):
        ts = [2.0 + 98.0 * k / 60 for k in range(61)]
        vals = [solve_omega0(t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_omega0(0.5)
        with pytest.raises(DomainError):
            solve_t0(0.5)

    def test_matches_fixed_step_bisection(self):
        # 200 halvings reach adjacent doubles long before the last step, so
        # stopping there instead must not change a single bit
        def fixed_step(omega0):
            lo, hi = 1.0, 1e9
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if solve_omega0(mid) - omega0 > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(20251018)
        table2 = [float(w) for w, _ in TABLE2_OMEGA_TO_T] + [2.5]
        for w in table2 + [float(v) for v in rng.uniform(1.0, 290.0, 200)]:
            assert solve_t0(w) == fixed_step(w), w
