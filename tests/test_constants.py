"""Low-index constants ell_0..ell_5, tuning configurations, and Y_0."""

import dataclasses
import math

import pytest

from chebotarev import (
    TuningConfig,
    compute_ells,
    ell_low,
    standard_config,
    y0,
    y0_terms,
)
from chebotarev.constants import alpha_coefficient
from chebotarev.zeros import R1, R2, alpha0, alpha0_prime


def ell_low_retranscribed(cfg: TuningConfig) -> tuple[float, ...]:
    """Independent re-transcription of the six closed forms."""
    row = cfg.row
    M, n0, d0, lx0, T0 = row.M, row.n0, cfg.delta0, cfg.x0_log, cfg.T0
    a1, a2, a3 = 0.228, 23.108, 4.520
    a0_1 = alpha0(1.0, row)
    a0_h = alpha0(0.5, row)
    a0p2 = alpha0_prime(2.0, row)

    l0 = 2 / math.log(2) * (1 + math.log(1 + d0) / lx0)
    l1 = (3.1430 + 3 * a0_1) / lx0 + M * (
        1
        + d0 / (2 * (1 - d0) * lx0)
        + math.exp(-2 * (math.log(1 - d0) + lx0)) / lx0
        + 48.3969 / lx0
        + 11.54 / (n0 * lx0)
    )
    l2 = 1 + d0 / (2 * (1 - d0) * lx0)
    l3 = cfg.alpha4 * ((2 + d0) / 2 + math.exp(-lx0 / 2)) * a0_h / 2
    l4 = (
        (2 + d0)
        / 2
        * (1 + math.exp((-1 + 2 / (R1 * n0 * (1 / M + math.log(4)))) * lx0))
        * (a0_1 + a0p2)
        / 2
    )
    lt = math.log(T0)
    l5 = (
        (2 + d0)
        / 4
        * (1 + math.exp((-1 + 2 / (R2 * n0 * (1 / M + lt))) * lx0))
        * (
            (math.log(T0 - 1) - 1) / (math.pi * lt**2)
            + a1 * T0 / (lt**2 * (T0 - 1))
            + (T0 + 1) / (math.pi * (T0 - 1) * lt**2)
            + M
            * (
                1 / (2 * math.pi)
                + (T0 + 1) * math.log(T0 + 1) / (math.pi * (T0 - 1) * lt**2)
                + a1 * math.log(T0 + 1) / ((T0 - 1) * lt**2)
                + a3 * T0 / ((T0 - 1) * n0 * lt**2)
                + (
                    0.683 / math.pi
                    + 0.92 * a1
                    - math.log(2 * math.pi * math.e) / math.pi * ((T0 + 1) / (T0 - 1) - math.log(2))
                    + math.log(math.pi * math.e) / math.pi
                    + a1 * math.log(2) / 2
                    + a2 * T0 / (T0 - 1)
                )
                / lt**2
            )
        )
    )
    return l0, l1, l2, l3, l4, l5


class TestTuningConfig:
    def test_standard_pins_alpha_and_x0(self):
        for n0 in range(2, 22):
            for present in (True, False):
                cfg = standard_config(n0, present)
                M = cfg.row.M
                assert (cfg.row.n0, cfg.beta0_present) == (n0, present)
                assert math.isclose(
                    cfg.alpha,
                    max(
                        4 * R1**2 / R2 * (math.log(4) * M + 1) ** 2,
                        4 * R2 * (math.log(40.0) * M + 1) ** 2,
                    ),
                    rel_tol=1e-14,
                ), n0
                assert math.isclose(cfg.x0_log, cfg.alpha * n0 / M**2, rel_tol=1e-14), n0
                # params prints these, so their types matter too
                fixed = (cfg.m, cfg.omega0, cfg.t0, cfg.T0)
                assert fixed == (1, 1.0, 40.0, 40.0)
                assert [type(v) for v in fixed] == [int, float, float, float]

    def test_only_row_delta0_and_state_are_settable(self):
        cfg = standard_config(2, True)
        assert [f.name for f in dataclasses.fields(cfg) if f.init] == [
            "row", "delta0", "beta0_present"]
        moved = cfg.with_delta0(0.5)
        assert (moved.delta0, moved.alpha, moved.x0_log, moved.row, moved.beta0_present) == (
            0.5, cfg.alpha, cfg.x0_log, cfg.row, cfg.beta0_present)

    def test_with_exceptional_zero(self):
        cfg = standard_config(2, True)
        assert (R1, R2) == (20.0, 12.2411)
        assert cfg.alpha4 == 1.7
        assert cfg.a_beta0 == 1

    def test_without_exceptional_zero(self):
        cfg = standard_config(2, False)
        assert cfg.alpha4 == 2.0
        assert cfg.a_beta0 == 2

    def test_alpha_anchor(self):
        from chebotarev.reference_values import matches_printed

        alpha = alpha_coefficient(1.82048, 40.0)
        assert matches_printed(alpha, "2914.82")
        # both branches by hand: 130.707*(1.38629*M+1)^2 = 1623.2 loses to
        # 48.9644*(3.68888*M+1)^2 = 2914.8225
        assert math.isclose(alpha, 2914.8225, rel_tol=1e-7)


class TestEllLow:
    def test_small_delta_large_x0_limits(self):
        # delta0 -> 0, x0 -> inf: l0 -> 2/log 2, l2 -> 1
        cfg = standard_config(2, True).with_delta0(1e-12)
        l0, _, l2, _, _, _ = ell_low(cfg)
        assert math.isclose(l0, 2 / math.log(2), rel_tol=1e-9)
        assert math.isclose(l2, 1.0, rel_tol=1e-9)

    @pytest.mark.parametrize("n0", [2, 5, 13, 21])
    @pytest.mark.parametrize("present", [True, False])
    def test_second_transcription(self, n0, present):
        cfg = standard_config(n0, present)
        got = ell_low(cfg)
        want = ell_low_retranscribed(cfg)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-10)

    def test_all_rows_positive_finite(self):
        for n0 in range(2, 22):
            for present in (True, False):
                ells = compute_ells(standard_config(n0, present))
                for i in range(8):
                    v = getattr(ells, f"l{i}")
                    assert math.isfinite(v) and v > 0, (n0, present, i)

    def test_ell1_printed_constant_block(self):
        # the 3 alpha0(1) piece must track the zero-counting module
        cfg = standard_config(2, True)
        l1 = ell_low(cfg)[1]
        a0_1 = alpha0(1.0, cfg.row)
        residue = l1 - (3.1430 + 3 * a0_1) / cfg.x0_log
        # what remains is the M(...) block, positive and close to M
        assert 0 < residue - cfg.row.M < cfg.row.M * 0.1


class TestY0:
    def test_all_seven_summands_positive(self):
        for n0 in (2, 12, 21):
            for present in (True, False):
                cfg = standard_config(n0, present)
                ells = compute_ells(cfg)
                terms = y0_terms(cfg, ells)
                assert len(terms) == 7
                # x0^-1-damped summands underflow to exactly 0.0 here, which
                # is their true magnitude at these x0; require nonnegative
                assert all(t >= 0 for t in terms)
                assert terms[3] > 0 and terms[4] > 0 and terms[6] > 0

    def test_y0_consistency(self):
        cfg = standard_config(2, True)
        ells = compute_ells(cfg)
        t = y0_terms(cfg, ells)
        assert math.isclose(ells.Y0, sum(t[:5]) * cfg.delta0 + t[5] + t[6], rel_tol=1e-14)
        assert math.isclose(ells.Y0, y0(cfg, ells), rel_tol=1e-14)

    def test_increasing_in_delta0(self):
        base = standard_config(2, True)
        vals = []
        for d in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            cfg = base.with_delta0(d)
            vals.append(compute_ells(cfg).Y0)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_anchor_degree_two(self):
        # Y0 drives E3 = 2 sqrt(Y0) = 0.44511 downstream
        ells = compute_ells(standard_config(2, True))
        assert math.isclose(2 * math.sqrt(ells.Y0), 0.44511, rel_tol=2e-5)
