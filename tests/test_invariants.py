"""Field invariants, the Minkowski table, and the lambda size factors."""

import math
import sys

import pytest

from chebotarev import (
    MINKOWSKI_TABLE,
    DomainError,
    FieldParams,
    lambda_0,
    lambda_L,
    minkowski_lookup,
)


def lambda_L_oracle(n_L: int, log_dL: float, m: int) -> float:
    # independent direct evaluation of both branches
    ld = log_dL / n_L
    delta = math.exp(ld)
    return max(ld**2 * n_L**2, ld * delta**m * math.sqrt(n_L))


class TestMinkowskiLookup:
    def test_degree_two(self):
        row = minkowski_lookup(2)
        assert row.n0 == 2
        assert math.isclose(row.log_d0, math.log(3))
        assert row.M == 1.82048

    def test_degree_twelve(self):
        row = minkowski_lookup(12)
        assert row.n0 == 12
        assert math.isclose(row.log_d0, math.log(2.74e10))
        assert row.M == 0.499297

    def test_above_table_uses_degree_power_of_ten(self):
        row = minkowski_lookup(25)
        assert row.n0 == 21
        assert math.isclose(row.log_d0, 25 * math.log(10))
        assert row.M == 0.434294

    def test_degree_below_two_rejected(self):
        with pytest.raises(DomainError):
            minkowski_lookup(1)

    def test_integral_float_degrees(self):
        assert minkowski_lookup(2.0) == minkowski_lookup(2)
        assert minkowski_lookup(22.0) == minkowski_lookup(22)
        assert FieldParams(22.0, 60.0).n_L == 22

    def test_largest_degree_has_finite_log_d0(self):
        # the one degree rule stops where the top row's log d0 = n log 10
        # leaves the doubles
        top = sys.float_info.max / math.log(10)
        assert math.isfinite(minkowski_lookup(top).log_d0)
        with pytest.raises(DomainError):
            minkowski_lookup(math.nextafter(top, math.inf))

    def test_table_has_21_rows(self):
        assert len(MINKOWSKI_TABLE) == 20  # degrees 2..21; 21 covers the rest
        assert [r.n0 for r in MINKOWSKI_TABLE] == list(range(2, 22))


class TestFieldParams:
    def test_delta_recomputed_exactly(self):
        f = FieldParams(3, math.log(23.0))
        assert f.delta_L == math.exp(f.log_dL / 3)

    def test_rejects_degree_one(self):
        with pytest.raises(DomainError):
            FieldParams(1, math.log(3.0))

    def test_rejects_tiny_discriminant(self):
        with pytest.raises(DomainError):
            FieldParams(2, math.log(2.0))

    def test_rejects_minkowski_violation(self):
        # degree 8 with the discriminant of a quadratic field: impossible
        with pytest.raises(DomainError):
            FieldParams(8, math.log(5.0))

    def test_from_discriminant_rejects_unit_range(self):
        with pytest.raises(DomainError):
            FieldParams.from_discriminant(2, 1.0)
        with pytest.raises(DomainError):
            FieldParams.from_discriminant(2, -4.0)

    def test_minkowski_inequality_for_table_minima(self):
        # printed (d0, M) pairs are independently rounded; the inequality
        # holds up to their combined rounding (~1.2e-6 relative)
        for row in MINKOWSKI_TABLE:
            f = FieldParams(row.n0, row.log_d0)
            assert f.n_L <= row.M * f.log_dL * (1 + 2e-6)


class TestLambdaL:
    def test_quadratic_disc_three(self):
        # both branches by hand: (log sqrt3)^2*4 = 1.20695,
        # (log sqrt3)*sqrt3*sqrt2 = 1.34552
        f = FieldParams.from_discriminant(2, 3.0)
        got = lambda_L(f, 1)
        assert math.isclose(got, lambda_L_oracle(2, math.log(3.0), 1), rel_tol=1e-14)
        assert math.isclose(got, 1.3455, rel_tol=1e-3)

    def test_rejects_m_zero(self):
        f = FieldParams.from_discriminant(2, 3.0)
        with pytest.raises(DomainError):
            lambda_L(f, 0)

    def test_unit_log_delta_first_branch(self):
        # log Delta = 1 makes branch one equal n^2 = 4 > e*sqrt(2)
        f = FieldParams(2, 2.0)
        assert math.isclose(lambda_L(f, 1), 4.0, rel_tol=1e-14)

    def test_monotone_in_each_argument(self):
        base = lambda_L_oracle(4, 8.0, 1)
        assert lambda_L(FieldParams(5, 10.0), 1) >= lambda_L(FieldParams(4, 10.0), 1)
        assert lambda_L(FieldParams(4, 9.0), 1) >= base
        assert lambda_L(FieldParams(4, 8.0), 2) >= base

    def test_oracle_agreement_on_grid(self):
        for n in (2, 3, 5, 9, 21, 40):
            row = minkowski_lookup(n)
            for scale in (1.0, 1.5, 3.0):
                log_d = max(row.n0 / row.M, row.log_d0) * scale
                f = FieldParams(n, log_d)
                for m in (1, 2):
                    assert math.isclose(
                        lambda_L(f, m), lambda_L_oracle(n, log_d, m), rel_tol=1e-13
                    )


class TestLambda0:
    def test_quadratic_row(self):
        # max(4/1.82048^2, sqrt2 e^(1/1.82048)/1.82048) = 1.34552
        got = lambda_0(2, 1.82048)
        oracle = max(4 / 1.82048**2, math.sqrt(2) * math.exp(1 / 1.82048) / 1.82048)
        assert math.isclose(got, oracle, rel_tol=1e-14)
        assert math.isclose(got, 1.3455, rel_tol=1e-3)

    def test_top_row_first_branch_dominates(self):
        got = lambda_0(21, 0.434294)
        assert math.isclose(got, 21**2 / 0.434294**2, rel_tol=1e-14)
        assert math.isclose(got, 2338.1, rel_tol=1e-4)

    def test_m_equal_n0_reduction(self):
        # first branch is exactly 1 when M = n0
        n0 = 4
        got = lambda_0(n0, float(n0))
        assert got == max(1.0, math.sqrt(n0) * math.exp(1 / n0) / n0)

    def test_lower_bound_for_fields_on_row(self):
        # lambda_L >= lambda_0 whenever the field satisfies the row
        for row in MINKOWSKI_TABLE:
            lam0 = lambda_0(row.n0, row.M)
            for bump in (1.0, 1.2, 2.0):
                n = row.n0
                log_d = max(n / row.M, row.log_d0) * bump
                f = FieldParams(n, log_d)
                assert lambda_L(f, 1) >= lam0 * (1 - 1e-12)
