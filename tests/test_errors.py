"""Bad library arguments raise DomainError: no NaN, no silent finite answer,
no ValueError, ZeroDivisionError, NumericError or KeyError from inside.

errors holds the two rules most of these checks go through: `integer`
(what an integer argument is: never a bool, never 1.5, and stored as a
Python int) and `finite` (an answer that left the doubles)."""

import json
import math

import numpy as np
import pytest

from chebotarev import (
    BesselArgs,
    BoundForm,
    DomainError,
    FieldParams,
    P_E_L,
    QuadraticField,
    Q_kernel,
    Q_kernel_partial_u,
    RegimeThreshold,
    SmoothingParams,
    alpha0,
    alpha0_prime,
    bound_eval,
    bessel_I,
    c123,
    classical_constants,
    curly_N0,
    ell6,
    ell7,
    final_constants,
    generate_table,
    k2_upper_bound,
    kronecker,
    lambda_0,
    lambda_L,
    m_bound,
    mellin_H,
    minkowski_lookup,
    psi_C_exact,
    solve_omega0,
    solve_t0,
    standard_config,
    weight_g,
    weight_h,
)
from chebotarev.constants import alpha_coefficient
from chebotarev.errors import finite, integer
from chebotarev.reference_values import matches_printed, round_like
from chebotarev.smoothing import _MAX_ORDER
from chebotarev.verifier import is_prime, kronecker_symbol, primes_up_to, psi_pair

nan, inf = math.nan, math.inf
ROW = minkowski_lookup(2)
FIELD = FieldParams(2, 5.0)
P = SmoothingParams(1, 0.5)
ELL7 = dict(m=1, M=1.82, R2=12.2411, T0=40.0, omega0=1.0, x0_log=1e4, n0=2)
REGIME = dict(m=1, R2_L=24.5, log_delta_L=0.8, T=40.0, log_x=1e6)


def _cases():
    yield "alpha0_prime", alpha0_prime, (nan, ROW)
    yield "P_E_L", P_E_L, (nan, FIELD)
    yield "solve_omega0", solve_omega0, (nan,)
    yield "lambda_0-n0", lambda_0, (nan, 1.0)
    yield "lambda_0-M", lambda_0, (2, nan)
    yield "lambda_0-M-inf", lambda_0, (2, inf)  # was 0.0
    yield "lambda_0-M-1e-300", lambda_0, (2, 1e-300)  # was ZeroDivisionError
    yield "c123-a", c123, (nan, 1.0, 0.0)
    yield "c123-eps", c123, (1.0, nan, 0.0)
    yield "c123-T", c123, (1.0, 1.0, nan)
    yield "c123-eps-inf", c123, (1.0, inf, 0.0)
    yield "curly_N0", curly_N0, (standard_config(2, True), nan)
    yield "final_constants-k", final_constants, (standard_config(2, True), nan)
    for u in (nan, 0.0, -1.0):
        yield f"Q_kernel_partial_u-{u}", Q_kernel_partial_u, (u, FIELD)
    for z in (nan, 0.0, -1.0):
        yield f"k2_upper_bound-{z}", k2_upper_bound, (z,)
    yield "ell6-m", ell6, (nan, 1.82, 40.0)
    yield "ell6-M", ell6, (1, nan, 40.0)
    yield "ell6-M-negative", ell6, (1, -1.0, 40.0)  # was negative
    yield "ell6-T0", ell6, (1, 1.82, nan)
    for key in ELL7:
        yield f"ell7-{key}", ell7, {**ELL7, key: nan}
    for key in ("M", "R2"):
        yield f"ell7-{key}-zero", ell7, {**ELL7, key: 0.0}
    yield "ell7-n0-10**400", ell7, {**ELL7, "n0": 10**400}  # was OverflowError
    for s in (nan, complex(1.0, nan), inf, -inf, complex(1.0, inf)):
        yield f"mellin_H-{s}", mellin_H, (s, P)
    # were nan+nanj, nan+nanj and OverflowError
    for s in (-1e300, complex(1.0, 1e300), 1e300):
        yield f"mellin_H-{s}", mellin_H, (s, SmoothingParams(3, 0.5))
    for key in REGIME:
        yield f"BesselArgs-{key}", BesselArgs.from_parameters, {**REGIME, key: nan}
        yield f"RegimeThreshold-{key}", RegimeThreshold.from_parameters, {**REGIME, key: nan}
    yield "BesselArgs-m-negative", BesselArgs.from_parameters, {**REGIME, "m": -1}
    for key, value in (("m", -1), ("R2_L", 0.0), ("log_x", -1.0)):
        yield f"RegimeThreshold-{key}-{value}", RegimeThreshold.from_parameters, {**REGIME, key: value}
    yield "weight_h", weight_h, (nan, P)  # was 0.0
    yield "weight_g", weight_g, (nan, P)  # was 0.0
    yield "lambda_L", lambda_L, (FIELD, nan)  # was 25.0
    yield "solve_t0-nan", solve_t0, (nan,)
    yield "solve_t0-inf", solve_t0, (inf,)
    yield "solve_t0-no-t0-above-1", solve_t0, (1000.0,)
    yield "minkowski_lookup-2.5", minkowski_lookup, (2.5,)
    yield "minkowski_lookup-nan", minkowski_lookup, (nan,)
    yield "minkowski_lookup-21.5", minkowski_lookup, (21.5,)  # was the top row
    for n in (inf, 1e308):
        yield f"minkowski_lookup-{n}", minkowski_lookup, (n,)  # was log d0 = inf
    yield "minkowski_lookup-10**400", minkowski_lookup, (10**400,)  # was OverflowError
    yield "standard_config-n0", standard_config, (2.5, True)
    yield "standard_config-beta0", standard_config, (3, "yes")
    yield "FieldParams-2.5", FieldParams, (2.5, 5.0)
    yield "FieldParams-nan", FieldParams, (nan, 5.0)
    yield "FieldParams-21.5", FieldParams, (21.5, 60.0)  # was accepted
    yield "m_bound", m_bound, (0.5, nan)
    yield "m_bound-10**6", m_bound, (0.5, 10**6)  # was OverflowError
    yield "SmoothingParams", SmoothingParams, (nan, 0.5)
    yield "SmoothingParams-1.5", SmoothingParams, (1.5, 0.5)  # was TypeError in weight_h
    yield "SmoothingParams-cap+1", SmoothingParams, (_MAX_ORDER + 1, 0.5)  # weight off [0, 1]
    yield "SmoothingParams-200", SmoothingParams, (200, 0.5)  # was OverflowError in weight_h
    for delta in (0.0, 1.0, nan):
        yield f"SmoothingParams-delta-{delta}", SmoothingParams, (1, delta)
    yield "bessel_I-l-0", bessel_I, (2, 1, 1.0, 1.0, 0.0)
    for form in ("exp", "log", "classical-abs", "classical-nl"):
        # was the log form's epsilon under the given label
        yield f"bound_eval-{form}", bound_eval, (FieldParams(3, 10.0), 1e5, True, form)
    # an enum's string value used to get the other member's answer under its
    # own label, or a bare KeyError
    yield "psi_C_exact-identity", psi_C_exact, (QuadraticField(-4), 1000.0, "identity")
    finals = final_constants(standard_config(2, True))
    yield "classical_constants-refined-b0", classical_constants, (finals, "refined", 0.2)
    yield "classical_constants-refined", classical_constants, (finals, "refined")
    yield "SmoothingParams-upper", SmoothingParams, (2, 0.3, "upper")
    yield "primes_up_to-10.5", primes_up_to, (10.5,)  # was TypeError
    yield "primes_up_to-nan", primes_up_to, (nan,)  # was an empty array
    yield "QuadraticField-5.0", QuadraticField, (5.0,)  # was TypeError
    yield "QuadraticField-str", QuadraticField, ("5",)  # was TypeError
    yield "psi_pair-limit-2000.5", psi_pair, (QuadraticField(5), 1e3, 2000.5)  # was accepted
    # non-finite answers, which used to come back as inf
    for T in (1e308, inf):
        yield f"alpha0_prime-{T}", alpha0_prime, (T, ROW)
    yield "P_E_L-inf", P_E_L, (inf, FIELD)
    yield "Q_kernel-inf", Q_kernel, (inf, 1.0, FIELD)
    yield "Q_kernel_partial_u-inf", Q_kernel_partial_u, (inf, FIELD)
    yield "c123-T-inf", c123, (1.0, 1.0, inf)  # was c2 = inf
    # formulas whose answer left the doubles
    yield "k2_upper_bound-1e-300", k2_upper_bound, (1e-300,)  # was ZeroDivisionError
    yield "alpha_coefficient-1e300", alpha_coefficient, (1e300, 40.0)  # was OverflowError
    yield "alpha_coefficient-nan", alpha_coefficient, (nan, 40.0)  # was nan
    yield "ell7-M-1e-300", ell7, {**ELL7, "M": 1e-300}  # was OverflowError
    yield "ell6-M-inf", ell6, (1, inf, 40.0)  # was inf
    yield "ell7-omega0-inf", ell7, {**ELL7, "omega0": inf}  # was inf
    yield "bessel_I-alpha-inf", bessel_I, (2.0, 1.0, inf, 2.0, 2.0)  # was nan
    yield "lambda_L-overflow", lambda_L, (FieldParams(2, 1500.0), 1)  # was OverflowError
    # were w_m = inf and X_LmT = inf
    yield "BesselArgs-log_delta_L-inf", BesselArgs.from_parameters, {**REGIME, "log_delta_L": inf}
    yield ("RegimeThreshold-log_delta_L-1e300", RegimeThreshold.from_parameters,
           {**REGIME, "log_delta_L": 1e300})
    # were TypeError from inside pow
    yield "is_prime-2.5", is_prime, (2.5,)
    yield "is_prime-nan", is_prime, (nan,)
    yield "kronecker-2.5", kronecker, (5, 2.5)
    # were 0, 1 and a TypeError from string formatting
    for a in (5.5, True, "5"):
        yield f"kronecker_symbol-{a!r}", kronecker_symbol, (a, 7)
    # '1.2.3' read as 12.3, so it matched 12.3 and rounded 12.34 up to 12.4;
    # the others were ValueError
    for cell in ("1.2.3", "abc", "-", " 1.5E "):
        yield f"matches_printed-{cell!r}", matches_printed, (12.3, cell)
        yield f"round_like-{cell!r}", round_like, (12.34, cell, "up")
    # were False, ValueError and OverflowError
    for tol in (-0.1, nan, inf):
        yield f"matches_printed-rel_tol-{tol}", matches_printed, (1.0, "1.0", tol)
    # an order that is not an integer, or is a bool, which used to be accepted
    for m in (1.5, True):
        yield f"ell6-m-{m}", ell6, (m, 1.82, 40.0)
        yield f"ell7-m-{m}", ell7, {**ELL7, "m": m}
        yield f"lambda_L-m-{m}", lambda_L, (FIELD, m)
        yield f"m_bound-m-{m}", m_bound, (0.5, m)
        yield f"BesselArgs-m-{m}", BesselArgs.from_parameters, {**REGIME, "m": m}
        yield f"RegimeThreshold-m-{m}", RegimeThreshold.from_parameters, {**REGIME, "m": m}
    yield "SmoothingParams-True", SmoothingParams, (True, 0.5)
    # were OverflowError from int-to-float conversion
    yield "BesselArgs-m-10**400", BesselArgs.from_parameters, {**REGIME, "m": 10**400}
    yield "RegimeThreshold-m-10**400", RegimeThreshold.from_parameters, {**REGIME, "m": 10**400}
    for k in (0.5, True):
        yield f"final_constants-k-{k}", final_constants, (standard_config(2, True), k)
    yield "generate_table-True", generate_table, (True,)
    # non-finite heights: alpha0 raised NumericError, c123 gave (inf, inf, inf)
    yield "alpha0-inf", alpha0, (inf, ROW)
    yield "c123-a-inf", c123, (inf, 1.0, 0.0)


CASES = list(_cases())


@pytest.mark.parametrize("call, args", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_argument_is_domain_error(call, args):
    with pytest.raises(DomainError):
        call(**args) if isinstance(args, dict) else call(*args)


@pytest.mark.parametrize("n", [3, np.int64(3), np.uint8(3), 3.0])
def test_integer_is_a_python_int(n):
    assert type(integer(n, "n")) is int and integer(n, "n") == 3


@pytest.mark.parametrize("n", [True, False, np.True_, 2.5, nan, inf, "5", None])
def test_integer_rejects(n):
    with pytest.raises(DomainError, match="^n must be an integer, got "):
        integer(n, "n")


def test_integer_bounds():
    assert integer(1e6, "n", 2, 10**6) == 10**6
    for n in (1, 10**6 + 1, 10**400):
        with pytest.raises(DomainError, match="^degree must be an integer from 2 to 1e[+]06, got "):
            integer(n, "degree", 2, 10**6)


@pytest.mark.parametrize("compute", [lambda: 10.0**400, lambda: 1.0 / 0.0, lambda: inf,
                                     lambda: nan], ids=["overflow", "zero-division", "inf", "nan"])
def test_finite_names_what_left_the_doubles(compute):
    assert finite(lambda: 1.5, "x") == 1.5
    with pytest.raises(DomainError, match="^the answer is not finite"):
        finite(compute, "the answer")


def test_integer_arguments_are_stored_as_python_ints():
    for n in (np.int64(3), 3.0):
        field = FieldParams(n, 10.0)
        assert type(field.n_L) is int
        json.dumps(bound_eval(field, 1e5, True, BoundForm.EXP).n_L)  # rejected np.int64
    table = generate_table(4.0)
    assert type(table.table_id) is int and table.table_id == 4
