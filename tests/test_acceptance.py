"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances follow the published rounding conventions: most table cells use
the round-up band printed - 2u < computed < printed + u (u = one unit in
the last printed digit); the absolute-constant tables use 1e-2 relative
because their published cells compound a maximization over already-rounded
inputs.  Runtime ceilings are asserted with wall-clock checks.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from chebotarev import (
    ConjugacyClass,
    QuadraticField,
    bessel_I,
    bessel_K,
    corollary_constants,
    diff_table,
    equidist_report,
    generate_table,
    k2_upper_bound,
    m_bound,
    mellin_H,
    psi_C_exact,
    weight_g,
)
from chebotarev.bessel import RegimeThreshold
from chebotarev.smoothing import Endpoint, SmoothingParams
from chebotarev.verifier import kronecker_symbol, primes_up_to, psi_pair

from test_bessel import direct_I
from test_verifier import psi_oracle


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def table_failures(table_id: int) -> list:
    return [d for d in diff_table(generate_table(table_id)) if not d.ok]


def test_criterion_01_zero_counting_table():
    start = time.perf_counter()
    table = generate_table(1)
    bad = [d for d in diff_table(table) if not d.ok]
    elapsed = time.perf_counter() - start
    anchors = {
        ("2", "alpha0(1)"): "40.1778",
        ("21", "alpha0'(2)"): "10.4694",
    }
    anchor_ok = all(
        any(d.row == r and d.column == c and d.printed == p and d.ok for d in diff_table(table))
        for (r, c), p in anchors.items()
    )
    ok = not bad and anchor_ok and elapsed < 5.0 and len(diff_table(table)) == 100
    report(1, ok, f"all 20x5 zero-counting cells (degrees 2..21), "
                  f"{elapsed:.2f}s (limit 5s), {len(bad)} mismatches")


def test_criterion_02_threshold_pairs():
    table = generate_table(2)
    bad = [d for d in diff_table(table) if not d.ok]
    t0_cell = next(d for d in diff_table(table) if d.row == "omega0=1" and d.column == "t0")
    ok = not bad and t0_cell.printed == "39.217" and abs(t0_cell.computed - 39.217) < 1e-3
    report(2, ok, f"20 threshold pairs to 3 decimals, {len(bad)} mismatches")


def test_criterion_03_main_constants_table():
    bad = table_failures(4)
    diffs = diff_table(generate_table(4))
    anchors = [
        ("2", "max(E1,E2) [present]", "0.28649"),
        ("2", "E3 [present]", "0.44511"),
        ("2", "N0 [present]", "2.003"),
        ("21", "N0 [absent]", "519.59"),
    ]
    anchor_ok = all(
        any(d.row == r and d.column == c and d.printed == p and d.ok for d in diffs)
        for r, c, p in anchors
    )
    ok = not bad and anchor_ok
    report(3, ok, f"main-constants table, both states, degrees 2..21, {len(bad)} mismatches")


def test_criterion_04_log_and_classical_tables():
    bad5 = table_failures(5)
    bad6 = table_failures(6)
    diffs = diff_table(generate_table(5)) + diff_table(generate_table(6))
    anchors = [
        ("2", "D12 [present]", "1.5568"),
        ("2", "C3 [present]", "3.674E-2"),
        ("2", "exp_full", "0.26730"),
        ("2", "exp_half", "0.27656"),
    ]
    anchor_ok = all(
        any(d.row == r and d.column == c and d.printed == p and d.ok for d in diffs)
        for r, c, p in anchors
    )
    ok = not bad5 and not bad6 and anchor_ok
    report(4, ok, f"log-form and classical-shape tables, "
                  f"{len(bad5)}+{len(bad6)} mismatches")


def test_criterion_05_absolute_constant_tables():
    from chebotarev.assembly import (
        B0_FULL,
        B0_REFINED,
        ClassicalBranch,
        _finals_cached,
        classical_a0_grid,
        classical_constants,
    )
    bad7 = table_failures(7)
    bad8 = table_failures(8)

    # closed-form maximizer vs 1e6-point grid search
    grid_ok = True
    for n0, present, branch, b0 in [
        (2, True, ClassicalBranch.REFINED, B0_REFINED),
        (2, True, ClassicalBranch.FULL, B0_FULL),
        (21, True, ClassicalBranch.REFINED, B0_REFINED),
        (21, False, ClassicalBranch.FULL, B0_FULL),
    ]:
        f = _finals_cached(n0, present)
        cc = classical_constants(f, branch, b0)
        if branch is ClassicalBranch.REFINED:
            A, B, D, C = 0.75, 0.75, f.exp_coeff_half, f.C3
        else:
            A, B, D, C = 2.0, 1.0, f.exp_coeff_full, f.C12
        grid = classical_a0_grid(C, A, B, D, b0, cc.c0, f.cfg.row.M, n0)
        grid_ok &= abs(cc.a0 - grid) <= 1e-6 * cc.a0

    cc2 = classical_constants(_finals_cached(2, True), ClassicalBranch.REFINED, B0_REFINED)
    anchor_ok = (
        abs(cc2.a0 - 46.1831) / 46.1831 < 1e-2
        and abs(cc2.c0 - 728.705) / 728.705 < 1e-2
    )
    cc_full = classical_constants(_finals_cached(2, True), ClassicalBranch.FULL, B0_FULL)
    anchor_ok &= abs(cc_full.a0 - 174.707) / 174.707 < 1e-2

    ok = not bad7 and not bad8 and grid_ok and anchor_ok
    report(5, ok, f"absolute-constant tables at 1e-2 relative plus 1e-6 "
                  f"maximizer check, {len(bad7)}+{len(bad8)} mismatches")


def test_criterion_06_corollary_constants():
    from chebotarev.reference_values import matches_printed

    cors = corollary_constants()
    checks = [
        cors["exp"]["threshold"] == 2915,
        matches_printed(cors["exp"]["general"], "2.714E-1"),
        matches_printed(cors["exp"]["refined"], "4.452E-1"),
        cors["exp"]["decay"] == 0.285,
        matches_printed(cors["log"]["general"], "1.475"),
        matches_printed(cors["log"]["refined"], "2.419"),
        matches_printed(cors["classical"]["general"], "1.952E-3"),
        matches_printed(cors["classical"]["refined"], "3.674E-2"),
        cors["classical"]["decay_general"] == 0.267,
        cors["classical"]["decay_refined"] == 0.258,
        cors["absolute"]["threshold"] == 729,
        math.ceil(cors["absolute"]["a0_general"]) == 175,
        cors["absolute"]["b0_general"] == 0.23,
        abs(cors["absolute"]["a0_refined"] - 18458) / 18458 < 1e-2,
        cors["absolute"]["b0_refined"] == 0.25,
    ]
    detail = "Cor quotes (2915, 2.714e-1, 4.452e-1, 0.285), (1.475, 2.419), " \
             "(1.952e-3, 3.674e-2, 0.267, 0.258), (729, 175, 0.23, 18458, 0.25)"
    report(6, all(checks), f"{sum(checks)}/15 corollary constants match: {detail}")


def test_criterion_07_mellin_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    m = 1
    ok = True
    for delta in (1e-3, 0.1, 0.5, 0.99):
        for endpoint in (Endpoint.UPPER, Endpoint.LOWER):
            p = SmoothingParams(m, delta, endpoint)
            # quadrature identities: int g = 1/2 and int |g'| = 1 (the
            # ramp is monotone, so total variation on a dense grid is
            # exact up to the endpoint offsets)
            ig = quad(lambda x: weight_g(x, p), 0, 1, limit=200)[0]
            ok &= abs(ig - 0.5) < 1e-8
            xs = np.linspace(1e-12, 1 - 1e-12, 20_001)
            ys = np.array([weight_g(float(x), p) for x in xs])
            ok &= abs(float(np.abs(np.diff(ys)).sum()) - 1.0) < 1e-8
            ok &= bool(np.all(ys >= -1e-12) and np.all(ys <= 1 + 1e-12))

            # |H| bounds on a 10^4-sample grid of s
            n_right = 625
            re_r = rng.uniform(1e-3, 1.0, n_right)
            rad = 10 ** rng.uniform(-1, 2, n_right)
            im_r = np.sqrt(np.maximum(rad**2 - re_r**2, 0.0)) * rng.choice([-1, 1], n_right)
            for re, im in zip(re_r, im_r):
                s = complex(re, im)
                if abs(s) < 0.1:
                    continue
                h = abs(mellin_H(s, p))
                for k in range(m + 1):
                    ok &= h <= m_bound(delta, k) / (delta**k * abs(s) ** (k + 1)) * (1 + 1e-9)
            n_left = 625
            re_l = -rng.uniform(0.0, 5.0, n_left)
            im_l = rng.uniform(0.1, 100.0, n_left) * rng.choice([-1, 1], n_left)
            for re, im in zip(re_l, im_l):
                s = complex(re, im)
                if abs(s) < 0.1 or abs(s + 1) < 1e-8:
                    continue
                ok &= abs(mellin_H(s, p)) <= (1 - delta) ** re / abs(s) * (1 + 1e-9)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(7, ok, f"transform bounds on 10^4 samples x 4 deltas x 2 endpoints, "
                  f"{elapsed:.1f}s (limit 30s)")


def test_criterion_08_bessel_suite():
    start = time.perf_counter()
    ok = True
    for z in (10.0, 20.0, 50.0, 100.0):
        bound = k2_upper_bound(z)
        for w in np.linspace(0.0, 0.7, 8):
            ok &= bessel_K(2.0, z, float(w)) <= bound

    rng = np.random.default_rng(8)
    count = 0
    while count < 100:
        n = rng.uniform(1.0, 3.0)
        m = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.5, 8.0)
        b = rng.uniform(0.5, 3.0)
        l = rng.uniform(1.05 / b + 0.2, 10.0)
        if b * l <= 1.01:
            continue
        got = bessel_I(n, m, a, b, l)
        want = direct_I(n, m, a, b, l)
        ok &= abs(got - want) <= 1e-8 * want
        count += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(8, ok, f"K2 bound grid and 100 I-reduction identities, "
                  f"{elapsed:.1f}s (limit 60s)")


def test_criterion_09_verifier_suite():
    start = time.perf_counter()
    ok = True

    field = QuadraticField(-4)
    ident = psi_C_exact(field, 20.0, ConjugacyClass.IDENTITY).psi
    nontriv = psi_C_exact(field, 20.0, ConjugacyClass.NONTRIVIAL).psi
    o_ident, o_non = psi_oracle(-4, 20.0)
    ok &= abs(ident - o_ident) < 1e-9 and abs(nontriv - o_non) < 1e-9
    ok &= math.isclose(ident, 8.1062, rel_tol=1e-4)
    ok &= math.isclose(nontriv, 8.3868, rel_tol=1e-4)

    # reciprocity vs Euler criterion below 1e4
    primes = [p for p in primes_up_to(10_000).tolist() if p > 2]
    for D in (-4, -3, 5, 8):
        for p in primes:
            if D % p == 0:
                continue
            e = pow(D % p, (p - 1) // 2, p)
            ok &= kronecker_symbol(D, p) == (1 if e == 1 else -1)

    # class partition at 100 random x <= 1e6
    rng = np.random.default_rng(9)
    xs = rng.integers(100, 10**6, size=100)
    for x in xs:
        i, n = psi_pair(field, float(x), limit=10**6)
        rows = equidist_report(field, [float(x)], limit=10**6)
        ok &= abs(i + n - rows[0].unramified_total) < 1e-9

    # deviation medians shrink with x
    for D in (-4, -3, 5, 8):
        f = QuadraticField(D)
        lo = equidist_report(f, list(np.geomspace(1e3, 1e4, 10)), limit=10**6)
        hi = equidist_report(f, list(np.geomspace(1e5, 1e6, 10)), limit=10**6)
        med = lambda rows: float(np.median([max(r.ec_identity, r.ec_nontrivial) for r in rows]))
        ok &= med(hi) < med(lo)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(9, ok, f"exact psi_C against oracles at sieve limit 1e6, "
                  f"{elapsed:.1f}s (limit 120s)")


def test_criterion_10_regime_equivalence():
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n_L = int(rng.integers(2, 50))
        r2_eff = rng.uniform(1.0, 20.0)
        log_delta = rng.uniform(0.1, 5.0)
        T = rng.uniform(4.01, 1000.0)
        log_x = 10 ** rng.uniform(0, 7)
        thr = RegimeThreshold.from_parameters(m, r2_eff * n_L, log_delta, T, log_x)
        ok &= thr.large_x(log_x) == thr.W_exceeds(T)
    report(10, ok, "log x > X_(L,m,T) iff W > T on 1000 random tuples")
