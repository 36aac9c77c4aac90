"""Final constants, the delta0 search, classical constants, bound
evaluation, and table generation."""

import dataclasses
import decimal
import math
import random
import sys

import numpy as np
import pytest

from chebotarev import (
    BoundForm,
    ClassicalBranch,
    DomainError,
    FieldParams,
    bound_eval,
    choose_delta0,
    classical_constants,
    corollary_constants,
    curly_N0,
    diff_table,
    final_constants,
    generate_table,
    lambda_L,
    minkowski_lookup,
    standard_config,
)
from chebotarev.assembly import (_PUBLISHED_B0, B0_FULL, B0_REFINED, _decayed, _delta0_interval,
                                 _finals_cached, classical_a0_grid)
from chebotarev.constants import compute_ells
from chebotarev.reference_values import DELTA0, TABLE7_RANGE, matches_printed, round_like
from chebotarev.zeros import R2


class TestFinalConstants:
    def test_degree_two_present_anchors(self):
        f = _finals_cached(2, True)
        assert matches_printed(f.alpha, "2914.82")
        assert matches_printed(f.x0_log, "1759")
        assert matches_printed(f.max_E12, "0.28649")
        assert matches_printed(f.E3, "0.44511")
        assert matches_printed(f.E3_tilde, "0.27134")
        assert matches_printed(f.N0, "2.003")

    def test_degree_two_absent_anchors(self):
        f = _finals_cached(2, False)
        assert matches_printed(f.max_E12, "0.20275")
        assert matches_printed(f.E3, "0.31501")
        assert matches_printed(f.E3_tilde, "0.19203")

    def test_log_form_anchors(self):
        f = _finals_cached(2, True)
        assert matches_printed(f.D12, "1.5568")
        assert matches_printed(f.D3, "2.4187")
        assert matches_printed(f.D3_tilde, "1.4744")

    def test_classical_anchors(self):
        f = _finals_cached(2, True)
        assert matches_printed(f.C12, "1.952E-3")
        assert matches_printed(f.C3, "3.674E-2")
        assert matches_printed(f.C3_tilde, "1.813E-3")
        assert matches_printed(f.exp_coeff_full, "0.26730")
        assert matches_printed(f.exp_coeff_half, "0.27656")

    def test_fields_are_python_floats(self):
        # a numpy scalar here turns every comparison into a numpy.bool_,
        # which json cannot encode
        for n0 in range(2, 22):
            for present in (True, False):
                f = final_constants(standard_config(n0, present))
                # k is the corollary index, an int; cfg and ells are records
                names = [(f.ells, field.name) for field in dataclasses.fields(f.ells)]
                names += [(f, field.name) for field in dataclasses.fields(f)
                          if field.name not in ("cfg", "ells", "k")]
                names += [(f, "alpha"), (f, "x0_log")]
                for obj, name in names:
                    assert type(getattr(obj, name)) is float, (n0, present, name)

    def test_record_carries_its_config_and_ells(self):
        for n0 in range(2, 22):
            for present in (True, False):
                cfg = standard_config(n0, present)
                f = final_constants(cfg)
                assert f.cfg == cfg, (n0, present)
                assert f.ells == compute_ells(cfg), (n0, present)
                assert (f.alpha, f.x0_log) == (cfg.alpha, cfg.x0_log)

    def test_exp_coeff_ordering(self):
        f = _finals_cached(2, True)
        assert f.exp_coeff_full < f.exp_coeff_half < 1 / math.sqrt(R2)

    def test_exp_coeff_closed_form(self):
        f = _finals_cached(2, True)
        assert math.isclose(
            f.exp_coeff_full, 1 / math.sqrt(12.2411) - 1 / math.sqrt(f.alpha), rel_tol=1e-12
        )

    def test_k_range_enforced(self):
        cfg = standard_config(2, True)
        final_constants(cfg, k=3)  # admissible: k_max ~ 3.74
        with pytest.raises(DomainError):
            final_constants(cfg, k=4)

    def test_tilde_matches_general_from_degree_five(self):
        # lambda_0 takes its first branch from degree 3 on, making
        # E3~ = E2 exactly; the published tables show equality from n0 = 5
        # where E2 also dominates E1
        for n0 in (5, 9, 17):
            f = _finals_cached(n0, True)
            assert math.isclose(f.E3_tilde, f.E2, rel_tol=1e-12)
            assert f.max_E12 == f.E2


class TestCurlyN0:
    def test_anchor_degree_two(self):
        f = _finals_cached(2, True)
        assert matches_printed(f.N0, "2.003")

    def test_top_row_anchors(self):
        assert matches_printed(_finals_cached(21, True).N0, "654.650")
        assert matches_printed(_finals_cached(21, False).N0, "519.59")

    def test_rejects_nonpositive_Y0(self):
        cfg = standard_config(2, True)
        with pytest.raises(DomainError):
            curly_N0(cfg, 0.0)


# rows on which SEARCH bisects for n0 <= N_0 < n0 + 1
SEARCH_ROWS = [(n0, present) for n0 in range(2, 21) for present in (True, False)]


class TestChooseDelta0:
    # a given delta0 is reproduced by standard_config(...).with_delta0, not
    # by the search
    def test_reproduce_returns_input(self):
        assert standard_config(2, True).with_delta0(2.26e-3).delta0 == 2.26e-3

    def test_reproduce_default_is_published(self):
        assert standard_config(2, True).delta0 == 2.26e-3

    def test_reproduce_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            standard_config(2, True).with_delta0(1.5)
        with pytest.raises(DomainError):
            standard_config(2, True).with_delta0(0.0)

    @pytest.mark.parametrize("n0", [1, 22, 40])
    def test_reproduce_default_rejects_row_outside_table(self, n0):
        # before any delta0 is looked at, as the search does
        for present in (True, False):
            with pytest.raises(DomainError):
                standard_config(n0, present)
            with pytest.raises(DomainError):
                choose_delta0(n0, present)

    def test_search_near_published(self):
        for n0, present in SEARCH_ROWS:
            found = choose_delta0(n0, present)
            published = DELTA0[(n0, present)]
            assert abs(found - published) / published < 0.05, (n0, present)
            # the found point must stay admissible
            cfg = standard_config(n0, present).with_delta0(found)
            N0 = curly_N0(cfg, compute_ells(cfg).Y0)
            assert n0 <= N0 < n0 + 1, (n0, present)

    def test_search_objective_increasing(self):
        # SEARCH returns the lower end of the admissible interval; that is the
        # minimizer of min(max(E1, E2), E3~) only while the objective
        # increases across the interval, checked here on a dense grid
        for n0, present in SEARCH_ROWS:
            d_lo, d_hi = _delta0_interval(n0, present)
            base = standard_config(n0, present)
            vals = []
            for d in np.geomspace(d_lo, d_hi * (1 - 1e-12), 200):
                f = final_constants(base.with_delta0(float(d)), k=0)
                vals.append(min(f.max_E12, f.E3_tilde))
            assert all(a < b for a, b in zip(vals, vals[1:])), (n0, present)

    def test_search_top_row(self):
        assert choose_delta0(21, True) == 0.99999

    def test_search_objective_not_worse_than_published(self):
        def objective(n0, present, d):
            cfg = standard_config(n0, present).with_delta0(d)
            f = final_constants(cfg, k=0)
            return min(f.max_E12, f.E3_tilde)

        found = choose_delta0(3, False)
        published = 2.71e-3
        assert objective(3, False, found) <= objective(3, False, published) * (1 + 1e-6)


class TestClassicalConstants:
    def test_refined_anchor_degree_two(self):
        f = final_constants(standard_config(2, True))
        cc = classical_constants(f, ClassicalBranch.REFINED, B0_REFINED)
        assert abs(cc.a0 - 46.1831) / 46.1831 < 1e-2
        assert abs(cc.c0 - 728.705) / 728.705 < 1e-2

    def test_full_anchor_degree_two(self):
        f = final_constants(standard_config(2, True))
        cc = classical_constants(f, ClassicalBranch.FULL, B0_FULL)
        assert abs(cc.a0 - 174.707) / 174.707 < 1e-2

    def test_full_anchor_top_row_absent(self):
        f = final_constants(standard_config(21, False))
        cc = classical_constants(f, ClassicalBranch.FULL, B0_FULL)
        assert abs(cc.a0 - 1.047e10) / 1.047e10 < 1e-2

    def test_closed_form_matches_grid_search(self):
        for n0, present, branch, b0 in [
            (2, True, ClassicalBranch.REFINED, B0_REFINED),
            (2, True, ClassicalBranch.FULL, B0_FULL),
            (21, False, ClassicalBranch.FULL, B0_FULL),
            (9, False, ClassicalBranch.REFINED, B0_REFINED),
        ]:
            f = _finals_cached(n0, present)
            cc = classical_constants(f, branch, b0)
            if branch is ClassicalBranch.REFINED:
                A, B, D, C = 0.75, 0.75, f.exp_coeff_half, f.C3
            else:
                A, B, D, C = 2.0, 1.0, f.exp_coeff_full, f.C12
            grid = classical_a0_grid(C, A, B, D, b0, cc.c0, f.cfg.row.M, n0)
            assert abs(cc.a0 - grid) <= 1e-6 * cc.a0

    def test_b0_must_stay_below_decay(self):
        f = final_constants(standard_config(2, True))
        with pytest.raises(DomainError):
            classical_constants(f, ClassicalBranch.FULL, 0.27)

    def test_b0_defaults_to_the_branchs_published_one(self):
        f = _finals_cached(21, False)
        for branch, b0 in ((ClassicalBranch.FULL, 0.23), (ClassicalBranch.REFINED, 0.25)):
            assert classical_constants(f, branch) == classical_constants(f, branch, b0)
        assert classical_constants(f, ClassicalBranch.FULL, 0.2).b0 == 0.2

    def test_published_b0_is_one_per_branch(self):
        # read from table 7's range rows, which print the same b0 for both
        # beta0 states of a branch
        for _, _, _, b0, _, branch in TABLE7_RANGE:
            assert float(b0) == _PUBLISHED_B0[ClassicalBranch(branch)]
        assert (B0_FULL, B0_REFINED) == (0.23, 0.25)

    def test_c0_decreasing_across_rows(self):
        vals = [
            classical_constants(
                final_constants(standard_config(n0, True)), ClassicalBranch.FULL, B0_FULL
            ).c0
            for n0 in range(2, 22)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBoundEval:
    def test_domain_gate(self):
        field = FieldParams.from_discriminant(2, 3.0)
        cfg = standard_config(2, True)
        threshold = cfg.alpha * 2 * field.log_delta_L**2
        rep = bound_eval(field, threshold - 1.0, True, BoundForm.EXP)
        assert not rep.applicable and rep.epsilon is None
        rep2 = bound_eval(field, threshold + 1.0, True, BoundForm.EXP)
        assert rep2.applicable and rep2.epsilon is not None

    def test_exp_epsilon_composition(self):
        # refined branch applies at degree 2; epsilon must equal the
        # composition of published constants (to their printed accuracy)
        field = FieldParams.from_discriminant(2, 3.0)
        rep = bound_eval(field, 4000.0, False, BoundForm.EXP)
        assert rep.applicable and rep.refined_used
        lam = lambda_L(field, 1)
        expected = (
            float("0.31501")
            * math.sqrt(lam)
            * math.sqrt(4000.0)
            * math.exp(-math.sqrt(4000.0 / 2) / math.sqrt(R2))
        )
        assert abs(rep.epsilon - expected) / expected < 1e-3

    def test_beta0_flag_is_stored_as_a_bool(self):
        # 1 and np.True_ equal True, and hit its cached record
        for flag in (1, np.True_):
            assert standard_config(2, flag).beta0_present is True
            assert bound_eval(FieldParams(2, 5.0), 1e5, flag, BoundForm.EXP).beta0_present is True
        assert standard_config(2, 0).beta0_present is False

    def test_exceptional_term_flagging(self):
        field = FieldParams.from_discriminant(2, 3.0)
        with_zero = bound_eval(field, 4000.0, True, BoundForm.EXP)
        without = bound_eval(field, 4000.0, False, BoundForm.EXP)
        assert with_zero.exceptional_term == "x^(beta0-1)/beta0"
        assert without.exceptional_term is None

    def test_classical_abs_full_branch_constant(self):
        # the all-degree coefficient rounds up to the published 175
        field = FieldParams.from_discriminant(2, 3.0)
        rep = bound_eval(field, 1e5, True, BoundForm.CLASSICAL_ABS)
        assert math.ceil(rep.details["a0"]) == 175
        assert rep.details["b0"] == 0.23
        # threshold c0 n_L (log d_L)^2
        c0 = rep.details["c0"]
        assert math.isclose(rep.threshold, c0 * 2 * math.log(3.0) ** 2, rel_tol=1e-12)

    def test_log_form_branches(self):
        field_small = FieldParams.from_discriminant(2, 3.0)
        rep = bound_eval(field_small, 5000.0, False, BoundForm.LOG)
        assert rep.applicable and rep.refined_used
        f = _finals_cached(2, False)
        lam = lambda_L(field_small, 1)
        assert math.isclose(rep.epsilon, f.D3 * math.sqrt(lam) * 2**1.5 / 5000.0, rel_tol=1e-12)

    def test_general_branch_when_degree_exceeds_ceiling(self):
        # degree 3 field sits above the degree-2 ceiling N0 = 2.003, but
        # uses its own row (n0 = 3) where N0 = 3.005 covers it
        field = FieldParams.from_discriminant(3, 23.0)
        rep = bound_eval(field, 1e5, True, BoundForm.EXP)
        assert rep.refined_used
        # a degree-4 field with a degree-3 row never happens: rows track n_L
        f4 = FieldParams.from_discriminant(4, 117.0)
        rep4 = bound_eval(f4, 1e5, True, BoundForm.EXP)
        assert rep4.refined_used  # row 4, N0 = 4.009

    def test_above_table_degree(self):
        # degree 600 exceeds the beta0-absent ceiling 519.59
        field = FieldParams(600, 600 * math.log(10.0) / 0.43)
        rep = bound_eval(field, 1e9, False, BoundForm.EXP)
        assert not rep.refined_used or not rep.applicable

    @pytest.mark.parametrize("refined", [True, False])
    @pytest.mark.parametrize("form", list(BoundForm))
    def test_epsilon_is_the_forms_formula(self, form, refined):
        # each form on each branch, bit for bit against its formula written
        # out from the FinalConstants record; degree 1000 is above the top
        # row's N0, and every epsilon stays a normal float
        n, log_dL, log_x = (5, 20.0, 1e6) if refined else (1000, 2500.0, 5e9)
        field = FieldParams(n, log_dL)
        f = final_constants(standard_config(min(n, 21), False))
        lam = lambda_L(field, f.cfg.m)
        root = math.sqrt(log_x / n)
        decay = math.exp(-root / math.sqrt(R2))
        formulas = {
            (BoundForm.EXP, True): lambda: f.E3 * math.sqrt(lam) * math.sqrt(log_x) * decay,
            (BoundForm.EXP, False): lambda: f.max_E12 * lam * math.sqrt(n) * math.sqrt(log_x) * decay,
            (BoundForm.LOG, True): lambda: f.D3 * math.sqrt(lam) * n**1.5 / log_x**f.k,
            (BoundForm.LOG, False): lambda: f.D12 * lam * n * n / log_x**f.k,
            (BoundForm.CLASSICAL_NL, True):
                lambda: f.C3 * n**0.75 * log_x**0.75 * math.exp(-f.exp_coeff_half * root),
            (BoundForm.CLASSICAL_NL, False):
                lambda: f.C12 * n * n * log_x * math.exp(-f.exp_coeff_full * root),
            (BoundForm.CLASSICAL_ABS, True):
                lambda: classical_constants(f, ClassicalBranch.REFINED, B0_REFINED).a0
                * math.exp(-B0_REFINED * root),
            (BoundForm.CLASSICAL_ABS, False):
                lambda: classical_constants(f, ClassicalBranch.FULL, B0_FULL).a0
                * math.exp(-B0_FULL * root),
        }
        rep = bound_eval(field, log_x, False, form)
        assert rep.applicable and rep.refined_used is refined
        assert rep.epsilon == formulas[form, refined]()
        assert rep.epsilon >= sys.float_info.min

    @staticmethod
    def _rule(form, field, refined):
        # the form's threshold and details written out from the FinalConstants
        # record, each branch's published b0 passed explicitly
        n = field.n_L
        f = final_constants(standard_config(min(n, 21), False))
        if form is BoundForm.CLASSICAL_ABS:
            full = classical_constants(f, ClassicalBranch.FULL, B0_FULL)
            details = {"a0": full.a0, "b0": B0_FULL, "c0": f.alpha / f.cfg.row.n0**2}
            if refined:
                rr = classical_constants(f, ClassicalBranch.REFINED, B0_REFINED)
                details.update({"a0_refined": rr.a0, "b0_refined": B0_REFINED})
            return f.alpha / f.cfg.row.n0**2 * n * field.log_dL**2, details
        threshold = f.alpha * f.cfg.m * n * (field.log_dL / n) ** 2
        return threshold, {
            BoundForm.EXP: {"max_E12": f.max_E12, "E3": f.E3, "decay": 1.0 / math.sqrt(R2)},
            BoundForm.LOG: {"D12": f.D12, "D3": f.D3, "k": 1.0},
            BoundForm.CLASSICAL_NL: {"C12": f.C12, "C3": f.C3, "exp_full": f.exp_coeff_full,
                                     "exp_half": f.exp_coeff_half},
        }[form]

    @pytest.mark.parametrize("refined", [True, False])
    @pytest.mark.parametrize("form", list(BoundForm))
    def test_threshold_and_details_are_the_forms_record(self, form, refined):
        # the inputs of test_epsilon_is_the_forms_formula, bit for bit
        n, log_dL, log_x = (5, 20.0, 1e6) if refined else (1000, 2500.0, 5e9)
        field = FieldParams(n, log_dL)
        rep = bound_eval(field, log_x, False, form)
        assert rep.applicable and rep.refined_used is refined
        assert (rep.threshold, rep.details) == self._rule(form, field, refined)

    @pytest.mark.parametrize("form", list(BoundForm))
    def test_below_threshold_no_epsilon(self, form):
        # degree 5 is on the refined branch, but log x = 10 is below every
        # form's threshold: no epsilon, no branch used, the same rule
        field = FieldParams(5, 20.0)
        rep = bound_eval(field, 10.0, False, form)
        assert not rep.applicable
        assert rep.epsilon is None and rep.refined_used is False
        assert (rep.threshold, rep.details) == self._rule(form, field, True)

    @pytest.mark.parametrize("form, answers", [
        (BoundForm.CLASSICAL_NL, True), (BoundForm.CLASSICAL_ABS, True),
        (BoundForm.EXP, False), (BoundForm.LOG, False),
    ])
    def test_forms_past_exp_overflow(self, form, answers):
        # log Delta_L = 750 > 709.78: e^(m log Delta_L) overflows, but only
        # lambda_L contains it, which the classical forms never read
        field = FieldParams(2, 1500.0)
        if answers:
            rep = bound_eval(field, 1e10, False, form)
            assert rep.applicable and math.isfinite(rep.threshold)
            assert rep.epsilon == math.ulp(0.0)
        else:
            with pytest.raises(DomainError, match="overflows double precision"):
                bound_eval(field, 1e10, False, form)

    @pytest.mark.parametrize("form, field, log_x", [
        (BoundForm.EXP, FieldParams.from_discriminant(2, 5.0), 1e9),
        (BoundForm.CLASSICAL_NL, FieldParams.from_discriminant(2, 5.0), 1e9),
        (BoundForm.CLASSICAL_ABS, FieldParams.from_discriminant(2, 5.0), 1e9),
        (BoundForm.EXP, FieldParams(2, 100.0), 1.46e7),
        (BoundForm.CLASSICAL_NL, FieldParams(2, 97.0), 1.375e7),
    ])
    def test_epsilon_below_the_normal_floats(self, form, field, log_x):
        # the decay factor is below the normal floats, here or far below any
        # float: epsilon is at or just above the refined formula worked out
        # in 50-digit decimals, never 0.0
        f = _finals_cached(2, False)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            D = decimal.Decimal
            root = (D(log_x) / 2).sqrt()
            if form is BoundForm.EXP:
                lam = D(lambda_L(field, f.cfg.m))
                coeff, rate = D(f.E3) * lam.sqrt() * D(log_x).sqrt(), root / D(R2).sqrt()
            elif form is BoundForm.CLASSICAL_NL:
                coeff, rate = D(f.C3) * (2 * D(log_x)) ** D("0.75"), D(f.exp_coeff_half) * root
            else:
                a0 = classical_constants(f, ClassicalBranch.REFINED, B0_REFINED).a0
                coeff, rate = D(a0), D(B0_REFINED) * root
            want = coeff * (-rate).exp()
            rep = bound_eval(field, log_x, False, form)
            assert rep.applicable and rep.refined_used
            assert want <= D(rep.epsilon) <= max(want * (1 + D("1e-12")),
                                                 want + 2 * D(math.ulp(0.0)))

    def test_decayed_rounds_up(self):
        # past the normal floats the helper is at or just above coeff e^-exponent
        # in 60-digit decimals, on seeded coefficients 1e-3 .. 1e308
        rng = random.Random(3)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for _ in range(2000):
                coeff, exponent = 10 ** rng.uniform(-3, 308), rng.uniform(708.4, 1500.0)
                want = decimal.Decimal(coeff) * (-decimal.Decimal(exponent)).exp()
                got = decimal.Decimal(_decayed(coeff, exponent))
                assert want <= got <= max(want * (1 + decimal.Decimal("1e-12")),
                                          want + 2 * decimal.Decimal(math.ulp(0.0)))


class TestBoundShape:
    """Epsilon falls as log x grows above the threshold, and does not fall
    as log d_L grows at a log x where both fields' bounds apply: a seeded
    probe of every form and beta0 state over n_L in 2..1000 (the rows' ends
    and the two N0 ceilings drawn more often), log d_L from the Minkowski
    minimum to 100 times it, and log x from the threshold to 1000 times it.
    The sampled points lie far apart; at neighbouring floats of log x the
    roundings of coefficient and decay move epsilon by an ulp either way,
    which the 1e-12 slack absorbs."""

    FIELDS = 750
    SLACK = 1 + 1e-12

    @pytest.mark.parametrize("beta0_present", [True, False])
    @pytest.mark.parametrize("form", list(BoundForm))
    def test_monotone_in_log_x_and_log_dL(self, form, beta0_present):
        rng = random.Random(f"{form.value}-{beta0_present}")

        def eps(field, log_x):
            rep = bound_eval(field, log_x, beta0_present, form)
            assert rep.applicable
            return rep.epsilon

        def threshold(field):
            return bound_eval(field, 1.0, beta0_present, form).threshold

        for _ in range(self.FIELDS):
            n = rng.choice((2, 20, 21, 520, 655, 1000)) if rng.random() < 0.3 else rng.randint(2, 1000)
            lo = minkowski_lookup(n).log_d0
            small, large = (FieldParams(n, lo * 100 ** u) for u in sorted((rng.random(), rng.random())))
            start = threshold(small)
            curve = [eps(small, start * 1000 ** u) for u in sorted(rng.random() for _ in range(12))]
            assert all(b <= a * self.SLACK for a, b in zip(curve, curve[1:])), (n, small)
            log_x = threshold(large) * 1000 ** rng.random()
            assert eps(small, log_x) <= eps(large, log_x) * self.SLACK, (n, small, large, log_x)


class TestTables:
    def test_table1_shape_and_cells(self):
        t = generate_table(1)
        assert len(t.labels) == 20  # degrees 2..21
        assert len(t.columns) == 6
        assert all(d.ok for d in diff_table(t))

    def test_table2_all_pairs(self):
        t = generate_table(2)
        assert len(t.labels) == 20
        assert all(d.ok for d in diff_table(t))

    def test_table4_both_states(self):
        t = generate_table(4, "both")
        assert len(t.labels) == 20  # degrees 2..21
        bad = [d for d in diff_table(t) if not d.ok]
        assert not bad, bad[:5]

    def test_table4_single_state_column_subset(self):
        t = generate_table(4, "absent")
        assert len(t.columns) == 1 + 2 + 5
        assert all(d.ok for d in diff_table(t))

    def test_one_state_builds_one_record_per_row(self):
        # the row-level cells of tables 4-6 come from the requested state,
        # so one state never builds the other's records
        _finals_cached.cache_clear()
        for k in range(4, 9):
            generate_table(k, "absent")
        assert _finals_cached.cache_info().currsize == 20

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_unsplit_tables_ignore_the_selector_and_build_no_record(self, k):
        _finals_cached.cache_clear()
        tables = {repr(generate_table(k, beta0)) for beta0 in ("present", "absent", "both")}
        assert len(tables) == 1
        assert _finals_cached.cache_info().currsize == 0

    @pytest.mark.parametrize("k", range(4, 9))
    def test_one_state_is_its_columns_of_both(self, k):
        # every non-blank cell of a one-state table, keyed (row, column), is
        # the cell of the both-states table there, and nothing of both in
        # those columns is missing; only table 7's range rows hold blanks
        def cells(t):
            return {(label, col): (repr(c), p) for label, crow, prow
                    in zip(t.labels, t.computed, t.printed)
                    for col, c, p in zip(t.columns[1:], crow, prow) if (repr(c), p) != ("None", None)}

        both = generate_table(k, "both")
        for state in ("present", "absent"):
            one = generate_table(k, state)
            assert one.columns == tuple(c for c in both.columns if c in one.columns)
            assert len(one.columns) < len(both.columns)
            assert (one.title, one.rel_tol) == (both.title, both.rel_tol)
            assert cells(one) == {key: v for key, v in cells(both).items() if key[1] in one.columns}
            assert set(one.labels) == {label for label, _ in cells(one)}  # no blank row

    @pytest.mark.parametrize("beta0", ("present", "absent", "both"))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_rounding_is_nearest_for_the_inputs_alone(self, k, beta0):
        # one direction per column; the inputs the paper supplies (table 3's
        # d0 and M, table 4's delta0, table 7's b0) round to nearest in every
        # state block present, every computed column rounds up
        t = generate_table(k, beta0)
        assert len(t.rounding) == len(t.columns) - 1
        inputs = {3: ("d0", "M"), 4: ("delta0",), 7: ("b0",)}.get(k, ())
        states = ("present", "absent") if beta0 == "both" else (beta0,)
        want = [f"{c} [{state}]" for state in states for c in inputs] if k >= 4 else list(inputs)
        assert [c for c, d in zip(t.columns[1:], t.rounding) if d != "up"] == want
        assert set(t.rounding) <= {"up", "nearest"}

    def test_table3_is_exact_embedded_data(self):
        t = generate_table(3)
        assert len(t.labels) == 20
        assert all(d.ok for d in diff_table(t))

    def test_table7_range_rows(self):
        t = generate_table(7, "both")
        assert t.labels[:19] == tuple(str(n) for n in range(2, 21))
        assert set(t.labels[19:]) == {"21 to 654", "21 to 519", ">= 655", ">= 520"}
        assert all(d.ok for d in diff_table(t))

    def test_table8_all_rows(self):
        t = generate_table(8)
        assert len(t.labels) == 20
        assert all(d.ok for d in diff_table(t))

    def test_invalid_table_id(self):
        with pytest.raises(DomainError):
            generate_table(99)

    def test_invalid_beta0_selector(self):
        with pytest.raises(DomainError):
            generate_table(4, "maybe")


class TestCorollaries:
    def test_exp_form(self):
        got = corollary_constants()["exp"]
        assert got["threshold"] == 2915
        assert matches_printed(got["general"], "2.714E-1")
        assert matches_printed(got["refined"], "4.452E-1")
        assert got["decay"] == 0.285

    def test_log_form(self):
        got = corollary_constants()["log"]
        assert matches_printed(got["general"], "1.475")
        assert matches_printed(got["refined"], "2.419")

    def test_classical_form(self):
        got = corollary_constants()["classical"]
        assert matches_printed(got["general"], "1.952E-3")
        assert matches_printed(got["refined"], "3.674E-2")
        assert got["decay_general"] == 0.267
        assert got["decay_refined"] == 0.258

    def test_floor_dec_stays_at_or_below_its_argument(self):
        # an exponent coefficient is floored: a value just below a printed
        # boundary must not be rounded up onto it, and the double 0.3 is
        # itself below 3/10
        below = math.nextafter(0.3, 0)
        assert round_like(below, "0.000", "down") == "0.299"
        assert round_like(0.3, "0.000", "down") == "0.299"
        assert round_like(math.nextafter(0.3, 1), "0.000", "down") == "0.300"

    def test_absolute_form(self):
        got = corollary_constants()["absolute"]
        assert got["threshold"] == 729
        assert math.ceil(got["a0_general"]) == 175
        assert got["b0_general"] == 0.23
        assert got["b0_refined"] == 0.25
        # the wide-range coefficient reproduces the published 18458 to the
        # same tolerance as the underlying maximization table
        assert abs(got["a0_refined"] - 18458) / 18458 < 1e-2
