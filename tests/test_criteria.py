import math

import numpy as np
import pytest

from impulse_floquet import (CERTIFIED, INCONCLUSIVE, NOT_APPLICABLE, STABLE,
                             check_guseinov_kaymakcalan,
                             check_guseinov_zafer, check_guseinov_zafer_boundary,
                             check_krein, check_main, check_main_boundary, check_wang,
                             classify, condition_C_status, evaluate_all, monodromy,
                             time_shift)
from impulse_floquet.criteria import (LBL_EXP_PRODUCT, LBL_MEAN_POS, LBL_B_POS,
                                      LBL_ROOT_SUM_PLAIN, SATISFIED, VIOLATED,
                                      any_certified)
from impulse_floquet.harness import GeneratorSpec, generate

from helpers import const, make_system, poly, rotation_system, stand_in

INV_PI = 0.3183098861837907


def cos_system():
    return make_system(0.0, 1.0, stand_in(lambda t: np.cos(2 * np.pi * t)))


class TestKrein:
    def test_rotation_certified(self):
        rep = check_krein(rotation_system(1.0))
        assert rep.conclusion == CERTIFIED
        assert rep.condition(LBL_ROOT_SUM_PLAIN).margin == pytest.approx(1.0, abs=1e-10)

    def test_long_period_inconclusive(self):
        rep = check_krein(rotation_system(3.0))
        assert rep.conclusion == INCONCLUSIVE
        assert rep.condition(LBL_ROOT_SUM_PLAIN).status == VIOLATED

    def test_impulse_structural_precondition(self):
        rep = check_krein(make_system(0.0, 1.0, 1.0, impulses=[(0.5, 2.0, 0.0)]))
        assert rep.conclusion == NOT_APPLICABLE

    def test_trivial_impulses_allowed(self):
        rep = check_krein(make_system(0.0, 1.0, 1.0, impulses=[(0.5, 1.0, 0.0)]))
        assert rep.conclusion == CERTIFIED


class TestGuseinovKaymakcalan:
    def test_rotation_certified(self):
        assert check_guseinov_kaymakcalan(rotation_system(1.0)).conclusion == CERTIFIED

    def test_identically_zero_product(self):
        rep = check_guseinov_kaymakcalan(make_system(0.0, 1.0, 0.0))
        assert rep.conclusion == INCONCLUSIVE
        assert rep.condition("b*c - a^2 not identically 0").status == VIOLATED

    def test_boundary_zero_of_b_violates(self):
        rep = check_guseinov_kaymakcalan(make_system(0.0, poly([0.0, 1.0]), 1.0))
        assert rep.condition(LBL_B_POS).status == VIOLATED


class TestGuseinovZafer:
    def test_negative_alpha_certified(self):
        rep = check_guseinov_zafer(
            make_system(0.0, 1.0, 1.0, impulses=[(0.5, -1.0, 0.5)]))
        assert rep.conclusion == CERTIFIED
        assert rep.condition(LBL_MEAN_POS).margin == pytest.approx(0.5, abs=1e-10)

    def test_positive_ratio_still_certified(self):
        rep = check_guseinov_zafer(
            make_system(0.0, 1.0, 1.0, impulses=[(0.5, -1.0, -2.0)]))
        assert rep.conclusion == CERTIFIED
        root_sum = rep.conditions[-1]
        assert root_sum.margin == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-10)

    def test_alpha_product_violated(self):
        rep = check_guseinov_zafer(
            make_system(0.0, 1.0, 1.0, impulses=[(0.5, 2.0, 0.0)]))
        assert rep.conclusion == INCONCLUSIVE
        assert rep.condition("prod(alpha_i^2) = 1").status == VIOLATED


class TestGuseinovZaferBoundary:
    def test_all_zero_expression_inconclusive(self):
        rep = check_guseinov_zafer_boundary(
            make_system(0.0, 1.0, 0.0, impulses=[(0.5, 1.0, 0.0)]))
        assert rep.conclusion == INCONCLUSIVE
        assert rep.condition("condition C (C1/C2/C3)").status == VIOLATED

    def test_cosine_certified(self):
        rep = check_guseinov_zafer_boundary(cos_system())
        assert rep.conclusion == CERTIFIED
        root_sum = rep.condition(
            "int|a| + sqrt(int(b)) * sqrt(int(c+) + sum((beta/alpha)+)) < 2")
        assert root_sum.margin == pytest.approx(2.0 - math.sqrt(INV_PI), abs=1e-9)

    def test_nonzero_beta_reports_c1(self):
        # equality arranged: int(c) = -1, beta/alpha = 1
        rep = check_guseinov_zafer_boundary(
            make_system(0.0, 1.0, -1.0, impulses=[(0.5, 1.0, 1.0)]))
        cond = rep.condition("condition C (C1/C2/C3)")
        assert cond.status == SATISFIED and "C1" in cond.note
        assert rep.condition("int(c - a^2/b) + sum(beta/alpha) = 0").status == SATISFIED


class TestWang:
    def test_large_a_inconclusive(self):
        rep = check_wang(make_system(1.0, 1.0, 2.0))
        assert rep.conclusion == INCONCLUSIVE
        cond = rep.condition("int(b) * int(c+) < 4*exp(-2*int|a|)")
        assert cond.margin == pytest.approx(4.0 * math.exp(-2.0) - 2.0, abs=1e-9)

    def test_rotation_certified(self):
        assert check_wang(rotation_system(1.0)).conclusion == CERTIFIED

    def test_negative_mean_violated(self):
        rep = check_wang(make_system(0.0, 1.0, -1.0))
        assert rep.condition(LBL_MEAN_POS).status == VIOLATED

    def test_impulses_not_applicable(self):
        rep = check_wang(make_system(0.0, 1.0, 1.0, impulses=[(0.5, -1.0, 0.0)]))
        assert rep.conclusion == NOT_APPLICABLE


class TestMain:
    def test_negative_alpha_certified(self):
        rep = check_main(make_system(0.0, 1.0, 1.0, impulses=[(0.5, -1.0, 0.5)]))
        assert rep.conclusion == CERTIFIED
        assert rep.condition(LBL_EXP_PRODUCT).margin == pytest.approx(3.0, abs=1e-10)

    def test_exponential_weight_blocks(self):
        rep = check_main(make_system(1.0, 1.0, 1.5))
        assert rep.conclusion == INCONCLUSIVE
        expect = 4.0 - math.exp(2.0) * 1.5
        assert rep.condition(LBL_EXP_PRODUCT).margin == pytest.approx(expect, abs=1e-8)

    def test_alpha_product_violated(self):
        rep = check_main(make_system(0.0, 1.0, 1.0, impulses=[(0.5, 2.0, 0.0)]))
        assert rep.condition("prod(alpha_i^2) = 1").status == VIOLATED


class TestMainBoundary:
    def test_cosine_certified(self):
        rep = check_main_boundary(cos_system())
        assert rep.conclusion == CERTIFIED
        assert rep.condition(LBL_EXP_PRODUCT).margin == pytest.approx(
            4.0 - INV_PI, abs=1e-9)
        cond = rep.condition("condition C (C1/C2/C3)")
        assert "C3" in cond.note

    def test_zero_system_inconclusive(self):
        rep = check_main_boundary(make_system(0.0, 1.0, 0.0,
                                              impulses=[(0.5, 1.0, 0.0)]))
        assert rep.conclusion == INCONCLUSIVE

    def test_discontinuous_ratio_not_applicable(self):
        a = poly(None, breaks=(0.5,), per_segment=[[0.0], [1.0]])
        rep = check_main_boundary(make_system(a, 1.0, 1.0))
        assert rep.conclusion == NOT_APPLICABLE
        assert rep.condition("a/b continuous on [0, T]").status == VIOLATED


class TestConditionC:
    def test_c1_by_inspection(self):
        st = condition_C_status(make_system(0.0, 1.0, 1.0,
                                            impulses=[(0.3, 1.0, 0.0), (0.6, 1.0, 0.3)]))
        assert st.branch == "C1" and st.nonzero_beta_index == 2

    def test_c3_constant_expression(self):
        st = condition_C_status(make_system(0.0, 1.0, 1.0))
        assert st.branch == "C3"
        assert st.max_expression == pytest.approx(1.0, abs=1e-12)

    def test_c2_ratio_kink(self):
        # a/b has a derivative jump at a non-impulse breakpoint
        a = poly(None, breaks=(0.5,), per_segment=[[0.0, 1.0], [1.0, -1.0]])
        st = condition_C_status(make_system(a, 1.0, 1.0))
        assert st.branch == "C2"

    def test_kink_at_impulse_time_is_allowed(self):
        a = poly(None, breaks=(0.5,), per_segment=[[0.0, 1.0], [1.0, -1.0]])
        st = condition_C_status(make_system(a, 1.0, 1.0,
                                            impulses=[(0.5, 1.0, 0.0)]))
        assert st.branch == "C3"


class TestEvaluateAll:
    def test_rotation_family(self):
        reports = {r.criterion: r.conclusion for r in evaluate_all(rotation_system(1.0))}
        for name in ("krein", "guseinov-kaymakcalan", "guseinov-zafer", "wang", "main"):
            assert reports[name] == CERTIFIED
        assert reports["guseinov-zafer-boundary"] == INCONCLUSIVE
        assert reports["main-boundary"] == INCONCLUSIVE

    def test_zero_system_nothing_certifies(self):
        reports = evaluate_all(make_system(0.0, 0.0, 0.0))
        assert not any_certified(reports)

    def test_impulse_only_system_nothing_certifies(self):
        reports = evaluate_all(make_system(0.0, 0.0, 0.0,
                                           impulses=[(0.5, -1.0, 0.2)]))
        assert not any_certified(reports)

    def test_order_is_fixed(self):
        names = [r.criterion for r in evaluate_all(rotation_system(1.0))]
        assert names == ["krein", "guseinov-kaymakcalan", "guseinov-zafer",
                         "guseinov-zafer-boundary", "wang", "main", "main-boundary"]


class TestInvariants:
    def test_nesting_zero_a(self):
        # with a identically zero, the root-sum and the product tests agree
        agreements = 0
        for seed in range(12):
            sys_ = generate(GeneratorSpec(seed=seed, mode="positive-b", a_amplitude=0.0))
            gz = check_guseinov_zafer(sys_)
            mn = check_main(sys_)
            gz_m = gz.conditions[-1].margin
            mn_m = mn.condition(LBL_EXP_PRODUCT).margin
            if gz_m is not None and mn_m is not None and \
               min(abs(gz_m), abs(mn_m)) > 1e-6:
                assert (gz.conclusion == CERTIFIED) == (mn.conclusion == CERTIFIED)
                agreements += 1
        assert agreements > 4

    def test_time_translation_invariance(self):
        sys_ = generate(GeneratorSpec(seed=5, mode="force-main"))
        rep = check_main(sys_)
        for delta in (0.21, 0.5, 0.83):
            shifted = time_shift(sys_, delta)
            rep2 = check_main(shifted)
            assert rep2.conclusion == rep.conclusion
            m1 = rep.condition(LBL_EXP_PRODUCT).margin
            m2 = rep2.condition(LBL_EXP_PRODUCT).margin
            assert m2 == pytest.approx(m1, abs=1e-7)

    def test_margin_first_order_in_c(self):
        # uniform +eps on a positive c moves the product margin by
        # -exp(2*int|a|)*int(b)*eps*T to first order
        sys_ = make_system(0.3, 1.2, 0.8)
        eps = 1e-4
        bumped = make_system(0.3, 1.2, const(0.8).plus_constant(eps))
        m0 = check_main(sys_).condition(LBL_EXP_PRODUCT).margin
        m1 = check_main(bumped).condition(LBL_EXP_PRODUCT).margin
        expect = -math.exp(2.0 * 0.3) * 1.2 * eps
        assert m1 - m0 == pytest.approx(expect, rel=1e-6)

    def test_certified_implies_stable_small_sweep(self):
        for seed in range(15):
            sys_ = generate(GeneratorSpec(seed=300 + seed, mode="force-main"))
            reports = evaluate_all(sys_)
            if any_certified(reports):
                assert classify(monodromy(sys_)).category == STABLE
