import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import (DEFAULT_TOLERANCES, DensePath, EvaluationError, ImpulsiveSystem,
                             IntegrationFailureError, PiecewiseFunction, RescaledSolution,
                             State, cli, disconjugacy_oracle, disconjugacy_test, find_zero_pair,
                             lyapunov, lyapunov_lhs, lyapunov_verify, piecewise)
from impulse_floquet.descriptors import system_from_descriptor, system_to_descriptor
from impulse_floquet.harness import UNCONSTRAINED, GeneratorSpec, generate
from impulse_floquet.lyapunov import (DISCONJUGATE, DISCONJUGATE_CERTIFIED,
                                      INCONCLUSIVE, NOT_DISCONJUGATE, ROOT_TOL)
from impulse_floquet.piecewise import PolySegment, split_period
from perfbench.inputs import windows_population

from helpers import make_system, poly, rotation_system
from test_propagation import dense_read_times, two_lookup_reference

PI_SQ = math.pi ** 2


def _sign_changing_systems(seeds):
    """The `unconstrained` amplitude-2 systems of these seeds whose b changes sign."""
    for seed in seeds:
        sys_ = generate(GeneratorSpec(seed=seed, mode=UNCONSTRAINED, amplitude=2.0))
        bs = sys_.coeff_b.eval_array(np.linspace(0.0, sys_.period, 257))
        if bs.min() < 0.0 < bs.max():
            yield sys_


def sine_system(freq_sq=PI_SQ, T=1.0):
    return make_system(0.0, 1.0, freq_sq, T=T)


class TestRescale:
    @pytest.mark.parametrize("seed, start", [(4, 0.3), (12, 0.0)])
    def test_zv_matches_the_two_lookup_reference_bit_for_bit(self, seed, start):
        sys_ = generate(GeneratorSpec(seed=seed))
        T = sys_.period
        sol = RescaledSolution(DensePath(sys_, start * T, 2.6 * T), (0.4, -1.1))
        for t in dense_read_times(sys_, start * T, 2.6 * T):
            for side in (None, "left", "right"):
                M, p = two_lookup_reference(sol.path, float(t), side)
                y = M @ sol.y0
                assert repr(sol.zv(float(t), side)) == repr((float(y[0] / p), float(y[1] / p)))

    def test_no_impulses_identity(self):
        sys_ = rotation_system(1.0)
        path = DensePath(sys_, 0.0, 1.0)
        sol = RescaledSolution(path, (0.0, 1.0))
        for t in (0.2, 0.5, 0.9):
            z, v = sol.zv(t)
            assert z == pytest.approx(math.sin(t), abs=1e-9)
            assert v == pytest.approx(math.cos(t), abs=1e-9)

    def test_continuity_across_positive_jump(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.5, 2.0, 0.0)])
        sol = RescaledSolution(DensePath(sys_, 0.0, 1.0), (1.0, 0.0))
        zl = sol.z(0.5, "left")
        zr = sol.z(0.5, "right")
        assert zr == pytest.approx(zl, abs=1e-10)

    def test_two_negative_jumps_restore_scale(self):
        sys_ = make_system(0.0, 0.0, 0.0,
                           impulses=[(0.3, -1.0, 0.0), (0.7, -1.0, 0.0)])
        sol = RescaledSolution(DensePath(sys_, 0.0, 1.0), (1.0, 0.0))
        assert sol.z(0.9) == pytest.approx(1.0, abs=1e-12)
        assert sol.path.alpha_product(0.9) == 1.0

    def test_v_jump_rule(self):
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, 2.0, 1.0)])
        sol = RescaledSolution(DensePath(sys_, 0.0, 1.0), (1.0, 0.0))
        vl = sol.v(0.5, "left")
        vr = sol.v(0.5, "right")
        zl = sol.z(0.5, "left")
        assert vr - vl == pytest.approx(-(1.0 / 2.0) * zl, abs=1e-12)

    def test_continuity_random_impulsive(self):
        for seed in range(6):
            sys_ = generate(GeneratorSpec(seed=40 + seed, mode="positive-b",
                                          impulse_range=(1, 3)))
            sol = RescaledSolution(DensePath(sys_, 0.0, 1.0), (0.7, -0.4))
            ts = np.linspace(0.0, 1.0, 65)
            scale = float(np.max(np.abs(sol.z_samples(ts)))) or 1.0
            for imp in sys_.schedule.impulses:
                zl = sol.z(imp.tau, "left")
                zr = sol.z(imp.tau, "right")
                assert abs(zr - zl) <= 1e-10 * scale


class TestFindZeroPair:
    def test_sine_pair(self):
        pair = find_zero_pair(sine_system(), State(0.0, 0.0, 1.0), (0.0, 1.5))
        assert pair.t1 == pytest.approx(0.0, abs=1e-10)
        assert pair.t2 == pytest.approx(1.0, abs=1e-10)

    def test_constant_solution_none(self):
        sys_ = make_system(0.0, 1.0, 0.0)
        assert find_zero_pair(sys_, State(0.0, 1.0, 0.0), (0.0, 1.0)) is None

    def test_slow_rotation_multi_period(self):
        pair = find_zero_pair(rotation_system(1.0), State(0.0, 0.0, 1.0), (0.0, 4.0))
        assert pair.t1 == pytest.approx(0.0, abs=1e-10)
        assert pair.t2 == pytest.approx(math.pi, abs=1e-9)

    def test_window_after_the_start_counts_its_own_zeros(self):
        # sin(pi t) from (0, 1) at 0 vanishes at 0, 1 and 2; the window starts at 0.5
        pair = find_zero_pair(sine_system(), State(0.0, 0.0, 1.0), (0.5, 2.5))
        assert pair.t1 == pytest.approx(1.0, abs=1e-10)
        assert pair.t2 == pytest.approx(2.0, abs=1e-10)

    def test_sign_flip_without_zero_not_counted(self):
        # alpha < 0 flips x across the impulse; z has no zero there
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, -1.0, 0.0)])
        assert find_zero_pair(sys_, State(0.0, 1.0, 0.0), (0.0, 1.0)) is None

    def test_trivial_initial_state(self):
        assert find_zero_pair(rotation_system(1.0), State(0.0, 0.0, 0.0),
                              (0.0, 1.0)) is None

    @pytest.mark.parametrize("W", [1.0, 3.0, 6.0, 12.0, 20.0])
    def test_early_zeros_of_a_growing_solution_are_found(self, W):
        # x'' = -400 x, then x'' = 60 x: x grows by about 11.7 a period. A band of
        # 1e-9 max|z| over the window merged the first zeros, giving t2 = 4.097 at W = 12
        pair = find_zero_pair(_growing_system(), State(0.0, 0.0, 1.0), (0.0, W))
        assert pair.t1 == 0.0 and abs(pair.t2 - math.pi / 20.0) <= ROOT_TOL

    @pytest.mark.parametrize("lam", [1e-8, 1e8])
    def test_pair_is_free_of_the_scale_of_x(self, lam):
        # x -> lam x takes b to b / lam and c to lam c; the zeros stay. From (0.6, 0.8),
        # x = 0.6 cos 20t + 0.04 sin 20t vanishes first where tan 20t = -15, not at 0
        for x0, u0 in ((0.0, 1.0), (0.6, 0.8)):
            pair = find_zero_pair(_growing_system(), State(0.0, x0, u0), (0.0, 20.0))
            scaled = find_zero_pair(_growing_system(lam), State(0.0, x0 / lam, u0), (0.0, 20.0))
            assert abs(scaled.t1 - pair.t1) <= ROOT_TOL and abs(scaled.t2 - pair.t2) <= ROOT_TOL
        assert abs(pair.t1 - (math.pi - math.atan(15.0)) / 20.0) <= ROOT_TOL

    def test_a_state_off_zero_never_starts_a_pair(self):
        # x(t1) != 0: t1 is no zero, whatever the band reads there
        for seed in range(8):
            sys_ = generate(GeneratorSpec(seed=seed, mode="positive-b", amplitude=5.0))
            for theta in np.linspace(-1.4, 1.4, 7):
                pair = find_zero_pair(sys_, State(0.0, math.cos(theta), math.sin(theta)),
                                      (0.0, 4.0 * sys_.period))
                assert pair is None or pair.t1 > 0.0


class TestLyapunovLhs:
    def test_sine_closed_form(self):
        val = lyapunov_lhs(sine_system(), 0.0, 1.0, 0.5)
        assert val == pytest.approx(PI_SQ, abs=1e-9)

    def test_nonpositive_c_gives_zero(self):
        sys_ = make_system(0.0, 1.0, -2.0, impulses=[(0.5, -1.0, 0.5)])
        assert lyapunov_lhs(sys_, 0.0, 1.0, 0.5) == 0.0

    def test_impulse_ratio_counts(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.5, 1.0, 1.0)])
        assert lyapunov_lhs(sys_, 0.0, 1.0, 0.25) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("a0, t1, t2, t0", [(0.5, 0.0, 1.0, 0.3), (-5.0, 0.3, 3.3, 1.8)],
                             ids=["a0=0.5", "a0=-5"])
    def test_constant_a_closed_form(self, a0, t1, t2, t0, caplog):
        # b = 1, c = 1: the first factor integrates exp(-2*a*(t-t0)), the second is t2 - t1.
        # At a = -5 the weight exp(-2A) runs from e^3 to e^33 over the three periods:
        # the quadrature tolerance must follow it, with no split budget hit.
        sys_ = make_system(a0, 1.0, 1.0)
        weighted = (math.exp(-2 * a0 * (t1 - t0)) - math.exp(-2 * a0 * (t2 - t0))) / (2 * a0)
        with caplog.at_level(logging.WARNING, logger="impulse_floquet"):
            val = lyapunov_lhs(sys_, t1, t2, t0)
            disconjugacy_test(sys_, t1, t2)
        assert val == pytest.approx(weighted * (t2 - t1), rel=1e-9, abs=1e-9)
        assert not [r for r in caplog.records if r.name.startswith("impulse_floquet")]

    def test_window_beyond_one_period(self):
        # b-integral over two periods is 2, positive mass is 2*pi^2
        val = lyapunov_lhs(sine_system(), 0.5, 2.5, 1.0)
        assert val == pytest.approx(4.0 * PI_SQ, rel=1e-9)

    def test_t0_must_be_interior(self):
        with pytest.raises(ValueError):
            lyapunov_lhs(sine_system(), 0.0, 1.0, 1.5)


class TestLyapunovVerify:
    def test_sine_witness(self):
        sys_ = sine_system()
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 1.5))
        w = lyapunov_verify(sys_, pair)
        assert w.t0 == pytest.approx(0.5, abs=1e-3)
        assert w.lhs == pytest.approx(PI_SQ, abs=1e-6)
        assert w.holds

    def test_double_frequency(self):
        sys_ = sine_system(4.0 * PI_SQ)
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 0.8))
        assert pair.t2 == pytest.approx(0.5, abs=1e-9)
        w = lyapunov_verify(sys_, pair)
        assert w.lhs == pytest.approx(PI_SQ, abs=1e-6)

    def test_half_frequency_long_pair(self):
        sys_ = sine_system((math.pi / 2.0) ** 2, T=1.0)
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 2.5))
        assert pair.t2 == pytest.approx(2.0, abs=1e-8)
        w = lyapunov_verify(sys_, pair)
        assert w.lhs == pytest.approx(2.0 * PI_SQ / 2.0, abs=1e-6)

    def test_reconstruction_without_solution_handle(self):
        sys_ = sine_system()
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 1.5))
        stripped = type(pair)(pair.t1, pair.t2, pair.t1_at_impulse, pair.t2_at_impulse)
        w = lyapunov_verify(sys_, stripped)
        assert w.lhs == pytest.approx(PI_SQ, abs=1e-6)

    def test_degenerate_pair_rejected(self):
        sys_ = sine_system()
        bad = type(find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 1.5)))(0.0, 1e-12)
        with pytest.raises(ValueError):
            lyapunov_verify(sys_, bad)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(3.0, 10.0, exclude_min=True, exclude_max=True))
    def test_sharp_constant_probe(self, beta):
        # x' = u with one kick u+ = u - beta x at 0.5: from (0, 1), x = t up to
        # the kick, then 0.5 + (1 - beta/2)(t - 0.5), whose zero is 0.5 + 1/s
        # for s = beta - 2; the product is (0.5 + 1/s) * beta = 2 + s/2 + 2/s,
        # exactly 4 at beta = 4
        s = beta - 2.0
        sys_ = make_system(0.0, 1.0, 0.0, impulses=[(0.5, 1.0, beta)])
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 1.5))
        assert pair.t1 == 0.0
        assert abs(pair.t2 - (0.5 + 1.0 / s)) <= 1e-9
        assert abs(lyapunov_verify(sys_, pair).lhs - (2.0 + s / 2.0 + 2.0 / s)) <= 1e-9

    def test_lhs_sup_at_least_witness(self):
        sys_ = generate(GeneratorSpec(seed=77, mode="positive-b", amplitude=1.5))
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 4.0))
        if pair is not None:
            w = lyapunov_verify(sys_, pair)
            assert w.lhs_sup >= w.lhs - 1e-9


class TestDisconjugacy:
    def test_unit_box_certified(self):
        sys_ = rotation_system(1.0)
        chk = disconjugacy_test(sys_, 0.0, 1.0)
        assert chk.status == DISCONJUGATE_CERTIFIED
        assert chk.sup_value == pytest.approx(1.0, abs=1e-9)
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == DISCONJUGATE

    def test_sine_inconclusive_and_not_disconjugate(self):
        sys_ = sine_system()
        chk = disconjugacy_test(sys_, 0.0, 1.01)
        assert chk.status == INCONCLUSIVE
        assert disconjugacy_oracle(sys_, 0.0, 1.01) == NOT_DISCONJUGATE

    def test_sup_at_the_window_end_is_not_certified(self):
        # a = b = 1 on [0, 1]: A(t) = t peaks at t2, where the product reaches 4.01; the
        # best of 256 interior samples refined by golden section read 3.97891 at 0.99611
        # and certified the window
        c = 4.01 / ((math.e ** 2 - 1.0) / 2.0)
        chk = disconjugacy_test(make_system(1.0, 1.0, c), 0.0, 1.0)
        assert chk.status == INCONCLUSIVE
        assert chk.sup_value == pytest.approx(4.01, abs=1e-12)
        assert chk.t0_at_sup == 1.0

    def test_sup_at_a_root_of_a_is_the_product_there(self):
        # a = 0.6 - t: A peaks at the roots of a, highest in the second period (A(T) > 0)
        sys_ = make_system(poly([0.6, -1.0]), 1.0, 1.0)
        chk = disconjugacy_test(sys_, 0.2, 1.9)
        assert chk.t0_at_sup == pytest.approx(1.6, abs=1e-15)
        assert chk.sup_value == lyapunov_lhs(sys_, 0.2, 1.9, chk.t0_at_sup)
        assert all(lyapunov_lhs(sys_, 0.2, 1.9, t) <= chk.sup_value
                   for t in np.linspace(0.2, 1.9, 1001)[1:-1])

    def test_sup_over_a_callable_a_is_refined_from_samples(self):
        # A peaks at 0.25, where a = 0.3 cos(2 pi t) turns negative, between two samples
        a = PiecewiseFunction.from_callable(lambda t: 0.3 * np.cos(2.0 * math.pi * t), 1.0)
        sys_ = make_system(a, 1.0, 1.0)
        chk = disconjugacy_test(sys_, 0.1, 0.9)
        assert chk.t0_at_sup == pytest.approx(0.25, abs=1e-7)
        assert chk.sup_value == lyapunov_lhs(sys_, 0.1, 0.9, chk.t0_at_sup)

    @pytest.mark.parametrize("t1", [0.0, 0.5, 1.1])
    def test_zero_at_the_window_end_not_disconjugate(self, t1):
        # x'' = -pi^2 x: the focal solution vanishes again exactly at t2 = t1 + 1, where
        # its rescaled z is rounding noise; the band |w^2 z| <= 1e-9 |(w^2 z, v)| of the
        # Pruefer angle reads it as a zero
        sys_ = sine_system(T=2.0)
        assert disconjugacy_oracle(sys_, t1, t1 + 1.0) == NOT_DISCONJUGATE
        assert disconjugacy_oracle(sys_, t1, t1 + 0.999) == DISCONJUGATE

    @pytest.mark.parametrize("b", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("t2, verdict", [(3.1411, DISCONJUGATE), (10.0, NOT_DISCONJUGATE)])
    def test_zero_band_is_read_in_pruefer_units(self, b, t2, verdict):
        # c = 1 / b: the focal solution is x = b sin t, u = cos t, zero at k pi for every b.
        # A band of 1e-9 |(z, v)| once read b = 1e-6 at t2 = 3.1411 as a second zero site,
        # and for b = 1e-12 made all of [0, 10] one run that held pi, 2 pi and 3 pi
        assert disconjugacy_oracle(make_system(0.0, b, 1.0 / b), 0.0, t2) == verdict

    @pytest.mark.parametrize("lam", [1e-8, 1e8])
    def test_verdict_is_free_of_the_scale_of_x(self, lam):
        # x -> lam x takes b to b / lam, and c and each beta to lam c and lam beta; the
        # zeros stay. A band of 1e-9 |(z, v)| answered not-disconjugate here at lam = 1e8
        doc = system_to_descriptor(generate(GeneratorSpec(seed=1, mode="positive-b",
                                                          amplitude=8.0)))
        assert disconjugacy_oracle(system_from_descriptor(doc), 0.1, 2.8) == DISCONJUGATE
        for key, factor in (("b", 1.0 / lam), ("c", lam)):
            for seg in doc["coefficients"][key]:
                seg["poly"] = [v * factor for v in seg["poly"]]
        for imp in doc["impulses"]:
            imp["beta"] *= lam
        assert disconjugacy_oracle(system_from_descriptor(doc), 0.1, 2.8) == DISCONJUGATE

    def test_window_inside_the_knot_tolerance_disconjugate(self, capsys):
        # [0.3, 0.3 + 1e-14] holds no period chunk of the zero scan, whose maxima of b and
        # c were then empty: the oracle raised ValueError and the CLI printed a traceback
        doc = {"period": 1.0,
               "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                "b": [{"end": 1.0, "poly": [1.0]}],
                                "c": [{"end": 1.0, "poly": [1.0]}]},
               "impulses": []}
        t2 = 0.3 + 1e-14
        assert find_zero_pair(system_from_descriptor(doc), State(0.3, 0.0, 1.0), (0.3, t2)) is None
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0.3", "--t2", repr(t2)])
        captured = capsys.readouterr()
        assert rc == 0 and "Traceback" not in captured.err
        assert json.loads(captured.out)["oracle"] == DISCONJUGATE

    def test_sine_half_window_certified(self):
        sys_ = sine_system()
        chk = disconjugacy_test(sys_, 0.0, 0.5)
        assert chk.status == DISCONJUGATE_CERTIFIED
        assert chk.sup_value == pytest.approx(PI_SQ / 4.0, abs=1e-9)
        assert disconjugacy_oracle(sys_, 0.0, 0.5) == DISCONJUGATE

    def test_nonpositive_mass_certified(self):
        sys_ = make_system(0.0, 1.0, -1.0, impulses=[(0.5, -1.0, 0.5)])
        chk = disconjugacy_test(sys_, 0.0, 1.0)
        assert chk.status == DISCONJUGATE_CERTIFIED and chk.sup_value == 0.0
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == DISCONJUGATE

    def test_affine_solutions_disconjugate(self):
        sys_ = make_system(0.0, 1.0, 0.0)
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == DISCONJUGATE

    def test_monotone_in_window(self):
        sys_ = generate(GeneratorSpec(seed=9, mode="positive-b"))
        sups = [disconjugacy_test(sys_, 0.2, 0.2 + w).sup_value
                for w in (0.3, 0.6, 0.9, 1.2)]
        assert all(b >= a - 1e-9 for a, b in zip(sups, sups[1:]))

    @pytest.mark.parametrize("delta, status, verdict", [
        (-1e-6, DISCONJUGATE_CERTIFIED, DISCONJUGATE),
        (1e-6, INCONCLUSIVE, NOT_DISCONJUGATE),
    ])
    def test_sharp_constant_probes(self, delta, status, verdict):
        # the kick probe of TestLyapunovVerify: with b = 1 the product on [0, 1]
        # is beta, and the focal solution's second zero 0.5 + 1/(beta - 2)
        # reaches t = 1 at beta = 4
        sys_ = make_system(0.0, 1.0, 0.0, impulses=[(0.5, 1.0, 4.0 + delta)])
        assert disconjugacy_test(sys_, 0.0, 1.0).status == status
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == verdict

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(2.0, 10.0, exclude_min=True, exclude_max=True)
           .filter(lambda beta: abs(beta - 4.0) >= 1e-3))
    def test_sharp_constant_oracle(self, beta):
        sys_ = make_system(0.0, 1.0, 0.0, impulses=[(0.5, 1.0, beta)])
        t2 = 0.5 + 1.0 / (beta - 2.0)
        expect = NOT_DISCONJUGATE if t2 <= 1.0 else DISCONJUGATE
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == expect

    def test_certificate_sound_against_oracle(self):
        rng = np.random.default_rng(2)
        windows = []
        for i in range(12):
            sys_ = generate(GeneratorSpec(seed=500 + i, mode="positive-b",
                                          amplitude=1.5))
            t1 = float(rng.uniform(0.0, 1.0))
            windows.append((sys_, t1, t1 + float(rng.uniform(0.2, 1.6))))
        # b changes sign over the period: the bound's hypothesis b >= 0 may fail
        for sys_ in _sign_changing_systems(range(600, 640)):
            t1 = float(rng.uniform(0.0, 1.0))
            windows.append((sys_, t1, t1 + float(rng.uniform(0.1, 2.5))))
        for sys_, t1, t2 in windows:
            chk = disconjugacy_test(sys_, t1, t2)
            if chk.status == DISCONJUGATE_CERTIFIED:
                assert disconjugacy_oracle(sys_, t1, t2) == DISCONJUGATE, (t1, t2)

    def test_seed_626_sign_changing_b_not_certified(self, capsys):
        # b runs from -1.99 to 1.44 on the window, whose product sup is 0, and the
        # solution from (0.166, 0.986) at t1 vanishes at about 0.5987 and 0.6071
        doc = system_to_descriptor(generate(GeneratorSpec(seed=626, mode=UNCONSTRAINED,
                                                          amplitude=2.0)))
        sys_ = system_from_descriptor(doc)
        t1 = 0.5120153820260779
        t2 = t1 + 0.1
        assert find_zero_pair(sys_, State(t1, 0.166, 0.986), (t1, t2)) is not None
        chk = disconjugacy_test(sys_, t1, t2)
        assert (chk.status, chk.sup_value) == (INCONCLUSIVE, 0.0)
        assert disconjugacy_oracle(sys_, t1, t2) == NOT_DISCONJUGATE
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc),
                       "--t1", repr(t1), "--t2", repr(t2)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["test"]["status"] == INCONCLUSIVE
        assert out["oracle"] == NOT_DISCONJUGATE and out["disagreement"] is False

    def test_narrow_dip_of_b_not_disconjugate(self, capsys):
        # b = (t - 0.5)^2 - 1e-6 is negative on (0.499, 0.501) only; there the row's
        # angle turns back by 1.3e-9 rad over about 5 grid steps, and the solution that
        # vanishes between the turns changes sign at 0.49827, 0.5 and 0.50173
        doc = {"period": 1.0,
               "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                "b": [{"end": 1.0, "poly": [0.25 - 1e-6, -1.0, 1.0]}],
                                "c": [{"end": 1.0, "poly": [1.0]}]},
               "impulses": []}
        sys_ = system_from_descriptor(doc)
        assert disconjugacy_test(sys_, 0.3, 0.7).status == INCONCLUSIVE
        assert disconjugacy_oracle(sys_, 0.3, 0.7) == NOT_DISCONJUGATE
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0.3", "--t2", "0.7"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["test"]["status"] == INCONCLUSIVE
        assert out["oracle"] == NOT_DISCONJUGATE and out["disagreement"] is False

    @pytest.mark.parametrize("bc, t2", [(5630.0, 1.0), (40.0, 140.0)])
    def test_folded_grid_steps_not_disconjugate(self, bc, t2, capsys):
        # b = c: row(t) turns at the rate b, so zeros are pi / b apart. On an even grid
        # of 1,024 steps each step would turn row(t) by about 7pi/4, which arctan2 reads
        # as about -pi/4; the step grid turns it by at most pi/2 a step (3,585 steps at 5630)
        doc = {"period": 1.0,
               "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                "b": [{"end": 1.0, "poly": [bc]}],
                                "c": [{"end": 1.0, "poly": [bc]}]},
               "impulses": []}
        sys_ = system_from_descriptor(doc)
        assert _checked_oracle(sys_, 0.0, t2) == NOT_DISCONJUGATE
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0", "--t2", str(t2)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["test"]["status"] == INCONCLUSIVE
        assert out["oracle"] == NOT_DISCONJUGATE and out["disagreement"] is False

    def test_narrow_dip_of_a_callable_b_not_disconjugate(self):
        # b < 0 only on (0.3042, 0.3058), between the sampled minimum's Chebyshev nodes
        # (its golden-section search refines the sine's minimum at 0.75); the oracle
        # also reads a callable b at its grid times, and 312/1024 lies in the dip
        b = PiecewiseFunction.from_callable(
            lambda t: 1.0 + 0.5 * np.sin(2.0 * math.pi * t)
            - 3.0 * np.exp(-(((t - 0.305) / 1e-3) ** 2)), 1.0)
        sys_ = make_system(0.0, b, 1.0)
        assert _checked_oracle(sys_, 0.0, 1.0) == NOT_DISCONJUGATE

    def test_non_finite_b_sample_raises_before_any_dense_path(self, monkeypatch):
        # b is NaN on (0.49, 0.51): its sampled minimum and the oracle's grid read the
        # NaN, which once passed the sign check as b >= 0
        b = PiecewiseFunction.from_callable(
            lambda t: np.where(np.abs(np.asarray(t) - 0.5) < 0.01, np.nan, 0.0), 1.0)
        sys_ = make_system(0.0, b, 1.0)
        with pytest.raises(EvaluationError):
            disconjugacy_test(sys_, 0.0, 1.0)
        builds = []
        real_init = DensePath.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DensePath, "__init__", counting)
        with pytest.raises(EvaluationError) as info:
            disconjugacy_oracle(sys_, 0.0, 1.0)
        assert 0.49 < info.value.t < 0.51
        assert builds == []

    def test_non_finite_angle_reading_raises(self, monkeypatch):
        # c is NaN on (0.49, 0.51) and b = 1: no Magnus node lands there, but the dense
        # path reads NaN rows from 0.453125 on, and a NaN reading once passed both
        # verdict tests. The sampled maximum of c for the step grid now reads the NaN
        # first, before any dense path
        c = PiecewiseFunction.from_callable(
            lambda t: np.where(np.abs(np.asarray(t) - 0.5) < 0.01, np.nan, 1.0), 1.0)
        sys_ = make_system(0.0, 1.0, c)
        builds = []
        real_init = DensePath.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DensePath, "__init__", counting)
        with pytest.raises(EvaluationError) as info:
            disconjugacy_oracle(sys_, 0.0, 1.0)
        assert 0.49 < info.value.t < 0.51
        assert builds == []
        # a = 800 on both halves of the period: each half's map is finite, but x grows
        # by e^800 inside the first period chunk, and the state check raises at its start
        a = poly(None, breaks=[0.5], per_segment=[(800.0,), (800.0 + 1e-9,)])
        with pytest.raises(IntegrationFailureError) as info:
            disconjugacy_oracle(make_system(a, 1.0, 0.0), 0.0, 1.0)
        assert info.value.t_last == 0.0

    def test_growing_solution_past_the_float_range_disconjugate(self, capsys):
        # x'' = x: no solution has two zeros. The solutions grow as e^t, and the
        # products of two rows of the fundamental matrix once overflowed past t = 355
        # (exit 3); the focal state is normalised at every period
        doc = {"period": 1.0,
               "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                "b": [{"end": 1.0, "poly": [1.0]}],
                                "c": [{"end": 1.0, "poly": [-1.0]}]},
               "impulses": []}
        assert disconjugacy_oracle(system_from_descriptor(doc), 0.0, 800.0) == DISCONJUGATE
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0", "--t2", "800"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["oracle"] == DISCONJUGATE

    def test_focal_zeros_past_an_angle_near_pi_not_disconjugate(self, capsys):
        # The focal solution from (0, 1) at 0.7 vanishes at 1.6755 + k (an RK4 run at
        # 4,000 steps per unit time). The rows of the fundamental matrix align with
        # the growing solution, and angle reads near +-pi took the sign of rounding:
        # their sum, 0.62 rad, once answered disconjugate
        doc = system_to_descriptor(generate(GeneratorSpec(seed=170, mode="positive-b",
                                                          amplitude=8.0)))
        assert _checked_oracle(system_from_descriptor(doc), 0.7, 7.0) == NOT_DISCONJUGATE
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0.7", "--t2", "7.0"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["test"]["status"] == INCONCLUSIVE
        assert out["oracle"] == NOT_DISCONJUGATE and out["disagreement"] is False

    def test_oracle_steps_one_periods_parts_without_a_dense_path(self, monkeypatch):
        # four whole periods share their parts: one _magnus_steps call steps them once
        sys_ = system_from_descriptor(windows_population(0)[0]["system"])
        builds, calls = [], []
        real_init, real_steps = DensePath.__init__, lyapunov._magnus_steps

        def counting(self, *args, **kwargs):
            builds.append(args)
            real_init(self, *args, **kwargs)

        def stepping(pieces, tol):
            calls.append(len(pieces))
            return real_steps(pieces, tol)

        monkeypatch.setattr(DensePath, "__init__", counting)
        monkeypatch.setattr(lyapunov, "_magnus_steps", stepping)
        (_, parts), = lyapunov._grid_parts(sys_, 0.0, 1.0)
        assert disconjugacy_oracle(sys_, 0.0, 4.0) == DISCONJUGATE
        assert calls == [len(parts)] and len(parts) > 1
        assert disconjugacy_oracle(sys_, 0.3, 1.9) == DISCONJUGATE  # head and tail differ
        assert len(calls) == 2 and builds == []

    @pytest.mark.parametrize("K", [1.5e8, 4e8])
    def test_spike_of_c_inside_one_even_step_not_disconjugate(self, K, capsys):
        # c = K on [0.5002, 0.5007] turns row(t) by over 2pi inside one step of an even
        # 1,024-step grid, which read the turn less 2pi and answered disconjugate
        doc = _spike_descriptor(K)
        sys_ = system_from_descriptor(doc)
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == NOT_DISCONJUGATE
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0", "--t2", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["oracle"] == NOT_DISCONJUGATE and out["disagreement"] is False

    def test_grid_beyond_the_step_limit_exits_3(self, capsys):
        # c = 1e14 on [0, 1] needs ceil(1e7 / (pi/2)) = 6,366,198 steps, over the
        # propagator's 65,536 per piece: an exit 3 before any grid is allocated
        doc = {"period": 1.0,
               "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                "b": [{"end": 1.0, "poly": [1.0]}],
                                "c": [{"end": 1.0, "poly": [1e14]}]},
               "impulses": []}
        rc = cli.main(["disconjugacy", "--input", json.dumps(doc), "--t1", "0", "--t2", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("integration failure: ") and "6366198 steps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t2", [0.4, 0.9])
    def test_zero_b_stretch_counts_as_one_zero(self, t2):
        # b = 0 on [0, 0.5]: the row's angle stands still there, and the solution that
        # vanishes at one time of the stretch has x = 0 on all of it, one zero in all
        b = poly(None, breaks=[0.5], per_segment=[(0.0,), (1.0,)])
        sys_ = make_system(0.0, b, 1.0)
        chk = disconjugacy_test(sys_, 0.1, t2)
        assert chk.status == DISCONJUGATE_CERTIFIED
        assert disconjugacy_oracle(sys_, 0.1, t2) == DISCONJUGATE

    @pytest.mark.parametrize("b_coeffs, status, verdict", [
        # b = t^2 touches 0 at t1
        ((0.0, 0.0, 1.0), DISCONJUGATE_CERTIFIED, DISCONJUGATE),
        # b < 0 on [0, 0.1): the product stays below 1, yet a solution has two zeros
        ((-0.01, 0.0, 1.0), INCONCLUSIVE, NOT_DISCONJUGATE),
    ])
    def test_certificate_needs_nonnegative_b(self, b_coeffs, status, verdict):
        sys_ = make_system(0.0, poly(b_coeffs), 1.0)
        chk = disconjugacy_test(sys_, 0.0, 1.0)
        assert chk.sup_value < 1.0 and chk.status == status
        assert disconjugacy_oracle(sys_, 0.0, 1.0) == verdict == _oracle_by_sample(sys_, 0.0, 1.0)

    def test_callable_b_not_certified(self):
        # b >= 0.5, but a callable b has only a sampled minimum
        b = PiecewiseFunction.from_callable(lambda t: 1.0 + 0.5 * np.sin(2.0 * math.pi * t), 1.0)
        sys_ = make_system(0.0, b, 30.0, impulses=[(0.4, -0.8, 0.3)])
        chk = disconjugacy_test(sys_, 0.1, 0.3)
        assert chk.sup_value == pytest.approx(1.73, abs=0.01) and chk.status == INCONCLUSIVE


class TestZeroScan:
    def test_step_grid_cuts_each_distinct_period_chunk_once(self, monkeypatch):
        # the extrema of a, b and c on each part, of one period only, for a window of four
        sys_ = generate(GeneratorSpec(seed=12, amplitude=3.0))
        tol, focal = DEFAULT_TOLERANCES, np.array([[0.0], [1.0]])
        per_period = [lyapunov._zero_scan(sys_, float(k), k + 1.0, focal, tol)[0] for k in range(4)]
        calls = []
        real_extrema = lyapunov.segments_extrema

        def counting(pieces):
            calls.append(1)
            return real_extrema(pieces)

        monkeypatch.setattr(lyapunov, "segments_extrema", counting)
        (_, parts), = lyapunov._grid_parts(sys_, 0.0, 1.0)
        calls.clear()
        grid = lyapunov._zero_scan(sys_, 0.0, 4.0, focal, tol)[0]
        assert len(calls) == 3 * len(parts) and len(parts) > 1
        whole = np.concatenate([per_period[0]] + [g[1:] for g in per_period[1:]])
        assert grid.tobytes() == whole.tobytes()

    def test_b_is_cut_once_for_each_distinct_period_chunk(self, monkeypatch):
        # a window of 300 periods once cut b and took its extrema in every one of them
        sys_ = make_system(0.0, 1e-6, 1e-6, impulses=[(0.5, 1.5, 0.1)])
        calls = {"pieces": 0, "candidates": 0}
        real_pieces, real_candidates = PiecewiseFunction.pieces, piecewise._extremum_candidates

        def counting_pieces(self, lo, hi):
            calls["pieces"] += 1
            return real_pieces(self, lo, hi)

        def counting_candidates(coeffs, lo, hi):  # behind poly_min_on and segments_extrema
            calls["candidates"] += 1
            return real_candidates(coeffs, lo, hi)

        monkeypatch.setattr(PiecewiseFunction, "pieces", counting_pieces)
        monkeypatch.setattr(piecewise, "_extremum_candidates", counting_candidates)
        counts = []
        for t2 in (3.3, 30.3, 300.3):
            calls.update(pieces=0, candidates=0)
            assert disconjugacy_oracle(sys_, 0.25, t2) == DISCONJUGATE
            oracle = dict(calls)
            calls.update(candidates=0)  # the test's c integral still cuts every period
            assert disconjugacy_test(sys_, 0.25, t2).status == DISCONJUGATE_CERTIFIED
            counts.append((oracle, calls["candidates"]))
        assert counts[0] == counts[1] == counts[2] and counts[0][0]["candidates"] > 0

    def test_one_candidate_set_gives_each_minimum_and_maximum(self, monkeypatch):
        # the oracle once negated every segment (`scaled`) to take max|f| and max b as a
        # second minimum; now each distinct b piece and each part's a, b and c give one
        # candidate set and no poly_min_on call
        calls = {"poly_min_on": 0, "scaled": 0, "candidates": 0}

        def counting(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)
            return wrapped

        for owner, name, key in ((piecewise, "poly_min_on", "poly_min_on"),
                                 (piecewise, "_extremum_candidates", "candidates"),
                                 (PolySegment, "scaled", "scaled"),
                                 (piecewise.FuncSegment, "scaled", "scaled")):
            monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
        for w in windows_population(0)[:10]:
            sys_ = system_from_descriptor(w["system"])
            _, s1 = split_period(w["t1"], sys_.period)
            s2 = s1 + (w["t2"] - w["t1"])
            b_pieces = {(p0, p1, id(seg)) for p0, p1, seg, _ in lyapunov._b_pieces(sys_, s1, s2)}
            parts = {id(chunk): chunk for _, chunk in lyapunov._grid_parts(sys_, s1, s2)}
            calls.update(poly_min_on=0, scaled=0, candidates=0)
            assert disconjugacy_oracle(sys_, w["t1"], w["t2"]) == DISCONJUGATE
            assert calls == {"poly_min_on": 0, "scaled": 0,
                             "candidates": len(b_pieces) + 3 * sum(map(len, parts.values()))}, w

    def test_spike_zeros_inside_one_even_step_are_found(self):
        # the solution from (0, 1) vanishes at 0, 0.50033 and 0.50058: the last two
        # once fell in one step of the 512-per-period scan and showed no sign change
        sys_ = system_from_descriptor(_spike_descriptor(1.5e8))
        pair = find_zero_pair(sys_, State(0.0, 0.0, 1.0), (0.0, 1.0))
        assert pair is not None and pair.t1 == 0.0
        assert pair.t2 == pytest.approx(0.5003282683110314, abs=1e-9)

    def test_zeros_at_a_narrow_dip_of_b_are_found(self):
        # b = (t - 0.5)^2 - 1e-6 < 0 on (0.499, 0.501): the step grid is cut at b's
        # roots, and the solution from (0, 1) at 0.5 vanishes again at 0.5 + sqrt(3)e-3
        sys_ = make_system(0.0, poly((0.25 - 1e-6, -1.0, 1.0)), 1.0)
        pair = find_zero_pair(sys_, State(0.5, 0.0, 1.0), (0.5, 0.7))
        assert pair is not None and pair.t1 == 0.5
        assert pair.t2 == pytest.approx(0.5 + math.sqrt(3.0) * 1e-3, abs=1e-9)


class TestSoundnessSmall:
    def test_every_found_pair_holds(self):
        for seed in range(6):
            sys_ = generate(GeneratorSpec(seed=900 + seed, mode="positive-b",
                                          amplitude=1.8))
            for k in range(4):
                theta = math.pi * k / 4
                pair = find_zero_pair(sys_, State(0.0, math.cos(theta), math.sin(theta)),
                                      (0.0, 4.0))
                if pair is not None:
                    w = lyapunov_verify(sys_, pair)
                    assert w.holds, (seed, k, w.lhs)


def _growing_system(lam=1.0):
    """a = 0, b = 1 / lam, and c = 400 lam on [0, 0.5), -60 lam on [0.5, 1), T = 1."""
    return make_system(0.0, 1.0 / lam, poly(None, breaks=[0.5],
                                            per_segment=[(400.0 * lam,), (-60.0 * lam,)]))


def _spike_descriptor(K):
    """a = 0, b = 1 and c = K on [0.5002, 0.5007], 0 elsewhere, T = 1."""
    return {"period": 1.0,
            "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                             "b": [{"end": 1.0, "poly": [1.0]}],
                             "c": [{"end": 0.5002, "poly": [0.0]}, {"end": 0.5007, "poly": [K]},
                                   {"end": 1.0, "poly": [0.0]}]},
            "impulses": []}


def _zero_sites_by_loop(zs, ztol):
    """Reference scan: one site per run of |z| <= ztol, one per sign change
    between neighbours outside the band."""
    flagged = np.abs(zs) <= ztol
    count, i, n = 0, 0, zs.size
    while i < n:
        if flagged[i]:
            count += 1
            while i < n and flagged[i]:
                i += 1
            continue
        if i + 1 < n and not flagged[i + 1] and zs[i] * zs[i + 1] < 0.0:
            count += 1
        i += 1
    return count


def test_zero_site_scan_matches_the_loop():
    from impulse_floquet.lyapunov import _zero_sites
    rng = np.random.default_rng(7)
    for _ in range(20000):
        n = int(rng.integers(1, 24))
        zs = rng.choice([-1.0, 1.0], n) * rng.choice([0.0, 1e-12, 1e-3, 0.5, 2.0], n)
        zs += rng.normal(0.0, 1e-10, n) * rng.integers(0, 2, n)
        ztol = float(rng.choice([0.0, 1e-9, 1e-2]))
        runs, changes = _zero_sites(zs, ztol)
        assert np.count_nonzero(runs) + np.count_nonzero(changes) == _zero_sites_by_loop(zs, ztol)


def _oracle_by_sample(sys_, t1, t2):
    """Reference oracle: for each grid sample t_k, scan the solution that vanishes
    there, z_k(t) = row(t_k) x row(t) with row(t) the first row of the rescaled
    fundamental matrix, and stop at the first with two zero sites. Rows are
    normalised, which keeps every zero: once one growing solution dominates, the
    raw cross product of two huge, nearly parallel rows is rounding noise."""
    from impulse_floquet.lyapunov import _zero_sites
    s1 = t1 - math.floor(t1 / sys_.period + 1e-15) * sys_.period
    ts = np.linspace(s1, s1 + (t2 - t1), 1025)
    mats, prods = DensePath(sys_, s1, s1 + (t2 - t1)).sample_matrices(ts)
    rows = mats[:, 0, :] / prods[:, None]
    rows /= np.hypot(rows[:, 0], rows[:, 1])[:, None]
    for r in rows:
        zs = r[0] * rows[:, 1] - r[1] * rows[:, 0]
        scale = float(np.max(np.abs(zs)))
        if scale == 0.0:
            continue
        runs, changes = _zero_sites(zs, 1e-9 * scale)
        if np.count_nonzero(runs) + np.count_nonzero(changes) >= 2:
            return NOT_DISCONJUGATE
    return DISCONJUGATE


def _checked_oracle(sys_, t1, t2):
    verdict = disconjugacy_oracle(sys_, t1, t2)
    assert verdict == _oracle_by_sample(sys_, t1, t2), (t1, t2)
    return verdict


@pytest.mark.parametrize("impulses", [(), ((1.0, -2.0, 0.0),)], ids=["no-impulse", "alpha=-2"])
@pytest.mark.parametrize("t2, verdict", [(3.0, DISCONJUGATE), (3.3, NOT_DISCONJUGATE)])
def test_oracle_matches_the_direction_loop_on_negative_b(impulses, t2, verdict):
    # b = c = -1: x'' = -x, zeros pi apart, and the row's angle falls; an impulse
    # that only scales the state leaves the rescaled row as it is
    sys_ = make_system(0.0, -1.0, -1.0, T=4.0, impulses=impulses)
    assert _checked_oracle(sys_, 0.0, t2) == verdict


def test_oracle_matches_the_direction_loop():
    rng = np.random.default_rng(11)
    verdicts = []
    for i in range(40):
        sys_ = generate(GeneratorSpec(seed=700 + i, mode="positive-b", amplitude=3.0))
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = t1 + float(rng.uniform(0.15, 4.0))
        verdicts.append(_checked_oracle(sys_, t1, t2))
    assert {DISCONJUGATE, NOT_DISCONJUGATE} <= set(verdicts)

    # the benchmark's windows, seeds 0-5: b >= 0.2 on every one
    for seed in range(6):
        for w in windows_population(seed):
            _checked_oracle(system_from_descriptor(w["system"]), w["t1"], w["t2"])

    # positive b at three amplitudes, c shifted up by the amplitude, windows of
    # 0.2 to 3.5 periods: about a quarter are not disconjugate
    verdicts = []
    for amp in (1.0, 3.0, 8.0):
        for i in range(20):
            gen = generate(GeneratorSpec(seed=300 + i, mode="positive-b", amplitude=amp))
            sys_ = ImpulsiveSystem(gen.coeff_a, gen.coeff_b, gen.coeff_c.plus_constant(amp),
                                   gen.schedule)
            t1 = float(rng.uniform(0.0, 1.0))
            t2 = t1 + float(rng.uniform(0.2, 3.5))
            verdicts.append(_checked_oracle(sys_, t1, t2))
    assert verdicts.count(NOT_DISCONJUGATE) >= 0.2 * len(verdicts)

    # positive b at amplitude 8, long windows where no solution has two zeros (seed
    # 170 on [0.7, 7], where one has, is test_focal_zeros_past_an_angle_near_pi_...)
    for seed in (9, 117):
        sys_ = generate(GeneratorSpec(seed=seed, mode="positive-b", amplitude=8.0))
        assert _checked_oracle(sys_, 0.45, 9.55) == DISCONJUGATE

    # b changes sign on windows of one period or more: every one has a solution
    # with two zeros, two of them only in a band narrower than one degree
    verdicts = []
    for sys_ in _sign_changing_systems(range(600, 640)):
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = t1 + float(rng.uniform(1.0, 2.5))
        verdicts.append(_checked_oracle(sys_, t1, t2))
    assert len(verdicts) >= 15 and set(verdicts) == {NOT_DISCONJUGATE}

    # b changes sign on windows of 0.1 and 0.5 periods from 0.512 T: here the
    # solutions with two zeros can form a band of initial directions far
    # narrower than one degree
    verdicts = []
    for sys_ in _sign_changing_systems(range(660, 800)):
        t1 = 0.512 * sys_.period
        for length in (0.1, 0.5):
            verdicts.append(_checked_oracle(sys_, t1, t1 + length * sys_.period))
    assert 100 <= len(verdicts) <= 150
    assert min(verdicts.count(DISCONJUGATE), verdicts.count(NOT_DISCONJUGATE)) >= 20

    # a callable b takes the same rule
    b = PiecewiseFunction.from_callable(lambda t: 1.0 + 0.5 * np.sin(2.0 * math.pi * t), 1.0)
    sys_ = make_system(0.0, b, 30.0, impulses=[(0.4, -0.8, 0.3)])
    assert _checked_oracle(sys_, 0.1, 1.4) == NOT_DISCONJUGATE
    assert _checked_oracle(sys_, 0.1, 0.3) == DISCONJUGATE


def test_the_weighted_b_integral_of_a_window_is_one_integrand_call(monkeypatch):
    # window 2 of seed 0 has 9 pieces of b, none of whose rules splits
    w = windows_population(0)[2]
    calls = []

    def counted(fn, spans, *args):
        def counted_fn(ts, rows):
            calls.append(ts.shape)
            return fn(ts, rows)
        return piecewise.integrate_panels(counted_fn, spans, *args)
    monkeypatch.setattr(lyapunov, "integrate_panels", counted)
    factors = lyapunov._LhsFactors(system_from_descriptor(w["system"]), w["t1"], w["t2"])
    assert len(factors.b_panels) == 9 and calls == [(9, 45)]


def test_a_window_of_thousands_of_periods_keeps_its_quadrature_memory_bounded():
    # 9,000 pieces of b: one integrand call over all of them peaked at 18.7 MB under
    # tracemalloc, where the rule-by-rule quadrature peaked at 3.2 MB
    sys_ = make_system(0.0, 1e-6, 1e-6, impulses=[(0.5, 1.5, 0.1)])
    tracemalloc.start()
    try:
        check = disconjugacy_test(sys_, 0.25, 3000.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.status == DISCONJUGATE_CERTIFIED
    assert peak < 2 * 3.2e6
