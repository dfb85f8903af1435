import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import (DensePath, ImpulsiveSystem, PiecewiseFunction, RescaledSolution,
                             State, cli, disconjugacy_oracle, disconjugacy_test, find_zero_pair,
                             lyapunov_lhs, lyapunov_verify)
from impulse_floquet.descriptors import system_from_descriptor, system_to_descriptor
from impulse_floquet.harness import UNCONSTRAINED, GeneratorSpec, generate
from impulse_floquet.lyapunov import (DISCONJUGATE, DISCONJUGATE_CERTIFIED,
                                      INCONCLUSIVE, NOT_DISCONJUGATE)
from perfbench.inputs import windows_population

from helpers import make_system, poly, rotation_system

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

    def test_sign_flip_without_zero_not_counted(self):
        # alpha < 0 flips x across the impulse; z has no zero there
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, -1.0, 0.0)])
        assert find_zero_pair(sys_, State(0.0, 1.0, 0.0), (0.0, 1.0)) is None

    def test_trivial_initial_state(self):
        assert find_zero_pair(rotation_system(1.0), State(0.0, 0.0, 0.0),
                              (0.0, 1.0)) is None


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
