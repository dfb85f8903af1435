import json
import math

import numpy as np
import pytest

from impulse_floquet import (STABLE, classify, criteria, harness, monodromy, piecewise,
                             system_to_descriptor)
from impulse_floquet.criteria import CERTIFIED
from impulse_floquet.harness import (FORCE_ALPHA_PRODUCT_ONE, FORCE_GUSEINOV_ZAFER,
                                     FORCE_MAIN, IMPULSE_FREE, POSITIVE_B,
                                     GeneratorSpec, generate, lyapunov_sweep,
                                     soundness_sweep)
from impulse_floquet.system import Impulse, ImpulseSchedule, ImpulsiveSystem
from impulse_floquet.tolerances import DEFAULT_TOLERANCES


class TestGenerate:
    def test_impulse_free_mode(self):
        for seed in range(5):
            sys_ = generate(GeneratorSpec(seed=seed, mode=IMPULSE_FREE))
            assert sys_.schedule.r == 0

    def test_alpha_product_one(self):
        for seed in range(10):
            sys_ = generate(GeneratorSpec(seed=seed, mode=FORCE_ALPHA_PRODUCT_ONE,
                                          impulse_range=(1, 4)))
            assert sys_.schedule.alpha_sq_product == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        spec = GeneratorSpec(seed=123, mode=FORCE_MAIN)
        d1 = system_to_descriptor(generate(spec))
        d2 = system_to_descriptor(generate(spec))
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_different_seeds_differ(self):
        d1 = system_to_descriptor(generate(GeneratorSpec(seed=1)))
        d2 = system_to_descriptor(generate(GeneratorSpec(seed=2)))
        assert d1 != d2

    def test_positive_b_mode(self):
        from impulse_floquet.harness import _min_value
        for seed in range(8):
            sys_ = generate(GeneratorSpec(seed=seed, mode=POSITIVE_B))
            assert _min_value(sys_.coeff_b) > 0.0

    def test_force_modes_certify(self):
        from impulse_floquet import check_guseinov_zafer, check_main
        for seed in range(8):
            s1 = generate(GeneratorSpec(seed=seed, mode=FORCE_MAIN, margin=1e-3))
            assert check_main(s1).conclusion == CERTIFIED
            s2 = generate(GeneratorSpec(seed=seed, mode=FORCE_GUSEINOV_ZAFER,
                                        margin=1e-3))
            assert check_guseinov_zafer(s2).conclusion == CERTIFIED

    def test_zero_a_amplitude(self):
        sys_ = generate(GeneratorSpec(seed=4, a_amplitude=0.0))
        ts = np.linspace(0.01, 0.99, 11)
        assert np.allclose(sys_.coeff_a.eval_array(ts), 0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(mode="bogus")


def _force_round_by_round(spec, coeff_a, coeff_b, coeff_c, schedule):
    """Reference for harness._force_hypotheses: each round shrinks a by 0.7 and
    integrates |a| and a^2/b of the shrunk a again."""
    T = spec.period
    alphas = [imp.alpha for imp in schedule.impulses]
    betas = [imp.beta for imp in schedule.impulses]
    int_b = coeff_b.integrate(0.0, T, "identity")
    sum_ratio = sum(be / al for al, be in zip(alphas, betas))
    int_c = coeff_c.integrate(0.0, T, "identity")
    gap = 0.3 - (int_c + sum_ratio)
    if gap > 0.0:
        coeff_c = coeff_c.plus_constant(gap / T)
        int_c += gap
    g_val = int_c + sum_ratio
    h_val = (coeff_c.integrate(0.0, T, "pos")
             + sum(max(be / al, 0.0) for al, be in zip(alphas, betas)))
    margin = max(spec.margin, 1e-9)

    def s_bound(a_fn):
        int_abs_a = a_fn.integrate(0.0, T, "abs")
        if spec.mode == FORCE_MAIN:
            return (4.0 - margin) / (math.exp(2.0 * int_abs_a) * int_b * h_val)
        room = 2.0 - margin - int_abs_a
        if room <= 0.0:
            return -1.0
        return room * room / (int_b * h_val)

    def k_val(a_fn):
        probe = ImpulsiveSystem(a_fn, coeff_b, coeff_c, ImpulseSchedule(T))
        return criteria._Quantities(probe, DEFAULT_TOLERANCES).int_a2_over_b

    for _ in range(200):
        sb = s_bound(coeff_a)
        if sb > 0.0 and k_val(coeff_a) <= 0.45 * g_val * min(sb, 1.0):
            break
        coeff_a = coeff_a.scaled(0.7)
    else:
        raise harness.GenerationError("iteration budget")
    s = min(1.0, s_bound(coeff_a))
    return ImpulsiveSystem(coeff_a, coeff_b, coeff_c.scaled(s), ImpulseSchedule(
        T, tuple(Impulse(imp.tau, imp.alpha, s * imp.beta) for imp in schedule.impulses)))


class TestForceHypotheses:
    @pytest.mark.parametrize("mode", [FORCE_MAIN, FORCE_GUSEINOV_ZAFER])
    def test_scaled_integrals_match_the_round_by_round_loop(self, monkeypatch, mode):
        specs = [GeneratorSpec(seed=seed, mode=mode, margin=1e-3) for seed in range(200)]
        fast = [system_to_descriptor(generate(spec)) for spec in specs]
        monkeypatch.setattr(harness, "_force_hypotheses", _force_round_by_round)
        assert fast == [system_to_descriptor(generate(spec)) for spec in specs]

    @pytest.mark.parametrize("mode", [FORCE_MAIN, FORCE_GUSEINOV_ZAFER])
    def test_integrals_do_not_grow_with_the_rounds(self, monkeypatch, mode):
        calls = {"integrate": 0, "integrate_groups": 0, "rounds": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_scaled = piecewise.PiecewiseFunction.scaled

        def scaled(self, factor):
            calls["rounds"] += factor == 0.7
            return real_scaled(self, factor)

        monkeypatch.setattr(piecewise.PiecewiseFunction, "integrate",
                            counted("integrate", piecewise.PiecewiseFunction.integrate))
        for module in (piecewise, criteria):
            monkeypatch.setattr(module, "integrate_groups",
                                counted("integrate_groups", piecewise.integrate_groups))
        monkeypatch.setattr(piecewise.PiecewiseFunction, "scaled", scaled)
        counts = []
        for seed, rounds in ((4, 0), (9, 5)):
            calls.update(integrate=0, integrate_groups=0, rounds=0)
            generate(GeneratorSpec(seed=seed, mode=mode, margin=1e-3))
            assert calls["rounds"] == rounds
            counts.append((calls["integrate"], calls["integrate_groups"]))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("mode", [FORCE_MAIN, FORCE_GUSEINOV_ZAFER])
    def test_a_main_bound_past_float_range_shrinks_a(self, mode):
        # exp(2 * int|a|) overflows once int|a| passes about 354.9; force-main then
        # raised OverflowError, where force-guseinov-zafer read the bound as no room
        system = generate(GeneratorSpec(seed=0, mode=mode, a_amplitude=1000.0))
        conclusions = {r.criterion: r.conclusion for r in criteria.evaluate_all(system)}
        assert conclusions[criteria.MAIN] == CERTIFIED
        assert classify(monodromy(system)).category == STABLE
        with pytest.raises(harness.GenerationError):
            generate(GeneratorSpec(seed=0, mode=mode, a_amplitude=1e150))


class TestSoundnessSweep:
    def test_force_main_no_violations(self):
        summary = soundness_sweep(GeneratorSpec(seed=0, mode=FORCE_MAIN), 25)
        assert summary.violations == ()
        assert summary.certified_counts["main"] == 25
        assert summary.min_gap is not None and summary.min_gap > 0.0

    def test_empty_sweep(self):
        summary = soundness_sweep(GeneratorSpec(seed=0, mode=FORCE_MAIN), 0)
        assert summary.n == 0 and summary.records == ()
        assert summary.min_gap is None

    def test_summary_json_deterministic(self):
        spec = GeneratorSpec(seed=5, mode=FORCE_MAIN)
        a = soundness_sweep(spec, 8).to_json_text()
        b = soundness_sweep(spec, 8).to_json_text()
        assert a == b

    def test_worker_pool_matches_serial(self):
        spec = GeneratorSpec(seed=3, mode=FORCE_GUSEINOV_ZAFER)
        serial = soundness_sweep(spec, 6, workers=1).to_json_text()
        pooled = soundness_sweep(spec, 6, workers=2).to_json_text()
        assert serial == pooled

    def test_coverage_over_unconstrained(self):
        summary = soundness_sweep(GeneratorSpec(seed=0, mode="unconstrained",
                                                impulse_range=(1, 3)), 60)
        assert all(summary.coverage.values()), summary.coverage

    def test_csv_emission(self):
        summary = soundness_sweep(GeneratorSpec(seed=2, mode=FORCE_MAIN), 4)
        lines = summary.to_csv_text().strip().splitlines()
        assert lines[0].startswith("index,seed,trace,det,verdict,krein,")
        assert len(lines) == 5
        assert lines[1].split(",")[4] == "stable"


class TestLyapunovSweep:
    def test_no_failures(self):
        summary = lyapunov_sweep(GeneratorSpec(seed=3, mode=POSITIVE_B,
                                               amplitude=2.0), 6, directions=4)
        assert summary.failures == ()
        assert summary.pairs_found > 0
        assert summary.min_lhs is None or summary.min_lhs >= 4.0 - 1e-6

    def test_skips_non_positive_b(self):
        summary = lyapunov_sweep(GeneratorSpec(seed=1, mode="unconstrained"),
                                 6, directions=2)
        assert summary.systems_scanned + summary.systems_skipped == 6
