import numpy as np
import pytest

from impulse_floquet import (ImpulseSchedule, ImpulsiveSystem, InvalidSystemError,
                             PiecewiseFunction, jump_matrix, monodromy,
                             time_shift, validate_system)
from helpers import make_system, poly


class TestJumpMatrix:
    def test_transcription(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.5, 2.0, 3.0)])
        assert np.array_equal(jump_matrix(sched, 0), [[2.0, 0.0], [-3.0, 2.0]])

    def test_noop_impulse(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.5, 1.0, 0.0)])
        assert np.array_equal(jump_matrix(sched, 0), np.eye(2))

    def test_sign_bookkeeping_and_det(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.5, -1.0, 0.5)])
        M = jump_matrix(sched, 0)
        assert np.array_equal(M, [[-1.0, 0.0], [-0.5, -1.0]])
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-15)

    def test_det_is_alpha_squared(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            alpha = float(rng.uniform(-2, 2)) or 0.5
            beta = float(rng.uniform(-2, 2))
            sched = ImpulseSchedule.from_triples(1.0, [(0.5, alpha, beta)])
            assert np.linalg.det(jump_matrix(sched, 0)) == pytest.approx(
                alpha * alpha, rel=1e-12)

    def test_index_out_of_range(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.5, 2.0, 0.0)])
        with pytest.raises(IndexError):
            jump_matrix(sched, 1)


class TestImpulseSums:
    def test_negative_ratio_gives_zero(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.5, -1.0, 0.5)])
        assert sched.ratio_sum(0.0, 1.0, positive=True) == 0.0

    def test_mixed_signs(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.3, 2.0, 3.0), (0.7, 0.5, -1.0)])
        assert sched.ratio_sum(0.0, 1.0, positive=True) == pytest.approx(1.5)

    def test_empty_schedule(self):
        assert ImpulseSchedule(1.0).ratio_sum(0.0, 1.0, positive=True) == 0.0

    def test_periodic_extension(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.3, 2.0, 3.0), (0.7, 0.5, -1.0)])
        assert sched.ratio_sum(1.0, 2.0, positive=True) == pytest.approx(1.5)
        assert sched.ratio_sum(0.5, 2.5, positive=True) == pytest.approx(3.0)

    def test_half_open_window(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.5, 1.0, 1.0)])
        assert sched.ratio_sum(0.5, 0.6, positive=True) == 1.0
        assert sched.ratio_sum(0.4, 0.5, positive=True) == 0.0

    def test_signed_sum(self):
        sched = ImpulseSchedule.from_triples(1.0, [(0.3, 2.0, 3.0), (0.7, 0.5, -1.0)])
        assert sched.ratio_sum() == pytest.approx(1.5 - 2.0)


class TestValidate:
    def test_endpoint_impulse(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.0, 2.0, 0.0)])
        msgs = validate_system(sys_)
        assert any("impulse 1" in m and "endpoint" in m for m in msgs)

    def test_zero_multiplier(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.3, 1.0, 0.0), (0.6, 0.0, 1.0)])
        msgs = validate_system(sys_)
        assert any("impulse 2" in m and "zero impulse multiplier" in m for m in msgs)

    def test_ordering(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.6, 1.0, 0.0), (0.3, 1.0, 0.0)])
        msgs = validate_system(sys_)
        assert any("not greater than previous" in m for m in msgs)

    def test_valid_constant_system(self):
        assert validate_system(make_system(0.0, 1.0, 1.0)) == []

    def test_period_mismatch(self):
        bad = ImpulsiveSystem(PiecewiseFunction.constant(0.0, 2.0),
                              PiecewiseFunction.constant(1.0, 1.0),
                              PiecewiseFunction.constant(1.0, 1.0),
                              ImpulseSchedule(1.0))
        msgs = validate_system(bad)
        assert any("coefficient a" in m and "period" in m for m in msgs)

    def test_monodromy_rejects_invalid(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.0, 2.0, 0.0)])
        with pytest.raises(InvalidSystemError):
            monodromy(sys_)


class TestMerging:
    def test_impulse_times_injected(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.25, 2.0, 0.0), (0.75, 0.5, 0.0)])
        for f in sys_.coefficients():
            assert 0.25 in f.breakpoints and 0.75 in f.breakpoints

    def test_values_unchanged_by_merge(self):
        f = poly([1.0, -2.0, 1.5], breaks=(0.4,), per_segment=[[1, 0.5], [2, -0.5]])
        sys_ = make_system(f, 1.0, 1.0, impulses=[(0.6, 2.0, 0.0)])
        for t in np.linspace(0.01, 0.99, 17):
            assert sys_.coeff_a.eval(t) == pytest.approx(f.eval(t), abs=1e-14)


class TestTimeShift:
    def test_eval_matches_shifted(self):
        rng = np.random.default_rng(17)
        f = poly(None, breaks=(0.3, 0.7),
                 per_segment=[rng.uniform(-1, 1, 3) for _ in range(3)])
        sys_ = make_system(f, 1.0, 1.0, impulses=[(0.5, 2.0, 1.0)])
        delta = 0.37
        shifted = time_shift(sys_, delta)
        assert validate_system(shifted) == []
        for t in rng.uniform(0.0, 1.0, 25):
            expect = sys_.coeff_a.eval((t + delta) % 1.0)
            got = shifted.coeff_a.eval(float(t))
            # skip points that land on a knot of either representation
            if min(abs(((t + delta) % 1.0) - k) for k in sys_.coeff_a.knots) > 1e-9 \
               and min(abs(t - k) for k in shifted.coeff_a.knots) > 1e-9:
                assert got == pytest.approx(expect, abs=1e-12)

    def test_impulses_relocated(self):
        sys_ = make_system(0.0, 1.0, 1.0, impulses=[(0.5, 2.0, 1.0)])
        shifted = time_shift(sys_, 0.2)
        assert shifted.schedule.taus == pytest.approx((0.3,))
