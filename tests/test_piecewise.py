import math

import numpy as np
import pytest

from numpy.polynomial import polynomial as npoly

from impulse_floquet import EvaluationError, PiecewiseFunction, PolySegment
from impulse_floquet.piecewise import (CumulativeIntegral, bracketed_root, golden_min,
                                       integrate_periodic, poly_min_on, sampled_min)

INV_PI = 0.3183098861837907  # closed form: integral of sin(2*pi*t) over [0, 1/2]


def step_function():
    return PiecewiseFunction(1.0, (0.5,), (PolySegment((1.0,)), PolySegment((2.0,))))


class TestEval:
    def test_step_left_limit(self):
        assert step_function().eval(0.5, "left") == 1.0

    def test_step_right_limit(self):
        assert step_function().eval(0.5, "right") == 2.0

    def test_polynomial_both_sides(self):
        f = PiecewiseFunction(1.0, (), (PolySegment((0.0, 0.0, 3.0)),))
        assert f.eval(0.4, "left") == pytest.approx(0.48, abs=1e-15)
        assert f.eval(0.4, "right") == pytest.approx(0.48, abs=1e-15)

    def test_sides_agree_away_from_breakpoints(self):
        f = step_function()
        for t in (0.1, 0.3, 0.7, 0.9):
            assert f.eval(t, "left") == f.eval(t, "right")

    def test_domain_error(self):
        with pytest.raises(ValueError):
            step_function().eval(1.5)

    def test_forbidden_sides_at_endpoints(self):
        f = step_function()
        with pytest.raises(ValueError):
            f.eval(0.0, "left")
        with pytest.raises(ValueError):
            f.eval(1.0, "right")

    def test_default_side(self):
        f = step_function()
        assert f(0.0) == 1.0
        assert f(1.0) == 2.0
        assert f(0.5) == 2.0  # right by default in the interior


class TestConstruction:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseFunction(1.0, (0.7, 0.3),
                              (PolySegment((1,)), PolySegment((2,)), PolySegment((3,))))

    def test_breakpoints_strictly_inside(self):
        with pytest.raises(ValueError):
            PiecewiseFunction(1.0, (0.0,), (PolySegment((1,)), PolySegment((2,))))

    def test_segment_count(self):
        with pytest.raises(ValueError):
            PiecewiseFunction(1.0, (0.5,), (PolySegment((1,)),))

    def test_with_breakpoints_preserves_values(self):
        f = step_function()
        g = f.with_breakpoints([0.25, 0.5, 0.75])
        assert g.breakpoints == (0.25, 0.5, 0.75)
        for t in np.linspace(0.01, 0.99, 23):
            assert g.eval(t) == f.eval(t)

    def test_with_breakpoints_ignores_exterior(self):
        f = step_function()
        assert f.with_breakpoints([0.0, 1.0]).breakpoints == (0.5,)


class TestIntegrate:
    def test_positive_part_of_sine(self):
        f = PiecewiseFunction.from_callable(lambda t: np.sin(2 * np.pi * t), 1.0)
        assert f.integrate(0.0, 1.0, "pos") == pytest.approx(INV_PI, abs=1e-11)

    def test_absolute_value_two_triangles(self):
        f = PiecewiseFunction(1.0, (), (PolySegment((-0.5, 1.0)),))
        assert f.integrate(0.0, 1.0, "abs") == pytest.approx(0.25, abs=1e-12)

    def test_zero_function_all_transforms(self):
        f = PiecewiseFunction.constant(0.0, 1.0)
        for tr in ("identity", "abs", "pos"):
            assert f.integrate(0.0, 1.0, tr) == 0.0

    def test_polynomial_exact(self):
        f = PiecewiseFunction(2.0, (1.0,), (PolySegment((0, 0, 3)), PolySegment((0, 0, 3))))
        assert f.integrate(0.0, 2.0) == pytest.approx(8.0, rel=1e-12)

    def test_additivity_over_interior_split(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            breaks = np.sort(rng.uniform(0.15, 0.85, 2))
            segs = tuple(PolySegment(tuple(rng.uniform(-2, 2, 3))) for _ in range(3))
            f = PiecewiseFunction(1.0, tuple(breaks), segs)
            s = float(rng.uniform(0.05, 0.95))
            whole = f.integrate(0.0, 1.0, rel_tol=1e-10)
            parts = f.integrate(0.0, s, rel_tol=1e-10) + f.integrate(s, 1.0, rel_tol=1e-10)
            assert whole == pytest.approx(parts, abs=2e-10 * max(1.0, abs(whole)))

    def test_abs_equals_pos_plus_neg_pos(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            segs = tuple(PolySegment(tuple(rng.uniform(-2, 2, 4))) for _ in range(2))
            f = PiecewiseFunction(1.0, (0.4,), segs)
            lhs = f.integrate(0.0, 1.0, "abs")
            rhs = f.integrate(0.0, 1.0, "pos") + (-f).integrate(0.0, 1.0, "pos")
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, lhs))

    def test_range_validation(self):
        f = step_function()
        with pytest.raises(ValueError):
            f.integrate(-0.5, 0.5)
        with pytest.raises(ValueError):
            f.integrate(0.8, 0.2)

    def test_non_finite_reported_with_location(self):
        f = PiecewiseFunction.from_callable(
            lambda t: np.where(t > 0.5, np.inf, 1.0), 1.0)
        with pytest.raises(EvaluationError) as err:
            f.integrate(0.0, 1.0)
        assert err.value.t is not None and err.value.t > 0.5


class TestHelpers:
    def test_poly_min_interior(self):
        # (t - 0.3)^2 + 0.1
        val, at = poly_min_on((0.19, -0.6, 1.0), 0.0, 1.0)
        assert val == pytest.approx(0.1, abs=1e-12)
        assert at == pytest.approx(0.3, abs=1e-9)

    def test_poly_min_endpoint(self):
        val, at = poly_min_on((0.0, 1.0), 0.0, 1.0)
        assert val == 0.0 and at == 0.0

    def test_sampled_min_matches_poly(self):
        seg = PolySegment((0.19, -0.6, 1.0))
        val, at = sampled_min(seg, 0.0, 1.0)
        assert val == pytest.approx(0.1, abs=1e-9)
        # the value and its location come from one point, also where a grid sample wins
        for fn in (seg, lambda t: t, lambda t: (t - 0.5) ** 2):
            val, at = sampled_min(fn, 0.0, 1.0)
            assert fn(at) == val

    def test_derivative_polynomial_only(self):
        f = PiecewiseFunction(1.0, (), (PolySegment((0.0, 0.0, 3.0)),))
        assert f.derivative().eval(0.5) == pytest.approx(3.0, abs=1e-14)
        g = PiecewiseFunction.from_callable(math.sin, 1.0)
        with pytest.raises(ValueError):
            g.derivative()


class TestCumulative:
    def test_matches_integrate(self):
        rng = np.random.default_rng(3)
        segs = tuple(PolySegment(tuple(rng.uniform(-1, 1, 3))) for _ in range(3))
        f = PiecewiseFunction(1.0, (0.3, 0.7), segs)
        cum = CumulativeIntegral(f)
        for t in (0.1, 0.3, 0.5, 0.85, 1.0):
            assert cum.value(t) == pytest.approx(f.integrate(0.0, t), abs=1e-12)

    def test_vector_evaluation(self):
        f = PiecewiseFunction(1.0, (0.5,), (PolySegment((1.0,)), PolySegment((2.0,))))
        cum = CumulativeIntegral(f)
        ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(cum.values(ts), [0.0, 0.25, 0.5, 1.0, 1.5], atol=1e-13)

    def test_callable_segment(self):
        f = PiecewiseFunction.from_callable(lambda t: np.cos(2 * np.pi * t), 1.0)
        cum = CumulativeIntegral(f)
        assert cum.value(0.25) == pytest.approx(1.0 / (2 * np.pi), abs=1e-11)


class TestFunctionalAliases:
    """The former functional aliases, now the methods they wrapped."""

    def test_eval_coeff(self):
        assert step_function().eval(0.5, "left") == 1.0

    def test_integrate_piecewise(self):
        f = PiecewiseFunction(1.0, (), (PolySegment((-0.5, 1.0)),))
        assert f.integrate(0.0, 1.0, "abs") == pytest.approx(0.25, abs=1e-12)


class TestPolySegment:
    def test_evaluation_matches_numpy_polyval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            seg = PolySegment(tuple(rng.normal(size=int(rng.integers(1, 6)))))
            ts = rng.uniform(-3.0, 3.0, 5)
            expect = npoly.polyval(ts, seg.coeffs)
            assert np.array_equal(seg(ts), expect)
            assert [seg(float(t)) for t in ts] == list(expect)


class TestSearch:
    def test_root_of_cubic(self):
        root = bracketed_root(lambda t: t ** 3 - 2.0, 0.0, 2.0, 1e-14)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)

    def test_root_at_either_end(self):
        assert bracketed_root(lambda t: t - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert bracketed_root(lambda t: t - 3.0, 1.0, 3.0, 1e-12) == 3.0

    def test_root_needs_a_sign_change(self):
        with pytest.raises(ValueError):
            bracketed_root(lambda t: t * t + 1.0, -1.0, 1.0, 1e-12)

    def test_root_of_flat_then_steep_function_within_tolerance(self):
        fn = lambda t: math.expm1(40.0 * (t - 0.9))  # noqa: E731
        assert bracketed_root(fn, 0.0, 1.0, 1e-13) == pytest.approx(0.9, abs=1e-12)

    def test_golden_min_of_parabola(self):
        t, val = golden_min(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
        assert t == pytest.approx(0.3, abs=1e-7)
        assert val == pytest.approx(1.0, abs=1e-13)


class TestPeriodic:
    def test_whole_periods(self):
        f = PiecewiseFunction(1.0, (), (PolySegment((0.0, 1.0)),))  # f(t) = t
        assert integrate_periodic(f, 0.0, 3.0) == pytest.approx(1.5, abs=1e-10)

    def test_offset_window(self):
        f = PiecewiseFunction.from_callable(lambda t: np.sin(2 * np.pi * t), 1.0)
        val = integrate_periodic(f, 0.5, 2.5, "pos")
        assert val == pytest.approx(2 * INV_PI, abs=1e-10)
