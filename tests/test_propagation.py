import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import (DensePath, IntegrationFailureError, State, Tolerances,
                             floquet_multipliers, fundamental_matrix, monodromy,
                             propagate_state, propagation)
from impulse_floquet.descriptors import system_from_descriptor
from impulse_floquet.harness import GeneratorSpec, generate
from impulse_floquet.piecewise import LEFT, RIGHT, knot_eps, split_period
from impulse_floquet.propagation import _mat_pows

from helpers import make_system, poly, rotation_system
from test_magnus import systems

SQRT5 = math.sqrt(5.0)


class TestPropagateState:
    def test_pure_jump_scaling(self):
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, 3.0, 0.0)])
        out = propagate_state(sys_, State(0.0, 1.0, 1.0), 1.0)
        assert (out.x, out.u) == pytest.approx((3.0, 3.0), abs=1e-12)

    def test_rotation_quarter_turn(self):
        sys_ = rotation_system(T=2.0)
        out = propagate_state(sys_, State(0.0, 0.0, 1.0), math.pi / 2)
        assert out.x == pytest.approx(1.0, abs=1e-9)
        assert out.u == pytest.approx(0.0, abs=1e-9)

    def test_single_jump_by_hand(self):
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, 2.0, 1.0)])
        out = propagate_state(sys_, State(0.0, 1.0, 0.0), 1.0)
        assert (out.x, out.u) == pytest.approx((2.0, -1.0), abs=1e-12)

    def test_jump_at_target_not_applied(self):
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, 3.0, 0.0)])
        out = propagate_state(sys_, State(0.0, 1.0, 1.0), 0.5)
        assert out.side == "left"
        assert (out.x, out.u) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_left_state_applies_jump_at_start(self):
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, 3.0, 0.0)])
        out = propagate_state(sys_, State(0.5, 1.0, 1.0, side="left"), 1.0)
        assert (out.x, out.u) == pytest.approx((3.0, 3.0), abs=1e-12)
        out2 = propagate_state(sys_, State(0.5, 1.0, 1.0, side="right"), 1.0)
        assert (out2.x, out2.u) == pytest.approx((1.0, 1.0), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_failure(self):
        sys_ = make_system(0.0, 1e308, 1e308, impulses=[])
        with pytest.raises(IntegrationFailureError):
            propagate_state(sys_, State(0.0, 1.0, 1.0), 1.0)


class TestFundamentalMatrix:
    def test_empty_interval_identity(self):
        sys_ = rotation_system(1.0)
        fm = fundamental_matrix(sys_, 0.3, 0.3)
        assert np.allclose(fm.matrix, np.eye(2), atol=1e-14)

    def test_rotation_closed_form(self):
        sys_ = rotation_system(2.0)
        s = 1.234
        fm = fundamental_matrix(sys_, 0.0, s)
        expect = [[math.cos(s), math.sin(s)], [-math.sin(s), math.cos(s)]]
        assert np.allclose(fm.matrix, expect, atol=1e-9)

    def test_two_jump_product(self):
        sys_ = make_system(0.0, 0.0, 0.0,
                           impulses=[(0.25, 2.0, 1.0), (0.75, 0.5, 0.0)])
        fm = fundamental_matrix(sys_, 0.0, 1.0)
        assert np.allclose(fm.matrix, [[1.0, 0.0], [-0.5, 1.0]], atol=1e-12)

    def test_composition_property(self):
        rng = np.random.default_rng(23)
        for seed in range(5):
            sys_ = generate(GeneratorSpec(seed=seed, mode="unconstrained"))
            s = float(rng.uniform(0.05, 0.95))
            if sys_.impulse_at(s) is not None:
                s += 1e-3
            whole = fundamental_matrix(sys_, 0.0, 1.0).matrix
            left = fundamental_matrix(sys_, 0.0, s).matrix
            right = fundamental_matrix(sys_, s, 1.0).matrix
            err = np.linalg.norm(whole - right @ left)
            assert err <= 1e-8 * np.linalg.norm(whole)

    @pytest.mark.parametrize("t_from, t_to", [(0.0, 2.0), (-0.5, 0.5), (1.2, 1.4)])
    def test_window_outside_one_period_raises(self, t_from, t_to):
        # past T the last piece's polynomial would be read beyond its segment and
        # the impulses of later periods skipped; DensePath composes such windows
        sys_ = generate(GeneratorSpec(seed=3))
        with pytest.raises(ValueError, match=rf"window \[{t_from}, {t_to}\] outside \[0, 1.0\]"):
            fundamental_matrix(sys_, t_from, t_to)
        if t_from == 0.0:
            square = np.linalg.matrix_power(monodromy(sys_).matrix, 2)
            assert np.allclose(DensePath(sys_, 0.0, 2.0).matrix(2.0), square, atol=1e-9)

    def test_propagate_state_checks_order_then_range(self):
        sys_ = rotation_system(1.0)
        with pytest.raises(ValueError, match="must not precede"):
            propagate_state(sys_, State(1.5, 1.0, 0.0), 1.2)
        with pytest.raises(ValueError, match=r"window \[1.5, 1.5\] outside"):
            propagate_state(sys_, State(1.5, 1.0, 0.0), 1.5)


class TestMonodromy:
    def test_rotation_quarter_period(self):
        m = monodromy(rotation_system(math.pi / 2))
        assert m.trace == pytest.approx(0.0, abs=1e-9)
        assert m.det == 1.0
        r1, r2 = sorted(m.multipliers, key=lambda r: r.imag)
        assert r1.real == pytest.approx(0.0, abs=1e-9)
        assert r1.imag == pytest.approx(-1.0, abs=1e-9)
        assert r2.imag == pytest.approx(1.0, abs=1e-9)

    def test_cancelling_jumps(self):
        sys_ = make_system(0.0, 0.0, 0.0,
                           impulses=[(0.25, 2.0, 0.0), (0.75, 0.5, 0.0)])
        m = monodromy(sys_)
        assert np.allclose(m.matrix, np.eye(2), atol=1e-12)
        assert m.trace == pytest.approx(2.0, abs=1e-12)
        assert m.det == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_roots_golden(self):
        r1, r2 = floquet_multipliers(3.0, 1.0)
        assert r1 == pytest.approx((3.0 + SQRT5) / 2, abs=1e-14)
        assert r2 == pytest.approx((3.0 - SQRT5) / 2, abs=1e-14)

    def test_quadratic_roots_stable_ordering(self):
        r1, r2 = floquet_multipliers(-3.0, 1.0)
        assert abs(r1) >= abs(r2)
        assert r1.real == pytest.approx((-3.0 - SQRT5) / 2, abs=1e-14)

    def test_multiplier_relations_random(self):
        for seed in range(8):
            sys_ = generate(GeneratorSpec(seed=seed, mode="unconstrained"))
            m = monodromy(sys_)
            r1, r2 = m.multipliers
            assert (r1 + r2).real == pytest.approx(m.trace, rel=1e-12, abs=1e-12)
            assert (r1 * r2).real == pytest.approx(m.det, rel=1e-12, abs=1e-12)
            assert abs((r1 + r2).imag) <= 1e-12
            assert abs((r1 * r2).imag) <= 1e-12

    def test_det_identity_random(self):
        for seed in range(20):
            sys_ = generate(GeneratorSpec(seed=1000 + seed, mode="unconstrained"))
            m = monodromy(sys_)
            assert abs(m.det_integrated - m.det) <= 1e-8 * max(1.0, m.det)

    def test_rotation_trace_grid(self):
        for T in np.linspace(0.3, 6.0, 7):
            m = monodromy(rotation_system(float(T)))
            assert m.trace == pytest.approx(2.0 * math.cos(T), abs=1e-8)

    def test_refinement_within_error_estimate(self):
        sys_ = generate(GeneratorSpec(seed=4, mode="unconstrained"))
        coarse_tol = Tolerances(abs_tol=1e-8, rel_tol=1e-6)
        coarse = monodromy(sys_, coarse_tol)
        fine = monodromy(sys_, Tolerances(abs_tol=1e-12, rel_tol=1e-10))
        assert abs(coarse.trace - fine.trace) <= coarse.error_estimate


def _located_piece(window, t, side):
    """The piece of a window that a read at t used when the matrix and the alpha
    product each located it on their own."""
    eps = knot_eps(window.system.period)
    t = min(max(t, window.t_from), window.t_to)
    starts = [p.lo for p in window.pieces]
    i = max(bisect.bisect_right(starts, t) - 1, 0)
    if side is None:
        side = LEFT if window.system.impulse_at(t) is not None or t >= window.t_to - eps else RIGHT
    if side == LEFT and i > 0 and t - starts[i] <= eps:
        i -= 1
    if side == RIGHT and i < len(window.pieces) - 1 and window.pieces[i].hi - t <= eps:
        i += 1
    return window.pieces[i]


def two_lookup_reference(path, t, side=None):
    """(matrix, alpha product) at t as `DensePath.matrix` and `alpha_product` made
    them before `DensePath.at`: two lookups, each with its own head/cycle split."""
    eps, T = knot_eps(path.system.period), path.system.period
    if t <= path.head.t_to + eps:
        t = min(t, path.head.t_to)
        matrix_piece, alpha_piece = _located_piece(path.head, t, side), _located_piece(path.head, t, side)
        return matrix_piece.at(min(max(t, matrix_piece.lo), matrix_piece.hi)), alpha_piece.aprod
    k, s = split_period(t, T)
    base = _mat_pows(path.cycle.end, [k - 1])[0] @ path.head.end
    prod = path.head.aprod_end * (path.cycle.aprod_end ** np.array([k - 1]))[0]  # grid power
    if s == 0.0 and side in (None, LEFT):
        return base, prod
    matrix_piece, alpha_piece = _located_piece(path.cycle, s, side), _located_piece(path.cycle, s, side)
    return (matrix_piece.at(min(max(s, matrix_piece.lo), matrix_piece.hi)) @ base,
            prod * alpha_piece.aprod)


def dense_read_times(system, t_start, t_end):
    """A grid over [t_start, t_end], every impulse time and period end in it."""
    T = system.period
    marks = [tau + k * T for tau in [0.0, *(imp.tau for imp in system.schedule.impulses)]
             for k in range(int(t_end / T) + 2)]
    return [*np.linspace(t_start, t_end, 41), *(t for t in marks if t_start <= t <= t_end)]


@settings(max_examples=60, deadline=None)
@given(systems().filter(lambda s: s.schedule.r), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
def test_sample_matrices_reads_impulse_times_as_at_right(sys_, shifts):
    # times within the knot tolerance of an impulse read the piece after the
    # jump on the grid as in the scalar read; the grid once took the piece
    # before it when the time rounded below the impulse
    T, eps = sys_.period, knot_eps(sys_.period)
    path = DensePath(sys_, 0.0, 3.0 * T)
    ts = sorted(imp.tau + k * T + u * eps for imp in sys_.schedule.impulses
                for k in range(3) for u in shifts)
    _, prods = path.sample_matrices(np.array(ts))
    for t, p in zip(ts, prods.tolist()):
        assert p == path.alpha_product(t, RIGHT), t


class TestDensePath:
    @pytest.mark.parametrize("seed, start", [(4, 0.0), (4, 0.3), (12, 0.45), (5, 1.0)])
    def test_at_matches_the_two_lookup_reference_bit_for_bit(self, seed, start):
        sys_ = generate(GeneratorSpec(seed=seed))
        T = sys_.period
        assert sys_.schedule.impulses
        path = DensePath(sys_, start * T, 3.5 * T)
        for t in dense_read_times(sys_, start * T, 3.5 * T):
            for side in (None, LEFT, RIGHT):
                M, p = path.at(float(t), side)
                ref_M, ref_p = two_lookup_reference(path, float(t), side)
                assert np.array([p, *M.ravel()]).tobytes() == \
                    np.array([ref_p, *ref_M.ravel()]).tobytes(), (t, side)
                assert path.matrix(float(t), side).tobytes() == M.tobytes()
                assert path.alpha_product(float(t), side) == p

    def test_scalar_read_has_the_grid_bits_up_to_and_past_the_float_range(self):
        # alpha = 1.9 once a period, from a descriptor (Python floats): the alpha
        # product leaves the float range after about 1,106 periods
        doc = {"period": 1.0,
               "coefficients": {"a": [{"end": 1.0, "poly": [0.0]}],
                                "b": [{"end": 1.0, "poly": [1.0]}],
                                "c": [{"end": 1.0, "poly": [1.0]}]},
               "impulses": [{"tau": 0.5, "alpha": 1.9, "beta": 0.0}]}
        path = DensePath(system_from_descriptor(doc), 0.0, 1200.0)
        ts = [*np.linspace(1.25, 1100.25, 400), 1199.25, 1199.5]
        _, prods = path.sample_matrices(np.array(ts))
        assert [path.alpha_product(float(t), RIGHT) for t in ts] == prods.tolist()
        assert math.isfinite(prods[-3]) and prods[-2] == prods[-1] == math.inf

    @pytest.mark.parametrize("T", [1.0, 0.7])
    def test_sample_matrices_steps_each_in_period_time_once(self, monkeypatch, T):
        # simulate's grid of 100 periods and 8 samples: past the head window the cycle
        # is stepped at the 8 distinct in-period times; at T = 0.7 the offsets round
        # differently from period to period, so fewer of them repeat
        sys_ = make_system(poly((0.1, -0.05), T), poly((1.0, 0.2), T), poly((1.1, 0.3, -0.2), T),
                           T=T, impulses=[(0.3 * T, -1.0, 0.4), (0.6 * T, 1.5, -0.2)])
        path = DensePath(sys_, 0.0, 100 * T)
        ts = np.concatenate([np.arange(800) * (T / 8), [100 * T]])
        sizes, real = [], propagation._Window.sample

        def counting(window, times):
            sizes.append(len(times))
            return real(window, times)

        monkeypatch.setattr(propagation._Window, "sample", counting)
        mats, prods = path.sample_matrices(ts)
        monkeypatch.undo()
        distinct = len(np.unique(split_period(ts[9:], T)[1]))
        assert sizes == [9, distinct]  # the head window reads 0, T/8, ..., T
        assert distinct == 8 if T == 1.0 else 8 < distinct < 792
        for t, M, p in zip(ts.tolist(), mats, prods.tolist()):
            ref_M, ref_p = path.at(t, RIGHT)
            assert M.tobytes() == ref_M.tobytes() and p == ref_p, t

    def test_multi_period_closed_form(self):
        sys_ = rotation_system(1.0)
        path = DensePath(sys_, 0.0, 5.0)
        for t in (0.4, 1.0, 1.7, 3.2, 4.9):
            y = path.matrix(t) @ np.array([0.0, 1.0])
            assert y[0] == pytest.approx(math.sin(t), abs=1e-8)
            assert y[1] == pytest.approx(math.cos(t), abs=1e-8)

    def test_sampling_matches_scalar(self):
        sys_ = generate(GeneratorSpec(seed=12, mode="unconstrained"))
        path = DensePath(sys_, 0.2, 3.4)
        ts = np.linspace(0.2, 3.4, 37)
        mats, prods = path.sample_matrices(ts)
        for i in (0, 7, 18, 29, 36):
            assert np.allclose(mats[i], path.matrix(float(ts[i]), side="right"),
                               atol=1e-10), ts[i]
            assert prods[i] == pytest.approx(
                path.alpha_product(float(ts[i]), side="right"))

    def test_alpha_product_accumulates(self):
        # impulse repeats at 0.5, 1.5, 2.5, ... with multiplier -2
        sys_ = make_system(0.0, 0.0, 0.0, impulses=[(0.5, -2.0, 0.0)])
        path = DensePath(sys_, 0.0, 2.5)
        assert path.alpha_product(0.25) == 1.0
        assert path.alpha_product(0.75) == -2.0
        assert path.alpha_product(1.25) == -2.0
        assert path.alpha_product(1.75) == 4.0
        assert path.alpha_product(2.25) == 4.0

    @pytest.mark.parametrize("t_end, method, t", [
        (0.5, "alpha_product", 0.9), (2.5, "alpha_product", 7.3), (0.5, "alpha_product", 0.05),
        (0.5, "sample_matrices", [0.05, 0.2]), (2.5, "sample_matrices", [0.2, 2.6]),
        (2.5, "matrix", 7.3)])
    def test_times_outside_the_path_raise(self, t_end, method, t):
        path = DensePath(generate(GeneratorSpec(seed=3)), 0.1, t_end)
        with pytest.raises(ValueError, match="outside path window"):
            getattr(path, method)(t)
