"""The period rule: every layer places a time on the period grid by
`split_period`, so dense paths, cumulative integrals, periodic quadrature,
the impulse schedule's ratio sums and the zero-at-impulse flags agree on the
period k and the offset s of a time, also for times within the knot tolerance
of a period multiple or of an impulse time."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from impulse_floquet import DensePath, PiecewiseFunction, PolySegment
from impulse_floquet.lyapunov import ZERO_BAND, _impulse_time_flags
from impulse_floquet.piecewise import (CumulativeIntegral, integrate_periodic, knot_eps,
                                       period_chunks, split_period)

from helpers import make_system

PERIODS = (1e-6, 0.37, 1.0, 2.0 * math.pi, 1000.0)
MAX_K = 2000
_PATHS: dict = {}


def _path(T: float) -> DensePath:
    """Dense path over MAX_K + 1 periods of b = 1, c = 2 with one impulse of
    alpha = -1 at T/2: an error of one period flips a sign or turns the basis."""
    if T not in _PATHS:
        sys_ = make_system(0.0, 1.0, 2.0, T=T, impulses=[(0.5 * T, -1.0, 0.3)])
        _PATHS[T] = DensePath(sys_, 0.0, (MAX_K + 1) * T)
    return _PATHS[T]


def _function(T: float) -> PiecewiseFunction:
    return PiecewiseFunction(T, (0.3 * T,), (PolySegment((1.0, 2.0 / T)),
                                             PolySegment((-0.5, 0.0, 1.0 / (T * T)))))


@st.composite
def period_and_times(draw):
    """T and times that are k periods plus an offset at or near the knot
    tolerance, or uniform over the path."""
    T = draw(st.sampled_from(PERIODS))
    eps = knot_eps(T)
    offsets = st.sampled_from((0.0, 1e-16, -1e-16, 0.5 * eps, -0.5 * eps, 2 * eps, -2 * eps))
    near = st.builds(lambda k, d: k * T + d, st.integers(0, MAX_K), offsets)
    ts = draw(st.lists(st.one_of(near, st.floats(0.0, MAX_K * T)), min_size=1, max_size=8))
    return T, np.sort(np.maximum(ts, 0.0))


@settings(max_examples=300, deadline=None)
@given(period_and_times())
def test_every_layer_places_a_time_in_the_same_period(drawn):
    T, ts = drawn
    eps = knot_eps(T)
    ks, ss = split_period(ts, T)
    for t, k_arr, s_arr in zip(ts, ks, ss):
        k, s = split_period(float(t), T)
        assert (k, s) == (int(k_arr), float(s_arr))
        assert 0.0 <= s < T
        assert abs(k * T + s - t) <= eps + 1e-15 * t

    path = _path(T)
    mats, prods = path.sample_matrices(ts)
    for t, mat, prod in zip(ts, mats, prods):
        one = path.matrix(float(t), side="right")
        # equal up to the rounding of math against numpy; a time read as the
        # end of the previous period instead would be off by up to knot_eps
        assert np.max(np.abs(one - mat)) <= 1e-13 * max(1.0, np.max(np.abs(mat))), (t, one, mat)
        assert path.alpha_product(float(t), side="right") == prod

    f = _function(T)
    cum = CumulativeIntegral(f)
    values = cum.values(ts)
    for t, v in zip(ts, values):
        k, s = split_period(float(t), T)
        assert cum.value(float(t)) == k * cum.total + cum.value(s)
        assert math.isclose(v, cum.value(float(t)), rel_tol=1e-12, abs_tol=4 * eps)

    lo, hi = float(ts[0]), float(ts[-1])
    chunks = list(period_chunks(lo, hi, T))
    assert integrate_periodic(f, lo, hi) == sum(
        (f.integrate(s0, s1) for _, s0, s1 in chunks), 0.0)
    assert [k for k, _, _ in chunks] == list(range(split_period(lo, T)[0],
                                                   split_period(lo, T)[0] + len(chunks)))


def test_cumulative_integral_reads_an_offset_within_the_knot_tolerance_as_the_knot():
    # the float and the array path share one knot rule, also at exactly
    # knot_eps past the period start or a breakpoint
    f = PiecewiseFunction(1.0, (0.25,), (PolySegment((1.0,)), PolySegment((2.0, 1.0))))
    cum = CumulativeIntegral(f)
    eps = knot_eps(1.0)
    for t, knot in ((eps, 0.0), (0.25 + eps, 0.25), (0.5 * eps, 0.0), (0.25 + 0.5 * eps, 0.25)):
        expect = cum.value(knot)
        assert cum.value(t) == expect
        assert cum.values(np.array([t]))[0] == expect
    for t in (2 * eps, 0.25 + 2 * eps):  # past the tolerance both paths integrate
        assert cum.value(t) == cum.values(np.array([t]))[0] > cum.value(t - 2 * eps)


def _schedule_system(T: float):
    """Impulses with a positive, a negative and a positive ratio, the last within
    the zero band below T, so that a zero just after a period multiple is at it."""
    band = ZERO_BAND * max(1.0, T)
    return make_system(0.0, 1.0, 2.0, T=T, impulses=[(0.3 * T, 2.0, 0.5), (0.5 * T, -1.0, 0.3),
                                                     (T - 0.5 * band, 0.5, 0.25)])


@st.composite
def schedule_windows(draw):
    """T and a window [lo, hi] whose ends lie on, or within the knot tolerance
    of, a period multiple or an impulse time."""
    T = draw(st.sampled_from(PERIODS))
    eps = knot_eps(T)
    bases = (0.0, *_schedule_system(T).schedule.taus)
    offsets = st.sampled_from((0.0, 1e-16, -1e-16, 0.5 * eps, -0.5 * eps, 2 * eps, -2 * eps))
    end = st.builds(lambda k, base, d: max(k * T + base + d, 0.0),
                    st.integers(0, 40), st.sampled_from(bases), offsets)
    lo, hi = sorted((draw(end), draw(end)))
    assume(hi - lo > 2 * eps)  # period_chunks reads a shorter window as empty
    return T, lo, hi


@settings(max_examples=300, deadline=None)
@given(schedule_windows())
def test_impulse_sums_and_flags_place_a_time_by_the_period_rule(drawn):
    T, lo, hi = drawn
    system = _schedule_system(T)
    schedule = system.schedule
    chunks = list(period_chunks(lo, hi, T))
    (k_lo, s_lo), (k_hi, s_hi) = split_period(lo, T), split_period(hi, T)
    for positive in (False, True):
        in_period = by_split = 0.0
        for imp in schedule.impulses:
            val = max(imp.ratio, 0.0) if positive else imp.ratio
            for _, s0, s1 in chunks:
                if s0 <= imp.tau < s1:
                    in_period += val
            # tau of period k is in [lo, hi) when (k_lo, s_lo) <= (k, tau) < (k_hi, s_hi)
            for _ in range(k_hi - k_lo - (s_lo > imp.tau) + (s_hi > imp.tau)):
                by_split += val
        assert schedule.ratio_sum(lo, hi, positive=positive) == in_period == by_split

    band = ZERO_BAND * max(1.0, T)

    def near_an_impulse(t):
        k = split_period(t, T)[0]
        return any(abs(t - (j * T + tau)) <= band for j in (k - 1, k, k + 1)
                   for tau in schedule.taus)

    # every drawn end is near an impulse time: the last impulse lies within the
    # band below each period multiple
    assert _impulse_time_flags(system, lo) and _impulse_time_flags(system, hi)
    for t in (lo, hi, lo + 3 * band, hi - 0.9 * band):
        s = split_period(t, T)[1]
        assert _impulse_time_flags(system, t) == near_an_impulse(t) == any(
            min(abs(tau - s), T - abs(tau - s)) <= band for tau in schedule.taus), t
