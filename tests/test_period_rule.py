"""The period rule: every layer places a time on the period grid by
`split_period`, so dense paths, cumulative integrals and periodic quadrature
agree on the period k and the offset s of a time, also for times within the
knot tolerance of a period multiple."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from impulse_floquet import DensePath, PiecewiseFunction, PolySegment
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
