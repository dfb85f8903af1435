"""Properties of the Magnus propagator: the determinant identity, closed forms
for constant coefficients, and the ways it must fail cleanly."""

import bisect
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impulse_floquet
from impulse_floquet import (DEFAULT_TOLERANCES, FuncSegment, IntegrationFailureError,
                             PiecewiseFunction, PolySegment, State, monodromy, propagate_state,
                             propagation)
from impulse_floquet.descriptors import system_from_descriptor
from impulse_floquet.piecewise import knot_eps
from perfbench.inputs import sweep_descriptor

from helpers import make_system, poly


@st.composite
def systems(draw):
    """Polynomial coefficients of degree <= 2 on up to three segments, up to
    three impulses; sizes stay moderate so that det(X) is well conditioned."""
    T = draw(st.floats(0.2, 3.0))
    coef = st.floats(-1.5, 1.5)

    def coefficient():
        cuts = sorted(draw(st.sets(st.integers(1, 99), max_size=2)))
        segs = [draw(st.lists(coef, min_size=1, max_size=3)) for _ in range(len(cuts) + 1)]
        return poly(None, T=T, breaks=[T * k / 100 for k in cuts], per_segment=segs)

    taus = sorted(draw(st.sets(st.integers(1, 99), max_size=3)))
    impulses = [(T * k / 100,
                 draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0)),
                 draw(st.floats(-2.0, 2.0))) for k in taus]
    return make_system(coefficient(), coefficient(), coefficient(), T=T, impulses=impulses)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_det_is_the_alpha_square_product(sys_):
    m = monodromy(sys_)
    X = m.matrix
    # det(X) is taken from the entries, so its rounding scales with the two
    # products it subtracts, which exceed det(X) when X has grown.
    scale = max(m.det, abs(X[0, 0] * X[1, 1]) + abs(X[0, 1] * X[1, 0]))
    assert abs(m.det_integrated - m.det) <= 1e-12 * scale


@pytest.mark.parametrize("T", [3.0, 4.0])
def test_growing_diagonal_keeps_det_one(T):
    # a = 1 + t, b = c = 0: X = diag(e^A, e^-A) with A = T + T^2/2. The small
    # entry is ch - sh*p in each step, where ch and sh*p nearly cancel.
    m = monodromy(make_system(poly([1.0, 1.0], T=T), 0.0, 0.0, T=T))
    assert abs(m.det_integrated - 1.0) <= 1e-13
    expected = math.exp(-(T + T * T / 2.0))
    assert abs(m.matrix[1, 1] - expected) <= 1e-13 * expected


def _reference_steps(segs, lo, hi, tol):
    """One piece at a time, doubling from one step: the loop the window-wide
    level loop replaced, kept as its reference."""
    rel = max(tol.rel_tol, propagation._REL_FLOOR)
    prev, n = None, 1
    while n <= propagation._MAX_STEPS:
        h = (hi - lo) / n
        steps = propagation._step_maps(segs, lo + h * np.arange(n), h)
        X = steps
        while len(X) > 1:
            X = X[1::2] @ X[::2]
        X = X[0]
        if not np.all(np.isfinite(X)):
            raise IntegrationFailureError("non-finite step map", lo)
        if prev is not None and np.max(np.abs(X - prev)) <= tol.abs_tol + rel * np.max(np.abs(X)):
            return steps, X
        prev = X
        n *= 2
    raise IntegrationFailureError(f"no convergence within {propagation._MAX_STEPS} steps per piece", lo)


def _reference_period_map(sys_, tol=DEFAULT_TOLERANCES):
    """Pieces' step maps and the period map, built piece by piece."""
    T = sys_.period
    eps = 1e-12 * max(1.0, T)
    bounds = [0.0, *(k for k in sys_.knots if eps < k < T - eps), T]
    Y, out = np.eye(2), []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        imp = sys_.impulse_at(lo) if lo > 0.0 else None
        if imp is not None:
            Y = imp.matrix @ Y
        if hi - lo > eps:
            segs = [f.segments[bisect.bisect_right(f.breakpoints, 0.5 * (lo + hi))]
                    for f in sys_.coefficients()]
            steps, X = _reference_steps(segs, lo, hi, tol)
            out.append(steps)
            Y = X @ Y
    return out, Y


@settings(max_examples=150, deadline=None)
@given(systems())
def test_level_loop_matches_the_per_piece_loop(sys_):
    # construction merges every impulse time inside the period into each coefficient
    T, eps = sys_.period, knot_eps(sys_.period)
    for f in sys_.coefficients():
        assert all(any(abs(imp.tau - k) <= eps for k in f.breakpoints)
                   for imp in sys_.schedule.impulses if eps < imp.tau < T - eps)
    ref_steps, ref_map = _reference_period_map(sys_)
    (window,) = propagation._windows([(sys_, 0.0, sys_.period, False)], DEFAULT_TOLERANCES)
    steps = [p.steps for p in window.pieces if len(p.steps)]
    assert [len(s) for s in steps] == [len(s) for s in ref_steps]
    assert all(np.array_equal(s, r) for s, r in zip(steps, ref_steps))
    assert np.array_equal(window.end, ref_map)
    assert np.array_equal(monodromy(sys_).matrix, ref_map)


def test_one_kernel_call_per_doubling_level(monkeypatch):
    sys_ = system_from_descriptor(sweep_descriptor(0))
    calls = []

    def counted(*args):
        calls.append(args[-1].shape)
        return maps(*args)

    maps = propagation._maps
    monkeypatch.setattr(propagation, "_maps", counted)
    monodromy(sys_)
    # five smooth pieces converge at 4 to 32 steps: levels 1, 2, 4, 8, 16, 32
    assert len(calls) == 6
    assert len(sys_.knots) - 1 == 5


def _three_pieces(middle_c):
    """c = 1 on [0, 0.3], middle_c on [0.3, 0.6] and 2 + t on [0.6, 1]."""
    c = PiecewiseFunction(1.0, (0.3, 0.6), (PolySegment((1.0,)), middle_c, PolySegment((2.0, 1.0))))
    return make_system(0.0, 1.0, c)


def _failure_text(fn):
    with pytest.raises(IntegrationFailureError) as err:
        fn()
    return str(err.value)


@pytest.mark.parametrize("middle_c, max_steps", [
    (FuncSegment(lambda t: np.where(np.asarray(t) > 0.5, np.nan, 1.0)), None),  # non-finite
    (PolySegment((4e6, 1e6)), 64),  # step budget
])
def test_second_piece_failure_reads_as_before(monkeypatch, middle_c, max_steps):
    if max_steps is not None:
        monkeypatch.setattr(propagation, "_MAX_STEPS", max_steps)
    sys_ = _three_pieces(middle_c)
    expected = _failure_text(lambda: _reference_period_map(sys_))
    assert "t=0.3)" in expected
    assert _failure_text(lambda: monodromy(sys_)) == expected


def test_earliest_failing_piece_decides(monkeypatch):
    # the first piece runs out of steps at 8, the second is non-finite at once
    monkeypatch.setattr(propagation, "_MAX_STEPS", 8)
    c = PiecewiseFunction(1.0, (0.5,), (PolySegment((400.0, 100.0)), PolySegment((math.inf,))))
    sys_ = make_system(0.0, 1.0, c)
    expected = _failure_text(lambda: _reference_period_map(sys_))
    assert expected.startswith("no convergence") and "t=0.0)" in expected
    assert _failure_text(lambda: monodromy(sys_)) == expected


def _fastest_monodromy(sys_):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        m = monodromy(sys_)
        best = min(best, time.perf_counter() - start)
    return m, best


@pytest.mark.parametrize("c, T", [(1.0, 1000.0), (1e7, 1.0)])
def test_constant_coefficients_match_the_closed_form(c, T):
    m, seconds = _fastest_monodromy(make_system(0.0, 1.0, c, T=T))
    assert abs(m.trace - 2.0 * math.cos(math.sqrt(c) * T)) <= 1e-12
    assert abs(m.det_integrated - 1.0) <= 1e-12
    assert seconds < 0.010


def test_step_budget_raises(monkeypatch):
    sys_ = make_system(0.0, 1.0, poly([50.0, 0.0, 30.0]))
    monodromy(sys_)
    monkeypatch.setattr(propagation, "_MAX_STEPS", 4)
    with pytest.raises(IntegrationFailureError):
        monodromy(sys_)


@pytest.mark.parametrize("c", [
    PiecewiseFunction.constant(math.nan, 1.0),
    PiecewiseFunction.from_callable(lambda t: np.where(np.asarray(t) > 0.5, np.inf, 1.0), 1.0),
])
def test_non_finite_coefficient_raises(c):
    sys_ = make_system(0.0, 1.0, c)
    with pytest.raises(IntegrationFailureError):
        propagate_state(sys_, State(0.0, 1.0, 0.0), 1.0)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(impulse_floquet.__file__))
    code = ("import sys, impulse_floquet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
