"""Properties of the Magnus propagator: the determinant identity, closed forms
for constant coefficients, and the ways it must fail cleanly."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impulse_floquet
from impulse_floquet import (IntegrationFailureError, PiecewiseFunction, State, monodromy,
                             propagate_state, propagation)

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
