"""Closed-form integrals of polynomial panels, checked against the adaptive
path and exact rational arithmetic, and the panel budget of adaptive
quadrature."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from impulse_floquet import FuncSegment, PiecewiseFunction, PolySegment
from impulse_floquet import piecewise
from impulse_floquet.piecewise import QUAD_REL_TOL, CumulativeIntegral, adaptive_integral

PROBE_START = 993.6280168780241
PROBE_CUBIC = (431335316.0, -1301805.72, 1309.65279, -0.439182484)  # -1.7 to -98 on its panel


@st.composite
def panels(draw):
    """(coeffs, T, lo, hi): a polynomial of degree <= 4 on [lo, hi] within [0, T].

    Its real roots in [lo, hi] sit on a grid of tenths of the panel, wider than
    the 33-node Chebyshev scan of the adaptive path, so that path sees every
    sign change; the rest of the factors are a root outside the panel or a
    complex pair."""
    T = draw(st.floats(0.5, 5.0))
    lo_frac, hi_frac = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    lo, hi = T * lo_frac, T * hi_frac
    if hi - lo < 1e-3 * T:
        hi = min(T, lo + 0.1 * T)
    width = hi - lo
    ticks = draw(st.sets(st.integers(0, 9), max_size=3))
    roots = [lo + width * (k + 0.5) / 10 for k in ticks]
    coeffs = npoly.polyfromroots(roots)
    for _ in range(draw(st.integers(0, 1))):
        if draw(st.booleans()):
            coeffs = npoly.polymul(coeffs, [-(hi + width * draw(st.floats(0.05, 2.0))), 1.0])
        else:
            u, v = lo + width * draw(st.floats(-1.0, 2.0)), width * draw(st.floats(0.05, 1.0))
            coeffs = npoly.polymul(coeffs, [u * u + v * v, -2.0 * u, 1.0])
    lead = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return tuple(lead * np.asarray(coeffs)), T, lo, hi


@settings(max_examples=200, deadline=None)
@given(panels(), st.sampled_from(["identity", "abs", "pos"]))
def test_closed_form_matches_the_adaptive_path(panel, transform):
    coeffs, T, lo, hi = panel
    seg = PolySegment(coeffs)
    exact = PiecewiseFunction(T, (), (seg,))
    adaptive = PiecewiseFunction(T, (), (FuncSegment(seg),))
    rel = QUAD_REL_TOL
    scale = max(exact.integrate(lo, hi, "abs"), 1e-3)
    assert abs(exact.integrate(lo, hi, transform)
               - adaptive.integrate(lo, hi, transform)) <= rel * scale


def test_close_root_pair_positive_part():
    # c = (t - 0.496)^2 - 0.004^2 is negative only on [0.492, 0.5], between two
    # nodes of a 33-node scan, which saw no sign change and returned int(c).
    c = PiecewiseFunction(1.0, (), (PolySegment((0.246, -0.992, 1.0)),))
    closed = (1.0 / 3.0 - 0.496 + 0.246) + 4.0 / 3.0 * 0.004 ** 3
    assert c.integrate(0.0, 1.0, "pos") == pytest.approx(closed, rel=1e-12)
    assert c.integrate(0.0, 1.0, "abs") == pytest.approx(closed + 4.0 / 3.0 * 0.004 ** 3, rel=1e-12)


def _exact_integral(coeffs, lo, hi) -> Fraction:
    def anti(t):
        return sum(Fraction(c) * t ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    return anti(Fraction(hi)) - anti(Fraction(lo))


def test_short_panel_far_from_zero_keeps_its_digits():
    # values of size 100 from coefficients of size 4e8 at t near 1000: the
    # antiderivative in t - lo loses no more than the coefficients carry
    f = PiecewiseFunction(1000.0, (PROBE_START,), (PolySegment((0.0,)), PolySegment(PROBE_CUBIC)))
    for lo, hi in ((PROBE_START, 1000.0), (PROBE_START, 998.0)):
        exact = _exact_integral(PROBE_CUBIC, lo, hi)
        assert abs(Fraction(f.integrate(lo, hi)) - exact) <= 1e-7 * abs(exact)
    cum = CumulativeIntegral(f)
    exact = _exact_integral(PROBE_CUBIC, PROBE_START, 998.0)
    assert abs(Fraction(cum.value(998.0)) - exact) <= 1e-7 * abs(exact)
    assert cum.values(np.array([998.0]))[0] == cum.value(998.0)


def test_antiderivative_is_polyint():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = tuple(rng.normal(size=int(rng.integers(1, 6))))
        assert PolySegment(coeffs).antiderivative().coeffs == tuple(npoly.polyint(coeffs))


def _unbudgeted(fn, lo, hi, tol_abs, depth=48):
    """The recursion without a panel budget, as a reference for its bits."""
    if hi - lo <= 0.0:
        return 0.0
    whole = piecewise._gauss(fn, lo, hi)
    mid = 0.5 * (lo + hi)
    halves = piecewise._gauss(fn, lo, mid) + piecewise._gauss(fn, mid, hi)
    if abs(halves - whole) <= tol_abs or depth == 0 or (hi - lo) < 1e-15 * (1.0 + abs(lo) + abs(hi)):
        return halves
    return (_unbudgeted(fn, lo, mid, 0.5 * tol_abs, depth - 1)
            + _unbudgeted(fn, mid, hi, 0.5 * tol_abs, depth - 1))


@pytest.mark.parametrize("fn", [lambda t: np.abs(t - 0.3), lambda t: np.sqrt(np.abs(t - 0.7)),
                                lambda t: np.sin(40.0 * t)])
def test_within_the_budget_the_bits_are_unchanged(fn, caplog):
    with caplog.at_level(logging.WARNING, logger="impulse_floquet"):
        assert adaptive_integral(fn, 0.0, 1.0, 1e-12) == _unbudgeted(fn, 0.0, 1.0, 1e-12)
    assert not caplog.records


def test_budget_ends_the_split_with_one_warning(monkeypatch, caplog):
    monkeypatch.setattr(piecewise, "_PANEL_BUDGET", 6)
    with caplog.at_level(logging.WARNING, logger="impulse_floquet"):
        val = adaptive_integral(lambda t: np.abs(t - 1.0 / 3.0), 0.0, 1.0, 1e-15)
    assert val == pytest.approx(5.0 / 18.0, abs=1e-3)
    assert len(caplog.records) == 1
    assert "stopped after 6 panel splits" in caplog.records[0].getMessage()


def test_noisy_integrand_ends_in_bounded_time(caplog):
    # a^2 for the probe cubic: rounding noise of about 1e-5 exceeds any panel
    # tolerance, which once meant about 2**48 Gauss rules
    seg = PolySegment(PROBE_CUBIC)
    with caplog.at_level(logging.WARNING, logger="impulse_floquet"):
        val = adaptive_integral(lambda t: seg(t) ** 2, PROBE_START, 1000.0, 1e-9)
    assert math.isfinite(val) and val > 0.0
    assert len(caplog.records) == 1
