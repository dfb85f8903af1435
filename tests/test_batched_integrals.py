"""Batched integrals against their one-item cases: `generate_many` against `generate`,
`integrate_groups` against `integrate_panels` group by group (and both against the one-group
quadrature they replaced), `_poly_integrals` against the scalar closed form it replaced, and
`evaluate_many` on a mixed chunk against `evaluate_all` system by system."""

import json
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import PiecewiseFunction, PolySegment, piecewise
from impulse_floquet.criteria import evaluate_all, evaluate_many
from impulse_floquet.descriptors import system_to_descriptor
from impulse_floquet.harness import (FORCE_GUSEINOV_ZAFER, FORCE_MAIN, MODES, GeneratorSpec,
                                     generate, generate_many)
from impulse_floquet.piecewise import (_antiderivative, _horner, _poly_integrals, _roots_within,
                                       _taylor_shift, integrate_groups, integrate_panels,
                                       segment_rows)

from helpers import make_system, poly
from test_batched import _assert_same_reports, _single
from test_poly_calculus import mixed_panels


def _outcome(fn, *args):
    """fn(*args) as text: a descriptor's JSON, a float's repr, or the exception's type, text, t."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "t", None)
    return json.dumps(system_to_descriptor(value)) if hasattr(value, "schedule") else repr(value)


def _entry(value):
    return _outcome(lambda: _raise_or(value))


def _raise_or(value):
    if isinstance(value, Exception):
        raise value
    return value


# -- generation ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
def test_generate_many_equals_per_spec_generate(mode):
    specs = [GeneratorSpec(seed=seed, mode=mode, margin=1e-3) for seed in range(200)]
    # past the float range: a GenerationError of the forced modes, inside the chunk
    specs[7] = GeneratorSpec(seed=0, mode=mode, a_amplitude=1e150)
    specs[8] = GeneratorSpec(seed=1, mode=mode, a_amplitude=2e155)
    batched = generate_many(specs)
    assert [_entry(s) for s in batched] == [_outcome(generate, spec) for spec in specs]
    if mode in (FORCE_MAIN, FORCE_GUSEINOV_ZAFER):
        assert sum(isinstance(s, Exception) for s in batched) == 2


# -- grouped quadrature ----------------------------------------------------------------

def _nan_near(c, width):
    return lambda ts: np.where(np.abs(ts - c) < width, np.nan, np.sin(3.0 * ts))


@st.composite
def quadrature_groups(draw):
    """Groups of (fn, lo, hi) panels as `mixed_panels` draws them, some with a NaN band."""
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        panels = draw(mixed_panels())
        if draw(st.booleans()) and draw(st.booleans()):
            k = draw(st.integers(0, len(panels) - 1))
            fn, lo, hi = panels[k]
            at = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
            panels[k] = (_nan_near(at, draw(st.sampled_from([1e-3, 0.05, 0.4]))), lo, hi)
        groups.append(panels)
    return groups


def _grouped(groups):
    fn = segment_rows([p[0] for g in groups for p in g])
    return [_entry(v) for v in integrate_groups(fn, [[p[1:] for p in g] for g in groups])]


def _alone(groups, integrate=integrate_panels):
    return [_outcome(integrate, segment_rows([p[0] for p in g]), [p[1:] for p in g])
            for g in groups]


def _one_group_quadrature(fn, spans):
    """The one-group adaptive quadrature before groups, kept as the reference: a level's fn calls
    raise at the first block of _QUAD_BLOCK rows that reads a non-finite value."""
    def rules(a, b, rows):
        half, out = 0.5 * (b - a), np.empty(a.shape)
        for i in range(0, len(rows), piecewise._QUAD_BLOCK):
            s = slice(i, i + piecewise._QUAD_BLOCK)
            ts = (0.5 * (b[s] + a[s]))[..., None] + half[s, :, None] * piecewise._GL_X
            vals = piecewise.finite_values(lambda x: fn(x, rows[s]), ts.reshape(len(ts), -1))
            out[s] = half[s] * (piecewise._GL_W @ vals.reshape(ts.shape)[..., None])[..., 0]
        return out.T
    lo, hi = np.array(spans, dtype=float).reshape(-1, 2).T
    span = sum((hi - lo).tolist())
    if span <= 0.0:
        return 0.0
    top, mid = np.arange(len(lo)), 0.5 * (lo + hi)
    whole, left, right = rules(np.array([lo, lo, mid]).T, np.array([hi, mid, hi]).T, top)
    t = piecewise.QUAD_REL_TOL * max(sum(map(abs, whole.tolist())), 1e-3) * (hi - lo) / span
    budget, levels, a, b, tol = np.full(len(lo), piecewise._PANEL_BUDGET), [], lo, hi, t
    for depth in range(48, -1, -1):
        halves = left + right
        split = (b > a) & ~((np.abs(halves - whole) <= t) | (depth == 0)
                            | ((b - a) < 1e-15 * (1.0 + np.abs(a) + np.abs(b))))
        levels.append((split, np.where(b > a, halves, 0.0)))
        if not split.any():
            break
        tops = top[split]
        over = np.arange(len(tops)) - np.searchsorted(tops, tops) >= budget[tops]
        budget -= np.bincount(tops, minlength=len(lo))
        split[np.flatnonzero(split)[over]] = False
        m = 0.5 * (a[split] + b[split])
        a, b, whole = (np.stack(p, 1).ravel() for p in ((a[split], m), (m, b[split]),
                                                        (left[split], right[split])))
        t, top, m = np.repeat(0.5 * t[split], 2), np.repeat(top[split], 2), 0.5 * (a + b)
        left, right = rules(np.array([a, m]).T, np.array([m, b]).T, top)
    for i in np.flatnonzero(budget < 0):
        logging.getLogger("impulse_floquet").warning(
            "adaptive quadrature on [%r, %r] stopped after %d panel splits; the result may miss "
            "its tolerance %.3g", *map(float, (lo[i], hi[i])), piecewise._PANEL_BUDGET, tol[i])
    vals = np.empty(0)
    for split, values in reversed(levels):
        values[split] = vals[0::2] + vals[1::2]
        vals = values
    return sum(vals.tolist())


@settings(max_examples=60, deadline=None)
@given(quadrature_groups())
def test_grouped_quadrature_equals_each_group_alone(groups):
    assert _grouped(groups) == _alone(groups) == _alone(groups, _one_group_quadrature)


def test_a_group_that_raises_leaves_the_others_their_sums():
    ok = [(PolySegment((1.0, 2.0)), 0.0, 1.0), (lambda ts: np.abs(ts - 1.3), 1.0, 2.0)]
    bad = [(PolySegment((1.0,)), 0.0, 0.5), (_nan_near(0.7, 0.01), 0.5, 1.0)]
    grouped = _grouped([ok, bad, ok])
    assert grouped == _alone([ok, bad, ok])
    assert grouped[1][:2] == ("EvaluationError", "non-finite segment value at t=0.6963715215760673")
    assert grouped[0] == grouped[2] != grouped[1]


def test_a_group_raises_at_its_own_first_block():
    # the group's first block of _QUAD_BLOCK rows holds a NaN at 10.5; its last row a NaN at 0.5,
    # earlier in time but in its second block. Ahead of it, another group moves the blocks.
    nan = [_nan_near(10.5, 1e-3)] + [PolySegment((1.0,))] * 298 + [_nan_near(0.5, 1e-3)]
    spans = [(10.0, 11.0)] + [(11.0 + k, 12.0 + k) for k in range(298)] + [(0.0, 1.0)]
    late = list(zip(nan, *zip(*spans)))
    ahead = [(PolySegment((2.0,)), float(k), k + 1.0) for k in range(100)]
    grouped = _grouped([ahead, late])
    assert grouped == _alone([ahead, late]) == _alone([ahead, late], _one_group_quadrature)
    assert grouped[1][2] == pytest.approx(10.5, abs=1e-3) and grouped[0] == repr(200.0)


def test_a_group_that_first_fails_past_level_0_stops_at_that_level():
    # The peak at 10.5 splits [10, 11]; the NaN band around 10.502 is first read at level 1,
    # and only deeper levels would put a node within 5e-5 of 10.502, where the callable raises.
    def peaked(ts):
        if np.any(np.abs(ts - 10.502) < 5e-5):
            raise ZeroDivisionError("read past the failing level")
        return np.where(np.abs(ts - 10.502) < 5e-4, np.nan, 1.0 / (1e-4 + (ts - 10.5) ** 2))
    band = [(peaked, 10.0, 11.0)]
    ok = [(PolySegment((1.0, 2.0)), 0.0, 1.0)]
    expected = ("EvaluationError", "non-finite segment value at t=10.501500935247439",
                10.501500935247439)
    assert _alone([band]) == _alone([band], _one_group_quadrature) == [expected]
    grouped = _grouped([ok, band, ok])
    assert grouped == _alone([ok, band, ok]) and grouped[1] == expected


def test_each_span_past_its_budget_warns_once_as_alone(monkeypatch, caplog):
    monkeypatch.setattr(piecewise, "_PANEL_BUDGET", 6)
    kinks = [[(lambda ts, c=c: np.abs(ts - c), 0.0, 1.0), (lambda ts: np.abs(ts - 1.7), 1.0, 2.0)]
             for c in (1.0 / 3.0, 0.61)]
    failing = [(lambda ts: np.abs(ts - 0.2), 0.0, 1.0), (_nan_near(1.5, 1e-9), 1.0, 2.0)]
    groups = [kinks[0], failing, kinks[1]]
    with caplog.at_level(logging.WARNING, logger="impulse_floquet"):
        alone = _alone(groups)
        expected = [r.getMessage() for r in caplog.records]
        caplog.clear()
        assert _alone(groups, _one_group_quadrature) == alone
        assert [r.getMessage() for r in caplog.records] == expected
        caplog.clear()
        assert _grouped(groups) == alone
    assert [r.getMessage() for r in caplog.records] == expected
    assert len(expected) == 4 and all("stopped after 6 panel splits" in m for m in expected)


# -- closed forms ------------------------------------------------------------------------

def _poly_integral(coeffs, lo, hi, transform):
    """The scalar closed form that `_poly_integrals` replaced: antiderivative in s = t - lo,
    split at the real roots for the abs and pos transforms."""
    q = _taylor_shift(coeffs, lo)
    F = _antiderivative(q)
    length = hi - lo
    if transform == "identity":
        return _horner(F, length)
    vals = [_horner(F, s) for s in (0.0, *_roots_within(q, length), length)]
    parts = [b - a for a, b in zip(vals[:-1], vals[1:])]
    return sum(abs(p) for p in parts) if transform == "abs" else sum(max(p, 0.0) for p in parts)


_COEFFS = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e308, -1e308]),
                    st.sampled_from([math.inf, math.nan]))


@st.composite
def closed_form_panels(draw):
    """(coeffs, lo, hi, transform) of degree 0-6: signed zeros, a root at an end of the panel
    (a factor t - lo or t - hi), and coefficients past the float range or not finite."""
    lo = draw(st.floats(0.0, 5.0))
    hi = lo + draw(st.sampled_from([0.0, 1e-9, 0.3, 2.0]))
    coeffs = draw(st.lists(_COEFFS, min_size=1, max_size=7))
    if len(coeffs) < 7 and draw(st.booleans()):
        coeffs = list(np.polynomial.polynomial.polymul(coeffs, [-draw(st.sampled_from([lo, hi])),
                                                                1.0]))
    return (tuple(float(c) for c in coeffs), lo, hi,
            draw(st.sampled_from(["identity", "abs", "pos"])))


@settings(max_examples=200, deadline=None)
@given(st.lists(closed_form_panels(), min_size=1, max_size=16), st.sampled_from([1, 2, 8]))
def test_batched_closed_form_equals_the_scalar_closed_form(panels, array_panels):
    with np.errstate(over="ignore", invalid="ignore"):  # the reference's polymul of 1e308
        expected = [repr(_poly_integral(*p)) for p in panels]
    with mock.patch.object(piecewise, "_ARRAY_PANELS", array_panels):  # arrays from 1, 2 or 8 on
        assert [repr(v) for v in _poly_integrals(panels)] == expected


# -- criteria ------------------------------------------------------------------------------

def test_evaluate_many_on_a_mixed_chunk_equals_evaluate_all():
    callable_c = PiecewiseFunction.from_callable(
        lambda t: 1.5 + 0.5 * np.cos(2.0 * np.pi * np.asarray(t)), 1.0)
    nan_b = PiecewiseFunction.from_callable(
        lambda t: np.where(np.abs(np.asarray(t) - 0.3) < 0.01, np.nan, 1.0), 1.0)
    chunk = [
        make_system(0.3, 1.0, callable_c, impulses=[(0.5, 1.0, 0.4)]),  # a callable c
        make_system(0.2, poly((-0.5, 1.0)), 2.0, impulses=[(0.4, 0.8, 0.1)]),  # b < 0 on [0, .5)
        make_system(2e154, 1.0, 1.0),  # a^2 past the float range in the a^2/b integrand
        make_system(0.0, 1.0, 1.0),  # impulse-free
        make_system(0.1, nan_b, 1.0, impulses=[(0.5, -1.0, 0.2)]),  # a NaN inside a^2/b
        make_system(0.3, poly((1.0, 0.5), breaks=(0.5,)), poly((1.0, -0.2), breaks=(0.5,)),
                    impulses=[(0.25, 1.2, -0.3)]),
    ]
    entries = evaluate_many(chunk)
    for entry, system in zip(entries, chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))
    assert isinstance(entries[4], Exception) and not isinstance(entries[5], Exception)
    main = {c.label: c for c in entries[2][5].conditions}
    assert main["int(c - a^2/b) + sum(beta/alpha) > 0"].margin == -math.inf


def test_a_callable_that_raises_in_the_grouped_a2_over_b_fails_only_its_system():
    def boom(t):
        raise ZeroDivisionError("callable a failed")
    chunk = [make_system(0.2, 1.0, 1.0, impulses=[(0.5, 1.0, 0.3)]),
             make_system(PiecewiseFunction.from_callable(boom, 1.0), 1.0, 1.0),
             make_system(0.4, 2.0, 1.0, impulses=[(0.5, 1.0, -0.3)])]
    entries = evaluate_many(chunk)
    for entry, system in zip(entries, chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))
    assert str(entries[1]) == "callable a failed"
