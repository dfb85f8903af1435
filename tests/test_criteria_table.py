"""The criteria as data: the two tables, the report built from them, and the
shared pointwise-minimum helper."""

import math

import numpy as np
import pytest

from impulse_floquet import PiecewiseFunction, PolySegment, criteria, evaluate_all
from impulse_floquet.criteria import (CRITERION_ORDER, GUSEINOV_KAYMAKCALAN, KREIN,
                                      LBL_BCA2_NONNEG, LBL_BCA2_NONZERO, _CONDITIONS,
                                      _CRITERIA, _Quantities)
from impulse_floquet.harness import MODES, GeneratorSpec, generate
from impulse_floquet.piecewise import segments_min
from impulse_floquet.tolerances import DEFAULT_TOLERANCES

from helpers import make_system


def _check(name):
    return getattr(criteria, "check_" + name.replace("-", "_"))


def test_criteria_table_follows_the_report_order():
    assert tuple(_CRITERIA) == CRITERION_ORDER


def test_every_hypothesis_has_a_condition_labelled_by_its_key():
    used = {label for _, labels in _CRITERIA.values() for label in labels}
    assert used == set(_CONDITIONS)
    q = _Quantities(make_system(0.2, 1.0, 1.0), DEFAULT_TOLERANCES)
    for label, build in _CONDITIONS.items():
        assert build(q).label == label


@pytest.mark.parametrize("mode", MODES)
def test_each_check_matches_evaluate_all(mode):
    for seed in range(8):
        sys_ = generate(GeneratorSpec(seed=seed, mode=mode))
        reports = evaluate_all(sys_)
        for name, report in zip(CRITERION_ORDER, reports):
            assert _check(name)(sys_).to_json() == report.to_json()


def test_checks_are_named_after_their_criterion():
    for name in CRITERION_ORDER:
        check = _check(name)
        assert check.__name__ == "check_" + name.replace("-", "_")
        assert check(make_system(0.0, 1.0, 1.0)).criterion == name


def test_nonzero_margin_bounds_the_sampled_minimum():
    # The most negative value of b*c - a^2 lies between sample nodes; the
    # "not identically 0" margin is the largest |b*c - a^2|, so it cannot be
    # smaller than the refined minimum that krein reports.
    c = PiecewiseFunction.from_callable(lambda t: -1.0 - 0.2 * np.sin(7.0 * t), 1.0)
    sys_ = make_system(0.3, 1.0, c)
    krein = _check(KREIN)(sys_).condition(LBL_BCA2_NONNEG).margin
    nonzero = _check(GUSEINOV_KAYMAKCALAN)(sys_).condition(LBL_BCA2_NONZERO).margin
    assert krein == pytest.approx(-1.29, abs=1e-12)
    assert nonzero >= abs(krein)


class TestSegmentsMin:
    def test_polynomial_pieces_are_exact(self):
        pieces = [(0.0, 1.0, PolySegment((0.19, -0.6, 1.0))), (1.0, 2.0, PolySegment((1.0,)))]
        val, at = segments_min(pieces)
        assert val == pytest.approx(0.1, abs=1e-15)
        assert at == pytest.approx(0.3, abs=1e-12)

    def test_callable_pieces_are_sampled_and_refined(self):
        val, at = segments_min([(0.0, 1.0, lambda t: np.cos(2.0 * np.pi * np.asarray(t) + 0.1))])
        assert val == pytest.approx(-1.0, abs=1e-12)
        assert at == pytest.approx((math.pi - 0.1) / (2.0 * math.pi), abs=1e-6)

    def test_a_tie_goes_to_the_earliest_piece(self):
        pieces = [(0.0, 1.0, PolySegment((2.0, -1.0))), (1.0, 2.0, PolySegment((3.0, -1.0)))]
        assert segments_min(pieces) == (1.0, 1.0)
        flat = [(0.0, 0.5, PolySegment((1.0,))), (0.5, 1.0, PolySegment((1.0,)))]
        assert segments_min(flat) == (1.0, 0.0)
