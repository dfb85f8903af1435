import math

import numpy as np
import pytest

from impulse_floquet import (BOUNDARY_UNDECIDED, CONDITIONALLY_STABLE, DEFAULT_TOLERANCES,
                             NOT_STABLE_DET, STABLE, UNSTABLE, classify, growth_bound,
                             monodromy)
from impulse_floquet.floquet import BOUNDARY_TOL
from impulse_floquet.propagation import MonodromyResult, floquet_multipliers

from helpers import make_system


def synthetic(matrix, det=None, err=1e-9):
    X = np.asarray(matrix, dtype=float)
    trace = float(X[0, 0] + X[1, 1])
    det = float(np.linalg.det(X)) if det is None else det
    return MonodromyResult(matrix=X, period=1.0, trace=trace, det=det,
                           det_integrated=float(np.linalg.det(X)),
                           multipliers=floquet_multipliers(trace, det),
                           error_estimate=err, tolerances=DEFAULT_TOLERANCES)


def rotation_matrix(theta):
    return [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]


UNIPOTENT = [[1.0, 0.0], [-0.5, 1.0]]


class TestClassify:
    def test_interior_stable(self):
        v = classify(synthetic(rotation_matrix(math.pi / 2)))
        assert v.category == STABLE

    def test_identity_boundary_stable(self):
        v = classify(synthetic(np.eye(2)))
        assert v.category == STABLE
        assert v.diagnostics.get("boundary_case") is True

    def test_unipotent_conditionally_stable(self):
        v = classify(synthetic(UNIPOTENT))
        assert v.category == CONDITIONALLY_STABLE
        dx, du = v.diagnostics["bounded_direction"]
        assert (dx, abs(du)) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_det_not_one(self):
        v = classify(synthetic([[2.0, 0.0], [0.0, 2.0]], det=4.0))
        assert v.category == NOT_STABLE_DET

    def test_unstable(self):
        v = classify(synthetic([[3.0, 0.0], [0.0, 1.0 / 3.0]], det=1.0))
        assert v.category == UNSTABLE
        assert max(abs(r) for r in v.multipliers) > 1.0

    def test_boundary_undecided_band(self):
        # off-diagonal in (BOUNDARY_TOL, error estimate]: above the band, below the error
        X = [[1.0, 5 * BOUNDARY_TOL], [0.0, 1.0]]
        v = classify(synthetic(X, det=1.0, err=10 * BOUNDARY_TOL))
        assert v.category == BOUNDARY_UNDECIDED

    def test_stable_multipliers_on_unit_circle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            A = float(rng.uniform(-1.9, 1.9))
            m = synthetic(rotation_matrix(math.acos(A / 2.0)), det=1.0)
            v = classify(m)
            assert v.category == STABLE
            for r in v.multipliers:
                assert abs(r) == pytest.approx(1.0, abs=1e-9)

    def test_from_real_system(self):
        sys_ = make_system(0.0, 0.0, 0.0,
                           impulses=[(0.25, 2.0, 1.0), (0.75, 0.5, 0.0)])
        v = classify(monodromy(sys_))
        assert v.category == CONDITIONALLY_STABLE
        assert v.diagnostics["u1_T"] == pytest.approx(-0.5, abs=1e-12)


class TestGrowthBound:
    def test_identity_all_ones(self):
        assert growth_bound(synthetic(np.eye(2)), 16) == pytest.approx([1.0] * 16)

    def test_rotation_all_ones(self):
        norms = growth_bound(synthetic(rotation_matrix(math.pi / 2)), 32)
        assert norms == pytest.approx([1.0] * 32, abs=1e-12)

    def test_unipotent_linear_growth(self):
        norms = growth_bound(synthetic(UNIPOTENT), 1000)
        assert norms[-1] == pytest.approx(500.0, rel=0.01)
        # linear trend: norm(k) ~ k/2 for large k
        assert norms[599] == pytest.approx(300.0, rel=0.01)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_marks_inf(self):
        norms = growth_bound(synthetic([[1e200, 0.0], [0.0, 1e200]], det=1.0), 8)
        assert norms[0] == pytest.approx(1e200)
        assert math.isinf(norms[2]) and math.isinf(norms[-1])

    def test_unstable_monotone_growth(self):
        norms = growth_bound(synthetic([[3.0, 0.0], [0.0, 1.0 / 3.0]], det=1.0), 20)
        assert all(b > a for a, b in zip(norms[2:], norms[3:]))

    def test_stable_powers_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = float(rng.uniform(-1.9, 1.9))
            m = synthetic(rotation_matrix(math.acos(A / 2.0)))
            norms = growth_bound(m, 1024)
            assert max(norms) <= 10.0 * max(norms[:32])

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            growth_bound(synthetic(np.eye(2)), 0)


class TestVerdictSerialization:
    def test_json_fields(self):
        v = classify(synthetic(UNIPOTENT))
        doc = v.to_json()
        assert set(doc) == {"category", "trace", "det", "multipliers", "diagnostics"}
        assert doc["multipliers"][0].keys() == {"re", "im"}
