"""Stability classification from the period map.

With the characteristic determinant equal to 1, the verdict is driven by the
trace: inside (-2, 2) all solutions are bounded, outside all nontrivial
solutions are unbounded, and on the boundary the off-diagonal entries decide
between full stability and a single bounded direction. A determinant away
from 1 already forces an off-unit-circle multiplier, so the system cannot be
stable regardless of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagation import MonodromyResult, _mat_pows

STABLE = "stable"
UNSTABLE = "unstable"
CONDITIONALLY_STABLE = "conditionally-stable-not-stable"
BOUNDARY_UNDECIDED = "boundary-undecided"
NOT_STABLE_DET = "not-stable-det-neq-1"

BOUNDARY_TOL = 1e-7  # half-width of the band around |trace| = 2 and det = 1

CATEGORIES = (STABLE, UNSTABLE, CONDITIONALLY_STABLE, BOUNDARY_UNDECIDED, NOT_STABLE_DET)


@dataclass(frozen=True)
class StabilityVerdict:
    category: str
    trace: float
    det: float
    multipliers: tuple[complex, complex]
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "category": self.category,
            "trace": self.trace,
            "det": self.det,
            "multipliers": [{"re": m.real, "im": m.imag} for m in self.multipliers],
            "diagnostics": {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in self.diagnostics.items()},
        }


def _bounded_direction(X: np.ndarray, rho: float) -> tuple[float, float]:
    """Unit eigenvector of X for the eigenvalue rho (assumed real)."""
    v = np.array([X[0, 1], rho - X[0, 0]])
    if np.hypot(*v) < 1e-14 * (1.0 + abs(rho)):
        v = np.array([rho - X[1, 1], X[1, 0]])
    n = np.hypot(*v)
    if n == 0.0:
        v, n = np.array([1.0, 0.0]), 1.0
    return (float(v[0] / n), float(v[1] / n))


def classify(m: MonodromyResult) -> StabilityVerdict:
    """Verdict as a pure function of trace, determinant and off-diagonals.

    BOUNDARY_TOL is the classification band half-width; it should sit well
    above the integration error estimate carried by the monodromy result. When
    the boundary off-diagonal test falls below that error estimate but above
    the band, the verdict is reported as undecided rather than guessed.
    """
    A = m.trace
    B = m.det
    u1 = float(m.matrix[1, 0])
    x2 = float(m.matrix[0, 1])
    diagnostics = {
        "u1_T": u1,
        "x2_T": x2,
        "trace_margin": 2.0 - abs(A),
        "det_deviation": B - 1.0,
        "error_estimate": m.error_estimate,
        "det_integrated": m.det_integrated,
    }
    if abs(B - 1.0) > BOUNDARY_TOL:
        return StabilityVerdict(NOT_STABLE_DET, A, B, m.multipliers, diagnostics)
    if abs(A) < 2.0 - BOUNDARY_TOL:
        return StabilityVerdict(STABLE, A, B, m.multipliers, diagnostics)
    if abs(A) > 2.0 + BOUNDARY_TOL:
        return StabilityVerdict(UNSTABLE, A, B, m.multipliers, diagnostics)
    off = max(abs(u1), abs(x2))
    diagnostics["boundary_case"] = True
    if off <= BOUNDARY_TOL:
        return StabilityVerdict(STABLE, A, B, m.multipliers, diagnostics)
    if off <= m.error_estimate:
        return StabilityVerdict(BOUNDARY_UNDECIDED, A, B, m.multipliers, diagnostics)
    rho = math.copysign(1.0, A) if A != 0.0 else 1.0
    diagnostics["bounded_direction"] = _bounded_direction(m.matrix, rho)
    return StabilityVerdict(CONDITIONALLY_STABLE, A, B, m.multipliers, diagnostics)


def growth_bound(m: MonodromyResult, k_max: int) -> list[float]:
    """Spectral norms of the period-map powers for k = 1..k_max.

    Powers come from one batched binary expansion (`_mat_pows`).
    Once a power overflows, the remaining entries are reported as +inf.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    norms: list[float] = []
    for P in _mat_pows(np.asarray(m.matrix, dtype=float), np.arange(1, k_max + 1)):
        n = float(np.linalg.norm(P, 2)) if np.all(np.isfinite(P)) else math.inf
        if not math.isfinite(n):
            return norms + [math.inf] * (k_max - len(norms))
        norms.append(n)
    return norms
