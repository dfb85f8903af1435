"""Numerical tolerance bundle shared by the integration, quadrature and
decision layers.

The defaults keep integration error two orders of magnitude below the
classification band and the strictness margins, so that inequality decisions
near the critical values 2 and 4 are dominated by the actual margin, not by
solver noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Knobs for every numeric decision in the package.

    abs_tol / rel_tol: propagator tolerances; two successive piece products
                       must agree within abs_tol + rel_tol * max|X|
                       (rel_tol is floored at 100 machine epsilons).
    quad_rel:          relative tolerance for piecewise quadrature.
    boundary:          half-width of the classification band around |trace| = 2
                       and |det - 1| = 0.
    strict:            strictness tolerance for the criteria's strict
                       inequalities, scaled by max(1, |bound|).
    equality:          tolerance for the equality-type criteria conditions,
                       scaled by the size of the participating integrals.
    root:              zero-location tolerance, scaled by the period.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    quad_rel: float = 1e-10
    boundary: float = 1e-7
    strict: float = 1e-9
    equality: float = 1e-9
    root: float = 1e-12

    def with_overrides(self, **kwargs) -> "Tolerances":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


DEFAULT_TOLERANCES = Tolerances()
