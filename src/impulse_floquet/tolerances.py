"""Numerical tolerances a caller can set: those of the propagator and the
strictness margin of the criteria.

The defaults keep integration error two orders of magnitude below the
classification band and the strictness margins, so that inequality decisions
near the critical values 2 and 4 are dominated by the actual margin, not by
solver noise. The fixed tolerances sit next to the rules that use them:
`piecewise.QUAD_REL_TOL` (every quadrature without a closed form),
`floquet.BOUNDARY_TOL`, `criteria.EQUALITY_TOL`, `lyapunov.ROOT_TOL` and
`lyapunov.SLACK`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """The settable tolerances (the CLI's --tol-abs, --tol-rel, --tol-strict).

    abs_tol / rel_tol: propagator tolerances; two successive piece products
                       must agree within abs_tol + rel_tol * max|X|
                       (rel_tol is floored at 100 machine epsilons).
    strict:            strictness tolerance for the criteria's strict
                       inequalities, scaled by max(1, |bound|).
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    strict: float = 1e-9

    def with_overrides(self, **kwargs) -> "Tolerances":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


DEFAULT_TOLERANCES = Tolerances()
