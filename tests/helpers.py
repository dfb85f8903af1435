"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from impulse_floquet import (ImpulseSchedule, ImpulsiveSystem, PiecewiseFunction,
                             PolySegment)


def const(value: float, T: float = 1.0) -> PiecewiseFunction:
    return PiecewiseFunction.constant(value, T)


def make_system(a, b, c, T: float = 1.0, impulses=()) -> ImpulsiveSystem:
    """System from constants or ready-made piecewise coefficients."""
    def coeff(v):
        return v if isinstance(v, PiecewiseFunction) else const(float(v), T)
    return ImpulsiveSystem(coeff(a), coeff(b), coeff(c),
                           ImpulseSchedule.from_triples(T, impulses))


def poly(coeffs, T: float = 1.0, breaks=(), per_segment=None) -> PiecewiseFunction:
    """Piecewise polynomial; either one global polynomial or one per segment."""
    if per_segment is None:
        segs = tuple(PolySegment(tuple(coeffs)) for _ in range(len(breaks) + 1))
    else:
        segs = tuple(PolySegment(tuple(c)) for c in per_segment)
    return PiecewiseFunction(T, tuple(breaks), segs)


def rotation_system(T: float) -> ImpulsiveSystem:
    return make_system(0.0, 1.0, 1.0, T=T)


def stand_in(fn) -> PiecewiseFunction:
    """One-piece coefficient on [0, 1] that stands in for a smooth function such as
    cos(2 pi t): its degree-18 Chebyshev interpolant in power form (within 1e-13 of it)."""
    cheb = np.polynomial.Chebyshev.interpolate(fn, 18, domain=[0.0, 1.0])
    return poly(cheb.convert(kind=np.polynomial.Polynomial, domain=[0.0, 1.0],
                             window=[0.0, 1.0]).coef)
