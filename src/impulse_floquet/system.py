"""Planar Hamiltonian system with periodic coefficients and impulsive jumps.

The state (x, u) evolves by x' = a(t)x + b(t)u, u' = -c(t)x - a(t)u between
impulse times, and jumps by x -> alpha*x, u -> alpha*u - beta*x at each
impulse. Coefficients are piecewise functions over one period; impulse times
are merged into every coefficient's breakpoint set at construction so that
integrators and quadrature never step across a discontinuity;
`ImpulsiveSystem.pieces` is the one cut of a window into smooth pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .piecewise import PiecewiseFunction, knot_eps, merge_knots, period_chunks, split_period


class InvalidSystemError(ValueError):
    """Raised when an operation requires a valid system but validation fails."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Impulse:
    tau: float
    alpha: float
    beta: float

    @property
    def ratio(self) -> float:
        return self.beta / self.alpha

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.alpha, 0.0], [-self.beta, self.alpha]])


@dataclass(frozen=True)
class ImpulseSchedule:
    """Ordered impulse times with multipliers and strengths over one period."""

    period: float
    impulses: tuple[Impulse, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "impulses", tuple(self.impulses))

    @classmethod
    def from_triples(cls, period: float, triples) -> "ImpulseSchedule":
        return cls(period, tuple(Impulse(float(t), float(a), float(b)) for t, a, b in triples))

    @property
    def r(self) -> int:
        return len(self.impulses)

    @property
    def taus(self) -> tuple[float, ...]:
        return tuple(imp.tau for imp in self.impulses)

    @property
    def alpha_sq_product(self) -> float:
        out = 1.0
        for imp in self.impulses:
            out *= imp.alpha * imp.alpha
        return out

    def ratio_sum(self, lo: float = 0.0, hi: float | None = None,
                  positive: bool = False) -> float:
        """Sum of beta/alpha (optionally positive parts) over [lo, hi), by
        default the one period [0, T): each impulse counts once in each part
        [s0, s1) of the window that period_chunks gives, so windows may span
        multiple periods and the schedule extends periodically.
        """
        chunks = period_chunks(lo, self.period if hi is None else hi, self.period)
        total = 0.0
        for imp in self.impulses:
            val = max(imp.ratio, 0.0) if positive else imp.ratio
            for _, s0, s1 in chunks:
                if s0 <= imp.tau < s1:
                    total += val
        return total

    def find(self, t: float) -> Impulse | None:
        eps = knot_eps(self.period)
        for imp in self.impulses:
            if abs(imp.tau - t) <= eps:
                return imp
        return None


def jump_matrix(schedule: ImpulseSchedule, i: int) -> np.ndarray:
    """2x2 impulse map for impulse i (zero-based); determinant alpha_i^2."""
    if not 0 <= i < schedule.r:
        raise IndexError(f"impulse index {i} out of range for r={schedule.r}")
    return schedule.impulses[i].matrix


@dataclass(frozen=True)
class ImpulsiveSystem:
    """Coefficients plus impulse schedule; the complete periodic system."""

    coeff_a: PiecewiseFunction
    coeff_b: PiecewiseFunction
    coeff_c: PiecewiseFunction
    schedule: ImpulseSchedule
    _knots: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self._knots:  # coefficients that already carry these impulse times, and their knots
            return
        taus = self.schedule.taus
        object.__setattr__(self, "coeff_a", self.coeff_a.with_breakpoints(taus))
        object.__setattr__(self, "coeff_b", self.coeff_b.with_breakpoints(taus))
        object.__setattr__(self, "coeff_c", self.coeff_c.with_breakpoints(taus))
        merged = merge_knots((*self.coeff_a.knots, *self.coeff_b.knots, *self.coeff_c.knots),
                             knot_eps(self.period))
        object.__setattr__(self, "_knots", tuple(sorted(merged)))

    @property
    def period(self) -> float:
        return self.schedule.period

    @property
    def knots(self) -> tuple[float, ...]:
        return self._knots

    def coefficients(self) -> tuple[PiecewiseFunction, PiecewiseFunction, PiecewiseFunction]:
        return self.coeff_a, self.coeff_b, self.coeff_c

    def impulse_at(self, t: float) -> Impulse | None:
        return self.schedule.find(t)

    def pieces(self, lo: float = 0.0, hi: float | None = None) -> list:
        """(lo, hi, seg_a, seg_b, seg_c) for the window [lo, hi] (by default the
        period) cut at the knots more than the knot tolerance inside it; lo and
        hi are taken as given."""
        hi = self.period if hi is None else hi
        eps = knot_eps(self.period)
        cuts = [lo, *(k for k in self._knots if lo + eps < k < hi - eps), hi]
        a, b, c = self.coefficients()
        out = []
        for p0, p1 in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (p0 + p1)
            out.append((p0, p1, a.segments[a._interior_index(mid)],
                        b.segments[b._interior_index(mid)], c.segments[c._interior_index(mid)]))
        return out


def validate_system(system: ImpulsiveSystem) -> list[str]:
    """Every violated standing assumption, with its location; empty if valid."""
    out: list[str] = []
    T = system.period
    eps = knot_eps(T)
    if T <= eps:
        out.append(f"period {T} is not above the knot tolerance {eps}")
    for name, f in zip("abc", system.coefficients()):
        if abs(f.domain_end - T) > eps:
            out.append(f"coefficient {name}: domain end {f.domain_end} does not match period {T}")
    prev = 0.0
    for i, imp in enumerate(system.schedule.impulses, start=1):
        for key in ("tau", "alpha", "beta"):
            if not math.isfinite(getattr(imp, key)):
                out.append(f"impulse {i}: {key}={getattr(imp, key)} is not finite")
        if imp.tau <= eps or imp.tau >= T - eps:
            out.append(f"impulse {i}: tau={imp.tau} at interval endpoint")
        if i > 1 and imp.tau <= prev + eps:
            out.append(f"impulse {i}: tau={imp.tau} not greater than previous impulse time")
        if imp.alpha == 0.0:
            out.append(f"impulse {i}: zero impulse multiplier")
        prev = imp.tau
    return out


def time_shift(system: ImpulsiveSystem, delta: float) -> ImpulsiveSystem:
    """System whose coefficients and impulses are those of `system` shifted
    earlier by `delta` (new f(t) = old f(t + delta), times taken mod period)."""
    T = system.period
    delta = delta % T
    if delta == 0.0:
        return system

    def shift_fn(f: PiecewiseFunction) -> PiecewiseFunction:
        new_bps = sorted(merge_knots([(k - delta) % T for k in f.knots], knot_eps(T),
                                     kept=(0.0, T)))
        cuts = [0.0, *new_bps, T]
        segs = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            k, mid_old = split_period(0.5 * (lo + hi) + delta, T)
            segs.append(f.segments[f._interior_index(mid_old)].time_shifted(delta - k * T))
        return PiecewiseFunction(T, tuple(new_bps), tuple(segs))

    new_imps = sorted(
        (Impulse((imp.tau - delta) % T, imp.alpha, imp.beta) for imp in system.schedule.impulses),
        key=lambda imp: imp.tau)
    return ImpulsiveSystem(shift_fn(system.coeff_a), shift_fn(system.coeff_b),
                           shift_fn(system.coeff_c),
                           ImpulseSchedule(T, tuple(new_imps)))
