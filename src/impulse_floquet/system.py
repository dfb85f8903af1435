"""Planar Hamiltonian system with periodic coefficients and impulsive jumps.

The state (x, u) evolves by x' = a(t)x + b(t)u, u' = -c(t)x - a(t)u between
impulse times, and jumps by x -> alpha*x, u -> alpha*u - beta*x at each
impulse. Coefficients are piecewise functions over one period; impulse times
are merged into every coefficient's breakpoint set at construction so that
integrators and quadrature never step across a discontinuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .piecewise import PiecewiseFunction, knot_eps


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

    def ratio_sum(self, lo: float | None = None, hi: float | None = None,
                  positive: bool = False) -> float:
        """Sum of beta/alpha (optionally positive parts) over [lo, hi).

        With no window, sums over the one-period schedule. Windows may span
        multiple periods; the schedule extends periodically.
        """
        if lo is None and hi is None:
            total = 0.0
            for imp in self.impulses:
                q = imp.ratio
                total += max(q, 0.0) if positive else q
            return total
        if lo is None or hi is None:
            raise ValueError("give both window ends or neither")
        if hi <= lo:
            return 0.0
        T = self.period
        total = 0.0
        for imp in self.impulses:
            q = imp.ratio
            val = max(q, 0.0) if positive else q
            if val == 0.0:
                continue
            k0 = math.floor((lo - imp.tau) / T) - 1
            k1 = math.ceil((hi - imp.tau) / T) + 1
            for k in range(k0, k1 + 1):
                t = imp.tau + k * T
                if lo <= t < hi:
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
        taus = self.schedule.taus
        object.__setattr__(self, "coeff_a", self.coeff_a.with_breakpoints(taus))
        object.__setattr__(self, "coeff_b", self.coeff_b.with_breakpoints(taus))
        object.__setattr__(self, "coeff_c", self.coeff_c.with_breakpoints(taus))
        eps = knot_eps(self.period)
        merged: list[float] = []
        for f in (self.coeff_a, self.coeff_b, self.coeff_c):
            for k in f.knots:
                if all(abs(k - m) > eps for m in merged):
                    merged.append(k)
        object.__setattr__(self, "_knots", tuple(sorted(merged)))

    @property
    def period(self) -> float:
        return self.schedule.period

    @property
    def knots(self) -> tuple[float, ...]:
        return self._knots

    def coefficients(self) -> tuple[PiecewiseFunction, PiecewiseFunction, PiecewiseFunction]:
        return self.coeff_a, self.coeff_b, self.coeff_c

    def interior_knots(self, lo: float, hi: float) -> list[float]:
        eps = knot_eps(self.period)
        return [k for k in self._knots if lo + eps < k < hi - eps]

    def segment_evaluators(self, t_mid: float):
        """Active (a, b, c) segment evaluators at an interior point."""
        return (self.coeff_a.segments[self.coeff_a._interior_index(t_mid)],
                self.coeff_b.segments[self.coeff_b._interior_index(t_mid)],
                self.coeff_c.segments[self.coeff_c._interior_index(t_mid)])

    def impulse_at(self, t: float) -> Impulse | None:
        return self.schedule.find(t)

    def segment_triples(self):
        """Iterate (lo, hi, seg_a, seg_b, seg_c) over the merged smooth pieces."""
        knots = self._knots
        for lo, hi in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (lo + hi)
            yield (lo, hi, *self.segment_evaluators(mid))


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
    for name, f in zip("abc", system.coefficients()):
        if abs(f.domain_end - T) > eps:
            continue
        for i, imp in enumerate(system.schedule.impulses, start=1):
            if eps < imp.tau < T - eps and all(abs(imp.tau - b) > eps for b in f.breakpoints):
                out.append(f"coefficient {name}: impulse {i} time {imp.tau} missing from breakpoints")
    return out


def time_shift(system: ImpulsiveSystem, delta: float) -> ImpulsiveSystem:
    """System whose coefficients and impulses are those of `system` shifted
    earlier by `delta` (new f(t) = old f(t + delta), times taken mod period)."""
    T = system.period
    delta = delta % T
    if delta == 0.0:
        return system

    def shift_fn(f: PiecewiseFunction) -> PiecewiseFunction:
        eps = knot_eps(f.domain_end)
        new_bps = sorted({round_mod: None for round_mod in
                          [(k - delta) % T for k in f.knots]}.keys())
        new_bps = [b for b in new_bps if eps < b < T - eps]
        cuts = [0.0, *new_bps, T]
        segs = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid_old = (0.5 * (lo + hi) + delta) % T
            seg = f.segments[f._interior_index(mid_old)]
            wrap = T if 0.5 * (lo + hi) + delta >= T else 0.0
            segs.append(seg.time_shifted(delta - wrap))
        return PiecewiseFunction(T, tuple(new_bps), tuple(segs))

    new_imps = sorted(
        (Impulse((imp.tau - delta) % T, imp.alpha, imp.beta) for imp in system.schedule.impulses),
        key=lambda imp: imp.tau)
    return ImpulsiveSystem(shift_fn(system.coeff_a), shift_fn(system.coeff_b),
                           shift_fn(system.coeff_c),
                           ImpulseSchedule(T, tuple(new_imps)))
