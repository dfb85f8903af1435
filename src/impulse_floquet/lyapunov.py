"""Two-zero necessary condition and the disconjugacy certificate built on it.

For a solution whose first component vanishes at two consecutive times, the
product of two window integrals (a weighted b-integral and the positive mass
of c plus positive impulse ratios) is at least 4. The contrapositive gives a
certificate: when the product stays below 4 for every choice of the interior
weight point, no solution can have two zeros in the window.

The continuous object scanned for zeros is the rescaled first component z,
obtained by dividing out the running product of impulse multipliers; z is
continuous across impulses and has exactly the zero set of x in the
one-sided sense, which makes sign-change bracketing on a dense grid sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .piecewise import (CumulativeIntegral, adaptive_integral, bracketed_root, golden_min,
                        integrate_periodic)
from .propagation import DensePath, State
from .system import ImpulsiveSystem
from .tolerances import DEFAULT_TOLERANCES, Tolerances

DISCONJUGATE_CERTIFIED = "disconjugate-certified"
INCONCLUSIVE = "inconclusive"
DISCONJUGATE = "disconjugate"
NOT_DISCONJUGATE = "not-disconjugate"


@dataclass(eq=False)
class RescaledSolution:
    """Continuous (z, v) view of a solution along a dense path."""

    path: DensePath
    y0: np.ndarray

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)

    def zv(self, t: float, side: str | None = None) -> tuple[float, float]:
        y = self.path.eval_state(t, self.y0, side)
        p = self.path.alpha_product(t, side)
        return float(y[0] / p), float(y[1] / p)

    def z(self, t: float, side: str | None = None) -> float:
        return self.zv(t, side)[0]

    def v(self, t: float, side: str | None = None) -> float:
        return self.zv(t, side)[1]

    def z_samples(self, ts: np.ndarray) -> np.ndarray:
        mats, prods = self.path.sample_matrices(np.asarray(ts, dtype=float))
        xs = mats[:, 0, :] @ self.y0
        return xs / prods

    def v_samples(self, ts: np.ndarray) -> np.ndarray:
        mats, prods = self.path.sample_matrices(np.asarray(ts, dtype=float))
        us = mats[:, 1, :] @ self.y0
        return us / prods


def rescale(path: DensePath, y0) -> RescaledSolution:
    """Rescaled view of the solution with initial vector y0 along `path`."""
    return RescaledSolution(path, np.asarray(y0, dtype=float))


@dataclass(frozen=True, eq=False)
class ZeroPair:
    """Two consecutive zeros of a rescaled solution's first component."""

    t1: float
    t2: float
    t1_at_impulse: bool = False
    t2_at_impulse: bool = False
    solution: RescaledSolution | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {"t1": self.t1, "t2": self.t2,
                "t1_at_impulse": self.t1_at_impulse, "t2_at_impulse": self.t2_at_impulse}


@dataclass(frozen=True)
class LyapunovWitness:
    t0: float
    lhs: float
    holds: bool
    t0_sup: float
    lhs_sup: float

    def to_json(self) -> dict:
        return {"t0": self.t0, "lhs": self.lhs, "holds": self.holds,
                "t0_sup": self.t0_sup, "lhs_sup": self.lhs_sup}


@dataclass(frozen=True)
class DisconjugacyCheck:
    status: str
    sup_value: float
    t0_at_sup: float

    def to_json(self) -> dict:
        return {"status": self.status, "sup_value": self.sup_value,
                "t0_at_sup": self.t0_at_sup}


def _impulse_time_flags(system: ImpulsiveSystem, t: float) -> bool:
    T = system.period
    eps = 1e-9 * max(1.0, T)
    for imp in system.schedule.impulses:
        k = round((t - imp.tau) / T)
        if abs(imp.tau + k * T - t) <= eps:
            return True
    return False


def find_zero_pair(system: ImpulsiveSystem, initial: State, window: tuple[float, float],
                   tolerances: Tolerances | None = None,
                   grid_per_period: int = 512) -> ZeroPair | None:
    """First two consecutive zeros of z in the window, or None.

    The solution starts from `initial` (which must not lie after the window)
    and is scanned on a dense grid; sign changes are refined by bracketing on
    the continuous z. Zeros closer together than the grid resolution cannot
    be separated.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    w0, w1 = window
    T = system.period
    eps = 1e-12 * max(1.0, T)
    if not (initial.t <= w0 + eps and w0 < w1):
        raise ValueError("window must start at or after the initial state and be nonempty")
    y0 = np.array([initial.x, initial.u])
    if float(np.hypot(*y0)) == 0.0:
        return None
    path = DensePath(system, initial.t, w1, tol)
    if initial.side == "left":
        imp = system.impulse_at(initial.t)
        if imp is not None:
            y0 = imp.matrix @ y0
    sol = RescaledSolution(path, y0)

    n = max(64, int(math.ceil(grid_per_period * (w1 - w0) / T)))
    ts = np.linspace(w0, w1, n + 1)
    zs = sol.z_samples(ts)
    scale = float(np.max(np.abs(zs)))
    if scale == 0.0:
        return None
    ztol = 1e-9 * scale
    xtol = tol.root * max(1.0, T)

    runs, changes = _zero_sites(zs, ztol)
    zeros = [float(ts[i]) for i in runs]
    zeros += [bracketed_root(sol.z, ts[i], ts[i + 1], xtol) for i in changes]
    zeros.sort()
    distinct: list[float] = []
    for z in zeros:
        if not distinct or z - distinct[-1] > 1e-9 * max(1.0, T):
            distinct.append(z)
    if len(distinct) < 2:
        return None
    t1, t2 = distinct[0], distinct[1]
    return ZeroPair(t1, t2,
                    _impulse_time_flags(system, t1), _impulse_time_flags(system, t2),
                    solution=sol)


class _LhsFactors:
    """Shared machinery for the two-factor product over a window."""

    def __init__(self, system: ImpulsiveSystem, t1: float, t2: float, tol: Tolerances):
        self.system = system
        self.t1 = t1
        self.t2 = t2
        self.tol = tol
        self._cum_a = CumulativeIntegral(system.coeff_a, min(tol.quad_rel, 1e-12))
        self._a_total = self._cum_a.total
        self.factor2 = (integrate_periodic(system.coeff_c, t1, t2, "pos", tol.quad_rel)
                        + system.schedule.ratio_sum(t1, t2, positive=True))
        self.weighted_b = self._weighted_b_integral()

    def a_cum(self, t: float) -> float:
        T = self.system.period
        k = math.floor(t / T + 1e-15)
        s = t - k * T
        if s > T - 1e-12 * max(1.0, T):
            k += 1
            s = 0.0
        return k * self._a_total + self._cum_a.value(s)

    def a_cum_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        T = self.system.period
        ks = np.floor(ts / T + 1e-15).astype(int)
        ss = ts - ks * T
        roll = ss > T - 1e-12 * max(1.0, T)
        ks[roll] += 1
        ss[roll] = 0.0
        return ks * self._a_total + self._cum_a.values(ss)

    def _weighted_b_integral(self) -> float:
        """Integral of b(t) * exp(-2 * A(t)) over [t1, t2], A the running a-integral."""
        system = self.system
        T = system.period
        b = system.coeff_b
        eps = 1e-12 * max(1.0, T)
        total = 0.0
        panels = []
        t = self.t1
        k = math.floor(t / T + 1e-15)
        while t < self.t2 - eps:
            hi = min(self.t2, (k + 1) * T)
            lo_loc, hi_loc = t - k * T, hi - k * T
            cuts = [lo_loc, *(x for x in b.knots if lo_loc + eps < x < hi_loc - eps), hi_loc]
            for p0, p1 in zip(cuts[:-1], cuts[1:]):
                if p1 - p0 > eps:
                    seg = b.segments[b._interior_index(0.5 * (p0 + p1))]
                    panels.append((p0, p1, seg, k))
            t = hi
            k += 1
        rough = sum(abs((p1 - p0)) * (1.0 + abs(float(seg(0.5 * (p0 + p1)))))
                    for p0, p1, seg, _ in panels)
        budget = self.tol.quad_rel * max(rough, 1e-3)
        span = max(self.t2 - self.t1, eps)
        for p0, p1, seg, k in panels:
            shift = k * self._a_total

            def fn(ts, _seg=seg, _shift=shift):
                av = self._cum_a.values(np.asarray(ts, dtype=float)) + _shift
                return np.asarray(_seg(ts), dtype=float) * np.exp(-2.0 * av)
            total += adaptive_integral(fn, p0, p1, budget * (p1 - p0) / span)
        return total

    def lhs(self, t0: float) -> float:
        return math.exp(2.0 * self.a_cum(t0)) * self.weighted_b * self.factor2

    def sup_over_t0(self, grid: int = 256) -> tuple[float, float]:
        """(sup value, argmax t0) over the open window interior."""
        if self.factor2 <= 0.0 or self.weighted_b <= 0.0:
            return 0.0, 0.5 * (self.t1 + self.t2)
        ts = np.linspace(self.t1, self.t2, grid + 2)[1:-1]
        vals = self.a_cum_array(ts)
        i = int(np.argmax(vals))
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, ts.size - 1)]
        t_best, a_neg = golden_min(lambda t: -self.a_cum(t), lo, hi)
        a_best = -a_neg
        if vals[i] > a_best:
            t_best, a_best = float(ts[i]), float(vals[i])
        return math.exp(2.0 * a_best) * self.weighted_b * self.factor2, t_best


def lyapunov_lhs(system: ImpulsiveSystem, t1: float, t2: float, t0: float,
                 tolerances: Tolerances | None = None) -> float:
    """Product of the weighted b-integral and the positive-mass factor.

    The weight is exp(-2 * integral of a from t0 to t), handled with the
    correct sign on both sides of t0; the impulse sum is over [t1, t2) with
    periodic extension of the schedule.
    """
    if not t1 < t0 < t2:
        raise ValueError("need t1 < t0 < t2")
    tol = tolerances or DEFAULT_TOLERANCES
    return _LhsFactors(system, t1, t2, tol).lhs(t0)


def lyapunov_verify(system: ImpulsiveSystem, pair: ZeroPair,
                    tolerances: Tolerances | None = None, slack: float = 1e-6,
                    grid: int = 256) -> LyapunovWitness:
    """Evaluate the product at the witness point (the argmax of z).

    Also reports the supremum over all interior weight points; `holds` refers
    to the witness value against the bound 4 minus `slack`.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    T = system.period
    if pair.t2 - pair.t1 <= 1e-9 * max(1.0, T):
        raise ValueError("zero pair too narrow to evaluate")
    sol = pair.solution
    offset = 0.0
    t1, t2 = pair.t1, pair.t2
    if sol is None:
        k = math.floor(t1 / T + 1e-15)
        offset = k * T
        path = DensePath(system, t1 - offset, t2 - offset, tol)
        sol = RescaledSolution(path, np.array([0.0, 1.0]))
    ts = np.linspace(t1 - offset, t2 - offset, grid + 2)[1:-1]
    zs = sol.z_samples(ts)
    sign = 1.0 if float(np.max(zs)) >= -float(np.min(zs)) else -1.0
    i = int(np.argmax(sign * zs))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, ts.size - 1)]
    t_best, z_neg = golden_min(lambda t: -sign * sol.z(t), float(lo), float(hi))
    if sign * zs[i] > -z_neg:
        t_best = float(ts[i])
    t0 = t_best + offset

    factors = _LhsFactors(system, t1, t2, tol)
    lhs = factors.lhs(t0)
    lhs_sup, t0_sup = factors.sup_over_t0(grid)
    return LyapunovWitness(t0=t0, lhs=lhs, holds=lhs >= 4.0 - slack,
                           t0_sup=t0_sup, lhs_sup=lhs_sup)


def disconjugacy_test(system: ImpulsiveSystem, t1: float, t2: float,
                      tolerances: Tolerances | None = None,
                      grid: int = 256) -> DisconjugacyCheck:
    """Certify that no solution has two zeros in [t1, t2] when the supremum
    of the product over interior weight points stays below 4."""
    if t2 <= t1:
        raise ValueError("need t1 < t2")
    tol = tolerances or DEFAULT_TOLERANCES
    factors = _LhsFactors(system, t1, t2, tol)
    sup, t0 = factors.sup_over_t0(grid)
    margin = tol.strict * 4.0
    status = DISCONJUGATE_CERTIFIED if sup < 4.0 - margin else INCONCLUSIVE
    return DisconjugacyCheck(status, sup, t0)


def _zero_sites(zs: np.ndarray, ztol: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero sites of a sampled z: the first index of each run of samples with
    |z| <= ztol, and the left index of each sign change between neighbours
    that both lie outside that band."""
    flagged = np.abs(zs) <= ztol
    runs = np.flatnonzero(flagged & ~np.concatenate(([False], flagged[:-1])))
    free = ~flagged
    with np.errstate(over="ignore", under="ignore"):
        changes = np.flatnonzero(free[:-1] & free[1:] & (zs[:-1] * zs[1:] < 0.0))
    return runs, changes


def disconjugacy_oracle(system: ImpulsiveSystem, t1: float, t2: float,
                        tolerances: Tolerances | None = None,
                        directions: int = 180, samples: int = 1024) -> str:
    """Brute-force check: scan the one-parameter family of initial directions
    and count zeros of z on a dense grid; two zeros anywhere means the window
    is not disconjugate. Sound up to grid resolution."""
    if t2 <= t1:
        raise ValueError("need t1 < t2")
    tol = tolerances or DEFAULT_TOLERANCES
    T = system.period
    k = math.floor(t1 / T + 1e-15)
    s1 = t1 - k * T
    path = DensePath(system, s1, s1 + (t2 - t1), tol)
    ts = np.linspace(s1, s1 + (t2 - t1), samples + 1)
    mats, prods = path.sample_matrices(ts)
    z_basis = mats[:, 0, :] / prods[:, None]
    for j in range(directions):
        theta = math.pi * j / directions
        zs = z_basis[:, 0] * math.cos(theta) + z_basis[:, 1] * math.sin(theta)
        scale = float(np.max(np.abs(zs)))
        if scale == 0.0:
            continue
        runs, changes = _zero_sites(zs, 1e-9 * scale)
        if len(runs) + len(changes) >= 2:
            return NOT_DISCONJUGATE
    return DISCONJUGATE
