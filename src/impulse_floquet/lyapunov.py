"""Two-zero necessary condition and the disconjugacy certificate built on it.

For a solution whose first component vanishes at two consecutive times of a
window where b >= 0, the product of two window integrals (a weighted b-integral
and the positive mass of c plus positive impulse ratios) is at least 4. The
contrapositive gives a certificate: when b >= 0 and the product stays below 4 for
every choice of the interior weight point, no solution has two zeros in the window.

The continuous object scanned for zeros is the rescaled first component z,
obtained by dividing out the running product of impulse multipliers; z is
continuous across impulses and has exactly the zero set of x in the
one-sided sense, which makes sign-change bracketing on a dense grid sound.
The solution with z(t) = 0 is orthogonal to the row mapping initial states to z(t),
so a window is disconjugate exactly when that row's angle, taken mod pi, is
injective on it (the Pruefer angle; Reid 1980), whatever the sign of b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# adaptive_integral stays imported unused: perfbench/spans.py wraps it here.
from .piecewise import (CumulativeIntegral, adaptive_integral, bracketed_root, grid_golden_min,
                        integrate_panels, integrate_periodic, knot_eps, period_chunks,
                        segments_min, split_period)
from .propagation import DensePath, State
from .system import ImpulsiveSystem
from .tolerances import DEFAULT_TOLERANCES, Tolerances

DISCONJUGATE_CERTIFIED = "disconjugate-certified"
INCONCLUSIVE = "inconclusive"
DISCONJUGATE = "disconjugate"
NOT_DISCONJUGATE = "not-disconjugate"

_WINDOW_GRID = 256       # interior samples of a window for the sup over t0 and the argmax of z
_GRID_PER_PERIOD = 512   # zero-scan samples per period in find_zero_pairs
_ORACLE_SAMPLES = 1024
_FLAT_TURN = 1e-9        # oracle angle steps (rad) this small are rounding of a saturated row


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


def find_zero_pairs(system: ImpulsiveSystem, initials, window: tuple[float, float],
                    tolerances: Tolerances | None = None) -> list[ZeroPair | None]:
    """First two consecutive zeros of z in the window for each initial state, or None.

    The states share a start time, not after the window, and one dense path and grid
    sample; sign changes are refined by bracketing on the continuous z. Zeros closer
    together than the grid resolution cannot be separated.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    w0, w1 = window
    T = system.period
    t_start = initials[0].t if initials else w0
    if any(s.t != t_start for s in initials):
        raise ValueError("initial states must share a start time")
    if not (t_start <= w0 + knot_eps(T) and w0 < w1):
        raise ValueError("window must start at or after the initial state and be nonempty")
    pairs: list[ZeroPair | None] = [None] * len(initials)
    if not any(s.x or s.u for s in initials):
        return pairs
    path = DensePath(system, t_start, w1, tol)
    imp = system.impulse_at(t_start)
    n = max(64, int(math.ceil(_GRID_PER_PERIOD * (w1 - w0) / T)))
    ts = np.linspace(w0, w1, n + 1)
    mats, prods = path.sample_matrices(ts)
    xtol = tol.root * max(1.0, T)
    for i, state in enumerate(initials):
        if not (state.x or state.u):
            continue
        y0 = np.array([state.x, state.u])
        sol = RescaledSolution(path, imp.matrix @ y0 if state.side == "left" and imp else y0)
        zs = (mats[:, 0, :] @ sol.y0) / prods  # sol.z_samples(ts) from the shared sample
        scale = float(np.max(np.abs(zs)))
        if scale == 0.0:
            continue
        runs, changes = _zero_sites(zs, 1e-9 * scale)
        zeros = [float(ts[k]) for k in np.flatnonzero(runs)]
        zeros += [bracketed_root(sol.z, ts[k], ts[k + 1], xtol) for k in np.flatnonzero(changes)]
        zeros.sort()
        distinct: list[float] = []
        for z in zeros:
            if not distinct or z - distinct[-1] > 1e-9 * max(1.0, T):
                distinct.append(z)
        if len(distinct) >= 2:
            t1, t2 = distinct[0], distinct[1]
            pairs[i] = ZeroPair(t1, t2, _impulse_time_flags(system, t1),
                                _impulse_time_flags(system, t2), solution=sol)
    return pairs


def find_zero_pair(system: ImpulsiveSystem, initial: State, window: tuple[float, float],
                   tolerances: Tolerances | None = None) -> ZeroPair | None:
    """`find_zero_pairs` for one initial state."""
    return find_zero_pairs(system, [initial], window, tolerances)[0]


class _LhsFactors:
    """Shared machinery for the two-factor product over a window."""

    def __init__(self, system: ImpulsiveSystem, t1: float, t2: float, tol: Tolerances):
        self.system = system
        self.t1 = t1
        self.t2 = t2
        self.tol = tol
        self._cum_a = CumulativeIntegral(system.coeff_a, min(tol.quad_rel, 1e-12))
        # pieces of b in the window, each with the a-integral of its whole periods
        self.b_panels = [(p0, p1, seg, k * self._cum_a.total)
                         for k, s0, s1 in period_chunks(t1, t2, system.period)
                         for p0, p1, seg in system.coeff_b.pieces(s0, s1)]
        self.factor2 = (integrate_periodic(system.coeff_c, t1, t2, "pos", tol.quad_rel)
                        + system.schedule.ratio_sum(t1, t2, positive=True))
        self.weighted_b = self._weighted_b_integral()

    def _weighted_b_integral(self) -> float:
        """Integral of b(t) * exp(-2 * A(t)) over [t1, t2], A the running a-integral.

        integrate_panels takes its tolerance from the weighted integrand's own
        size, which a weight far from 1 cannot put out of reach."""
        def weighted(seg, shift):
            return lambda ts: (np.asarray(seg(ts), dtype=float)
                               * np.exp(-2.0 * (self._cum_a.values(ts) + shift)))
        return integrate_panels(((weighted(seg, shift), p0, p1)
                                 for p0, p1, seg, shift in self.b_panels), self.tol.quad_rel)

    def lhs(self, t0: float) -> float:
        return math.exp(2.0 * self._cum_a.value(t0)) * self.weighted_b * self.factor2

    def sup_over_t0(self) -> tuple[float, float]:
        """(sup value, argmax t0) over the open window interior."""
        if self.factor2 <= 0.0 or self.weighted_b <= 0.0:
            return 0.0, 0.5 * (self.t1 + self.t2)
        ts = np.linspace(self.t1, self.t2, _WINDOW_GRID + 2)[1:-1]
        t_best, a_neg = grid_golden_min(lambda t: -self._cum_a.value(t), ts,
                                        -self._cum_a.values(ts))
        return math.exp(-2.0 * a_neg) * self.weighted_b * self.factor2, t_best


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
                    tolerances: Tolerances | None = None,
                    slack: float = 1e-6) -> LyapunovWitness:
    """Evaluate the product at the witness point (the argmax of z).

    Also reports the supremum over all interior weight points; `holds` refers
    to the witness value against the bound 4 minus `slack`.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    T = system.period
    if pair.t2 - pair.t1 <= 1e-9 * max(1.0, T):
        raise ValueError("zero pair too narrow to evaluate")
    sol = pair.solution
    k, s1 = split_period(pair.t1, T) if sol is None else (0, pair.t1)
    offset = k * T
    if sol is None:  # a path from the period of t1
        sol = RescaledSolution(DensePath(system, s1, pair.t2 - offset, tol), np.array([0.0, 1.0]))
    ts = np.linspace(s1, pair.t2 - offset, _WINDOW_GRID + 2)[1:-1]
    zs = sol.z_samples(ts)
    sign = 1.0 if float(np.max(zs)) >= -float(np.min(zs)) else -1.0
    t0 = grid_golden_min(lambda t: -sign * sol.z(t), ts, -sign * zs)[0] + offset

    factors = _LhsFactors(system, pair.t1, pair.t2, tol)
    lhs = factors.lhs(t0)
    lhs_sup, t0_sup = factors.sup_over_t0()
    return LyapunovWitness(t0=t0, lhs=lhs, holds=lhs >= 4.0 - slack,
                           t0_sup=t0_sup, lhs_sup=lhs_sup)


def disconjugacy_test(system: ImpulsiveSystem, t1: float, t2: float,
                      tolerances: Tolerances | None = None) -> DisconjugacyCheck:
    """Certify that no solution has two zeros in [t1, t2] when the supremum
    of the product over interior weight points stays below 4. The bound needs
    b >= 0 on the window, decided exactly for polynomial b; a callable b, whose
    minimum is only sampled, is never certified."""
    if t2 <= t1:
        raise ValueError("need t1 < t2")
    tol = tolerances or DEFAULT_TOLERANCES
    factors = _LhsFactors(system, t1, t2, tol)
    sup, t0 = factors.sup_over_t0()
    certified = (sup < 4.0 - tol.strict * 4.0 and system.coeff_b.is_polynomial
                 and segments_min(panel[:3] for panel in factors.b_panels)[0] >= 0.0)
    return DisconjugacyCheck(DISCONJUGATE_CERTIFIED if certified else INCONCLUSIVE, sup, t0)


def _zero_sites(zs: np.ndarray, ztol: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero sites of sampled z along the last axis, as boolean masks: the first
    sample of each run with |z| <= ztol, and the left sample of each sign
    change between neighbours that both lie outside that band (one entry
    shorter)."""
    flagged = np.abs(zs) <= ztol
    starts = flagged.copy()
    starts[..., 1:] &= ~flagged[..., :-1]
    free = ~flagged
    with np.errstate(over="ignore", under="ignore"):
        changes = free[..., :-1] & free[..., 1:] & (zs[..., :-1] * zs[..., 1:] < 0.0)
    return starts, changes


def disconjugacy_oracle(system: ImpulsiveSystem, t1: float, t2: float,
                        tolerances: Tolerances | None = None) -> str:
    """Follow the angle of row(t), the first row of the rescaled fundamental matrix, on
    a dense grid: the window is disconjugate exactly when the angle never turns back and
    sweeps less than pi. A sampled turn-back or sweep of pi is a witness, so
    `not-disconjugate` holds up to the accuracy of the samples; `disconjugate` can miss a
    turn-back narrower than one grid step."""
    if t2 <= t1:
        raise ValueError("need t1 < t2")
    tol = tolerances or DEFAULT_TOLERANCES
    _, s1 = split_period(t1, system.period)
    s2 = s1 + (t2 - t1)
    path = DensePath(system, s1, s2, tol)
    ts = np.linspace(s1, s2, _ORACLE_SAMPLES + 1)
    mats, prods = path.sample_matrices(ts)
    rows = mats[:, 0, :] / prods[:, None]  # continuous across impulses, as z is
    r, w = rows[:-1], rows[1:]
    steps = np.arctan2(r[:, 0] * w[:, 1] - r[:, 1] * w[:, 0], np.sum(r * w, axis=1))
    steps = steps[np.abs(steps) > _FLAT_TURN]
    turns_back = np.any(steps < 0.0) and np.any(steps > 0.0)
    return (NOT_DISCONJUGATE if turns_back or abs(steps.sum()) >= math.pi - _FLAT_TURN
            else DISCONJUGATE)
