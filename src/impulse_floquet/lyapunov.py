"""Two-zero necessary condition and the disconjugacy certificate built on it.

For a solution whose first component vanishes at two consecutive times of a
window where b >= 0, the product of two window integrals (a weighted b-integral
and the positive mass of c plus positive impulse ratios) is at least 4. The
contrapositive gives a certificate: when b >= 0 and the product stays below 4 for
every choice of the interior weight point, no solution has two zeros in the window.

Zeros are those of the rescaled first component z, x divided by the running
product of impulse multipliers: continuous across impulses, with the zero set of
x. One `_zero_scan` reads them for `find_zero_pairs` and `disconjugacy_oracle`.
Where b takes one sign on a window, Sturm separation (Reid 1980; Coppel 1971)
makes it disconjugate exactly when the focal solution, zero at its start, has no
other zero in it; where b takes both signs, some solution has two zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

# adaptive_integral stays imported unused: perfbench/spans.py wraps it here.
from .piecewise import (CumulativeIntegral, PolySegment, _chebyshev_nodes, _roots_within,
                        _taylor_shift, adaptive_integral, bracketed_root, finite_values,
                        grid_golden_min, integrate_panels, integrate_periodic, knot_eps,
                        merge_knots, period_chunks, segment_rows, segments_extrema, split_period)
from .propagation import (_MAX_STEPS, DensePath, IntegrationFailureError, State,
                          _magnus_steps, _raising, _step_maps)
from .system import ImpulsiveSystem
from .tolerances import DEFAULT_TOLERANCES, Tolerances

DISCONJUGATE_CERTIFIED = "disconjugate-certified"
INCONCLUSIVE = "inconclusive"
DISCONJUGATE = "disconjugate"
NOT_DISCONJUGATE = "not-disconjugate"

_WINDOW_GRID = 256       # samples of a window for the argmax of z, of a callable a's piece for A
_B_SIGN_SAMPLES = 1024   # even reads of a callable b's sign in disconjugacy_oracle
ROOT_TOL = 1e-12         # zero location in find_zero_pairs, scaled by max(1, T)
SLACK = 1e-6             # lyapunov_verify's witness holds at a product of 4 - SLACK or more
ZERO_BAND = 1e-9         # zeros this close are one, and at an impulse; scaled by max(1, T)


@dataclass(eq=False)
class RescaledSolution:
    """Continuous (z, v) view of a solution along a dense path."""

    path: DensePath
    y0: np.ndarray

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)

    def zv(self, t: float, side: str | None = None) -> tuple[float, float]:
        M, p = self.path.at(t, side)
        y = M @ self.y0
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
    s = split_period(t, T)[1]
    return any(min(d, T - d) <= ZERO_BAND * max(1.0, T)
               for d in (abs(imp.tau - s) for imp in system.schedule.impulses))


def find_zero_pairs(system: ImpulsiveSystem, initials, window: tuple[float, float],
                    tolerances: Tolerances | None = None) -> list[ZeroPair | None]:
    """First two consecutive zeros of z in the window for each initial state, or None. The
    states share a start time, not after the window, and one `_zero_scan`: a run of sites is
    a zero at its first grid time, a sign change is bracketed on z over its grid step on the
    one dense path, built only where some state has two sites."""
    tol = tolerances or DEFAULT_TOLERANCES
    (w0, w1), T = window, system.period
    t_start = initials[0].t if initials else w0
    if any(s.t != t_start for s in initials):
        raise ValueError("initial states must share a start time")
    if not (t_start <= w0 + knot_eps(T) and w0 < w1):
        raise ValueError("window must start at or after the initial state and be nonempty")
    imp = system.impulse_at(t_start)
    y0s = {i: imp.matrix @ s.vector if s.side == "left" and imp else s.vector
           for i, s in enumerate(initials) if s.x or s.u}
    pairs: list[ZeroPair | None] = [None] * len(initials)
    if not y0s:
        return pairs
    ts, (runs, changes) = _zero_scan(system, t_start, w1, np.column_stack([*y0s.values()]), tol)
    path, xtol = None, ROOT_TOL * max(1.0, T)
    for i, run, change in zip(y0s, runs, changes):
        if np.count_nonzero(run) + np.count_nonzero(change) < 2:
            continue
        path = path or DensePath(system, t_start, w1, tol)
        sol = RescaledSolution(path, y0s[i])
        zeros = [float(ts[k]) for k in np.flatnonzero(run)]
        zeros += [bracketed_root(sol.z, ts[k], ts[k + 1], xtol) for k in np.flatnonzero(change)]
        distinct = merge_knots(sorted(z for z in zeros if z >= w0 - knot_eps(T)),
                               ZERO_BAND * max(1.0, T))
        if len(distinct) >= 2:
            pairs[i] = ZeroPair(*distinct[:2], *(_impulse_time_flags(system, t)
                                                 for t in distinct[:2]), solution=sol)
    return pairs


def find_zero_pair(system: ImpulsiveSystem, initial: State, window: tuple[float, float],
                   tolerances: Tolerances | None = None) -> ZeroPair | None:
    """`find_zero_pairs` for one initial state."""
    return find_zero_pairs(system, [initial], window, tolerances)[0]


class _LhsFactors:
    """Shared machinery for the two-factor product over a window."""

    def __init__(self, system: ImpulsiveSystem, t1: float, t2: float):
        self.system, self.t1, self.t2 = system, t1, t2
        self._cum_a = CumulativeIntegral(system.coeff_a)
        # pieces of b in the window, each with the a-integral of its whole periods
        self.b_panels = [(p0, p1, seg, k * self._cum_a.total)
                         for p0, p1, seg, k in _b_pieces(system, t1, t2)]
        self.factor2 = (integrate_periodic(system.coeff_c, t1, t2, "pos")
                        + system.schedule.ratio_sum(t1, t2, positive=True))
        self.weighted_b = self._weighted_b_integral()

    def _weighted_b_integral(self) -> float:
        """Integral of b(t) * exp(-2 * A(t)) over [t1, t2], A the running a-integral.

        integrate_panels takes its tolerance from the weighted integrand's own
        size, which a weight far from 1 cannot put out of reach."""
        b = segment_rows([p[2] for p in self.b_panels])
        shift = np.array([p[3] for p in self.b_panels])
        return integrate_panels(lambda ts, rows: b(ts, rows) * np.exp(
            -2.0 * (self._cum_a.values(ts) + shift[rows, None])), [p[:2] for p in self.b_panels])

    def lhs(self, t0: float) -> float:
        return math.exp(2.0 * self._cum_a.value(t0)) * self.weighted_b * self.factor2

    def sup_over_t0(self) -> tuple[float, float]:
        """(sup value, argmax t0) over the window, ends included: A's exact maximum, at an end, a
        knot of a or a real root of a piece (on a callable piece, a sampled and refined one)."""
        if self.factor2 <= 0.0 or self.weighted_b <= 0.0:
            return 0.0, 0.5 * (self.t1 + self.t2)
        T, ts = self.system.period, [self.t1, self.t2]
        chunks = list(period_chunks(self.t1, self.t2, T))
        for k, s0, s1 in chunks[:2] + chunks[2:][-2:]:  # A(kT + s) = k A(T) + A(s): whole periods
            for p0, p1, seg in self.system.coeff_a.pieces(s0, s1):  # peak at the first or last
                if isinstance(seg, PolySegment):
                    local = _roots_within(_taylor_shift(seg.coeffs, p0), p1 - p0)
                    ts.extend(k * T + p0 + np.array([0.0, *local]))
                else:  # the best of _WINDOW_GRID Chebyshev samples, refined by golden section
                    xs = k * T + _chebyshev_nodes(p0, p1, _WINDOW_GRID)
                    ts.append(grid_golden_min(lambda t: -self._cum_a.value(t), xs,
                                              -self._cum_a.values(xs))[0])
        A = self._cum_a.values(np.array(ts))
        return math.exp(2.0 * A.max()) * self.weighted_b * self.factor2, float(ts[np.argmax(A)])


def lyapunov_lhs(system: ImpulsiveSystem, t1: float, t2: float, t0: float) -> float:
    """Product of the weighted b-integral and the positive-mass factor.

    The weight is exp(-2 * integral of a from t0 to t), handled with the
    correct sign on both sides of t0; the impulse sum is over [t1, t2) with
    periodic extension of the schedule.
    """
    if not t1 < t0 < t2:
        raise ValueError("need t1 < t0 < t2")
    return _LhsFactors(system, t1, t2).lhs(t0)


def lyapunov_verify(system: ImpulsiveSystem, pair: ZeroPair,
                    tolerances: Tolerances | None = None) -> LyapunovWitness:
    """Evaluate the product at the witness point (the argmax of z).

    Also reports the supremum over all interior weight points; `holds` refers
    to the witness value against the bound 4 minus SLACK.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    T = system.period
    if pair.t2 - pair.t1 <= ZERO_BAND * max(1.0, T):
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

    factors = _LhsFactors(system, pair.t1, pair.t2)
    lhs = factors.lhs(t0)
    lhs_sup, t0_sup = factors.sup_over_t0()
    return LyapunovWitness(t0=t0, lhs=lhs, holds=lhs >= 4.0 - SLACK,
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
    factors = _LhsFactors(system, t1, t2)
    sup, t0 = factors.sup_over_t0()
    certified = (sup < 4.0 - tol.strict * 4.0 and system.coeff_b.is_polynomial
                 and _b_sign(factors.b_panels) in (0, 1))
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


def _b_pieces(system: ImpulsiveSystem, t1: float, t2: float) -> list:
    """(lo, hi, segment, k): the pieces of b in [t1, t2], each in its period k (cut once)."""
    cut = cache(system.coeff_b.pieces)
    return [(p0, p1, seg, k) for k, s0, s1 in period_chunks(t1, t2, system.period)
            for p0, p1, seg in cut(s0, s1)]


def _b_sign(pieces, samples=()) -> int | None:
    """1 where b >= 0 on (lo, hi, segment, ...) pieces, -1 where b <= 0, 0 where b = 0, None
    where b takes both signs; from `segments_extrema` of the distinct pieces and the samples."""
    lo, hi = segments_extrema({(p0, p1, id(s)): (p0, p1, s) for p0, p1, s, *_ in pieces}.values())
    lo, hi = float(np.min(samples, initial=lo)), float(np.max(samples, initial=hi))
    return None if lo < 0.0 < hi else -1 if lo < 0.0 else 0 if lo == hi == 0.0 else 1


def _grid_parts(system: ImpulsiveSystem, t1: float, t2: float) -> list:
    """(k, parts) for each period chunk of [t1, t2], a distinct chunk cut once: parts (q0, q1,
    seg_a, seg_b, seg_c, n, jump, (max|b|, max|c|)) cut at every knot and sign change of a
    polynomial b, n = max(1, ceil(L (max|a| + sqrt(max|b| max|c|)) / (pi/2))) steps on a part
    of length L, jump the impulse where a smooth piece starts at q0 after the chunk's start.
    On a step the angle of (w x, u / w), w^2 = sqrt(max|c| / max|b|), turns by less than pi/2
    and, b of one sign, passes the zeros of x one way only (modified Pruefer angle; Coppel
    1971): a `_zero_scan` step holds at most one (not rigorously on callables: sampled
    maxima). IntegrationFailureError past _MAX_STEPS."""
    T, cut, out = system.period, {}, []
    for k, s0, s1 in period_chunks(t1, t2, T):
        parts = cut.setdefault((s0, s1), [])
        out.append((k, parts))
        if parts:  # cut at an earlier period
            continue
        for p0, p1, *segs in system.pieces(s0, s1):
            q = _taylor_shift(segs[1].coeffs, p0) if isinstance(segs[1], PolySegment) else []
            cuts = [p0, *(p0 + r for r in _roots_within(q, p1 - p0)), p1]
            for q0, q1 in zip(cuts[:-1], cuts[1:]):
                a, b, c = (max(-lo, hi)  # max|f|
                           for lo, hi in (segments_extrema([(q0, q1, f)]) for f in segs))
                n = np.ceil((q1 - q0) * (a + math.sqrt(b) * math.sqrt(c)) / (0.5 * math.pi))
                if not n <= _MAX_STEPS:
                    raise IntegrationFailureError(f"zero scan needs {n:.0f} steps", k * T + q0)
                jump = system.impulse_at(q0) if q0 == p0 > s0 else None
                parts.append((q0, q1, *segs, max(int(n), 1), jump, (b, c)))
    return out


def _running_products(maps: np.ndarray) -> np.ndarray:
    """maps[i] @ ... @ maps[0] for each i of (n, 2, 2) maps, pairwise in about 2n products."""
    out = maps.copy()
    if len(maps) > 1:
        out[1::2] = _running_products(maps[1::2] @ maps[:-1:2])
        out[2::2] = maps[2::2] @ out[1:-1:2]
    return out


def _zero_scan(system: ImpulsiveSystem, t1: float, t2: float, states: np.ndarray,
               tol: Tolerances) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Grid times from t1 to t2 and, per column of the 2 x m (z, v) states at t1, the
    `_zero_sites` masks (m rows) of |w^2 z| <= 1e-9 |(w^2 z, v)|, a band free of the scale
    of x: w^2 of the step's part (t1: of its first step), else of the window, else
    1 / (max|b| (t2 - t1)) where c = 0. The states go through each distinct part's grid-step
    maps, normalised by a power of two at each period chunk; IntegrationFailureError where a
    state overflows."""
    T, chunks = system.period, _grid_parts(system, t1, t2)
    parts, grids, nodes = {(*p[:2], p[-2]): p for _, chunk in chunks for p in chunk}, {}, {}
    b_max, c_max = map(max, zip((0.0, 0.0), *(p[-1] for p in parts.values())))  # the window's
    wide = math.sqrt(c_max / b_max) if b_max > 0.0 < c_max else 1.0 / (b_max * (t2 - t1) or 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        done = _raising(_magnus_steps([p[:5] for p in parts.values()], tol))
        for key, (q0, q1, *segs, n, jump, (b, c)), (steps, _) in zip(parts, parts.values(), done):
            count = 1 << (n - 1).bit_length()  # at most one zero on each of these steps too
            if len(steps) < count:  # converged at fewer steps
                steps = _step_maps(segs, np.linspace(q0, q1, count + 1)[:-1], (q1 - q0) / count)
            while len(steps) > count:  # pairwise, as _magnus_steps reduces them
                steps = steps[1::2] @ steps[::2]
            if jump is not None:  # on (z, v) = (x, u) / (product of alphas), z is continuous
                steps = np.concatenate([steps[:1] @ [[1.0, 0.0], [-jump.ratio, 1.0]], steps[1:]])
            grids[key] = (steps, np.full(count, math.sqrt(c / b) if b > 0.0 < c else wide),
                          q0 + (q1 - q0) / count * np.arange(1, count + 1))
        y, zv = states, [states[None]]
        for k, chunk in chunks:
            if id(chunk) not in nodes:
                maps, w2, ts = map(np.concatenate, zip(*(grids[(*p[:2], p[-2])] for p in chunk)))
                nodes[id(chunk)] = _running_products(maps), w2, ts
            zv.append(nodes[id(chunk)][0] @ y)
            if not np.isfinite(zv[-1]).all():
                raise IntegrationFailureError("non-finite zero-scan state", k * T + chunk[0][0])
            y = np.ldexp(zv[-1][-1], -np.frexp(np.abs(zv[-1][-1]).max(axis=0))[1])
    ts = np.append(np.concatenate([[t1], *(k * T + nodes[id(c)][2] for k, c in chunks)])[:-1], t2)
    w2, zv = np.concatenate([*(nodes[id(c)][1] for _, c in chunks), [wide]]), np.concatenate(zv)
    wz = np.concatenate([w2[:1], w2[:-1]])[:, None] * zv[:, 0]  # t1: its first step's w^2
    return ts, _zero_sites((wz / np.hypot(wz, zv[:, 1])).T, 1e-9)


def disconjugacy_oracle(system: ImpulsiveSystem, t1: float, t2: float,
                        tolerances: Tolerances | None = None) -> str:
    """Not disconjugate where b takes both signs on the window, disconjugate where b is 0 on
    all of it; otherwise not disconjugate exactly when the focal solution, (x, u)(t1) = (0, 1),
    has a second zero site in `_zero_scan` (t1 the first). A callable b is also read at
    _B_SIGN_SAMPLES + 1 even times. EvaluationError at a non-finite b, IntegrationFailureError
    where the state overflows."""
    if t2 <= t1:
        raise ValueError("need t1 < t2")
    tol = tolerances or DEFAULT_TOLERANCES
    T = system.period
    _, s1 = split_period(t1, T)
    s2 = s1 + (t2 - t1)
    even = np.linspace(s1, s2, _B_SIGN_SAMPLES + 1)
    pieces = _b_pieces(system, s1, s2)
    samples = [finite_values(seg, even[(even >= k * T + p0) & (even <= k * T + p1)] - k * T)
               for p0, p1, seg, k in pieces if not isinstance(seg, PolySegment)]
    sign = _b_sign(pieces, np.concatenate([np.empty(0), *samples]))
    if sign in (None, 0):
        return NOT_DISCONJUGATE if sign is None else DISCONJUGATE
    _, sites = _zero_scan(system, s1, s2, np.array([[0.0], [1.0]]), tol)
    return NOT_DISCONJUGATE if sum(map(np.count_nonzero, sites)) >= 2 else DISCONJUGATE
