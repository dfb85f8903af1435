"""Propagation of states and fundamental matrices across smooth pieces and jumps.

Between breakpoints A(t) = [[a, b], [-c, -a]] is smooth and traceless, so each
piece takes fourth-order Magnus steps (A at two Gauss nodes plus a commutator
term) whose exponential has the closed form cosh(s) I + sinh(s)/s W, s^2 = -det W
(cos and sin when s^2 < 0): every step map has determinant one, and constant
pieces are exact. A piece starts at one step and doubles the count until two
successive piece products agree within abs_tol + rel_tol * max|X|. Matrices at
the step nodes are kept; a value between nodes is a partial step from the
nearest node. Jumps are exact 2x2 matrix applications. Beyond one period,
solutions are composed from the period map rather than integrated.

Side conventions: an impulse strictly inside the propagation window is always
applied; an impulse at the start is applied only when the starting state
carries a left-side value; an impulse at the end is never applied, and the
result carries the left-side value there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .piecewise import LEFT, RIGHT
from .system import ImpulsiveSystem, InvalidSystemError, validate_system
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0
_MAX_STEPS = 1 << 16  # per smooth piece
_REL_FLOOR = 100.0 * np.finfo(float).eps


class IntegrationFailureError(RuntimeError):
    """The propagator ran out of steps or produced a non-finite state."""

    def __init__(self, message: str, t_last: float):
        super().__init__(f"{message} (last good t={t_last})")
        self.t_last = t_last


@dataclass(frozen=True)
class State:
    t: float
    x: float
    u: float
    side: str = RIGHT

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.u])


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Columns are the basis solutions started as the identity at t_from."""

    matrix: np.ndarray
    t_from: float
    t_to: float

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """Period map with its trace, determinant and characteristic roots.

    `det` is the exact impulse product (the value used in the characteristic
    polynomial); `det_integrated` is the determinant of the integrated matrix,
    kept as a cross-check of integration quality.
    """

    matrix: np.ndarray
    period: float
    trace: float
    det: float
    det_integrated: float
    multipliers: tuple[complex, complex]
    error_estimate: float
    tolerances: Tolerances


def floquet_multipliers(trace: float, det: float) -> tuple[complex, complex]:
    """Roots of rho^2 - trace*rho + det, larger magnitude first."""
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        r1 = 0.5 * (trace + s) if trace >= 0.0 else 0.5 * (trace - s)
        if r1 == 0.0:
            return complex(0.0), complex(0.0)
        return complex(r1), complex(det / r1)
    im = 0.5 * math.sqrt(-disc)
    re = 0.5 * trace
    return complex(re, im), complex(re, -im)


def _exp_factors(d):
    """(ch, sh) with exp(W) = ch*I + sh*W for traceless W, W @ W = d*I; `d` is a
    float (math module, for cheap single evaluations) or an array."""
    series = (1.0 + d * (1.0 / 2 + d * (1.0 / 24 + d * (1.0 / 720 + d / 40320))),
              1.0 + d * (1.0 / 6 + d * (1.0 / 120 + d * (1.0 / 5040 + d / 362880))))
    if np.ndim(d) == 0 and -math.inf < d < 5e5:  # cosh stays finite
        if abs(d) < 1e-2:
            return series
        s = math.sqrt(abs(d))
        return (math.cosh(s), math.sinh(s) / s) if d > 0 else (math.cos(s), math.sin(s) / s)
    small = np.abs(d) < 1e-2
    if small.all():  # the usual case once steps are short: skip cosh, cos, sinh and sin
        return series
    s = np.sqrt(np.abs(d))
    return (np.where(small, series[0], np.where(d > 0, np.cosh(s), np.cos(s))),
            np.where(small, series[1], np.where(d > 0, np.sinh(s), np.sin(s)) / s))


def _step_maps(segs, t0, h):
    """Magnus step maps over [t0, t0 + h]; t0 and h are floats or arrays, h may
    be negative. Returns (2, 2) for floats and (n, 2, 2) for arrays."""
    t1 = t0 + _GAUSS[0] * h
    t2 = t0 + _GAUSS[1] * h
    if np.ndim(t1) == 0:
        (a1, a2), (b1, b2), (c1, c2) = ((float(s(t1)), float(s(t2))) for s in segs)
    else:
        ts, n = np.concatenate([t1, t2]), len(t1)
        (a1, a2), (b1, b2), (c1, c2) = ((v[:n], v[n:]) for v in (s(ts) for s in segs))
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite map
        k = _COMMUTATOR * h * h
        p = 0.5 * h * (a1 + a2) + k * (b1 * c2 - b2 * c1)
        q = 0.5 * h * (b1 + b2) + 2.0 * k * (a2 * b1 - a1 * b2)
        r = 2.0 * k * (a2 * c1 - a1 * c2) - 0.5 * h * (c1 + c2)
        ch, sh = _exp_factors(p * p + q * r)
        E = np.empty(np.shape(ch) + (2, 2))
        E[..., 0, 1] = sh * q
        E[..., 1, 0] = sh * r
        # ch and sh*p cancel in one diagonal entry; once the other exceeds one,
        # det E = 1 gives the small entry as (1 + sh^2 q r) / big instead.
        up, down = ch + sh * p, ch - sh * p
        mag_up, mag_down = np.abs(up), np.abs(down)
        unit = 1.0 + E[..., 0, 1] * E[..., 1, 0]
        E[..., 0, 0] = np.where(mag_down > np.maximum(mag_up, 1.0), unit / down, up)
        E[..., 1, 1] = np.where(mag_up > np.maximum(mag_down, 1.0), unit / up, down)
    return E


def _magnus_steps(segs, lo: float, hi: float, tol: Tolerances):
    """Step maps over [lo, hi] and their product, doubling the count from one."""
    rel = max(tol.rel_tol, _REL_FLOOR)
    prev, n = None, 1
    while n <= _MAX_STEPS:
        h = (hi - lo) / n
        steps = _step_maps(segs, lo + h * np.arange(n), h)
        X = steps
        while len(X) > 1:
            X = X[1::2] @ X[::2]
        X = X[0]
        if not np.all(np.isfinite(X)):
            raise IntegrationFailureError("non-finite step map", lo)
        if prev is not None and np.max(np.abs(X - prev)) <= tol.abs_tol + rel * np.max(np.abs(X)):
            return steps, X
        prev = X
        n *= 2
    raise IntegrationFailureError(f"no convergence within {_MAX_STEPS} steps per piece", lo)


@dataclass(eq=False)
class _Piece:
    """Step maps of one smooth piece, its starting matrix and its alpha product."""

    lo: float
    hi: float
    segs: tuple
    steps: np.ndarray  # (n, 2, 2); n = 0 for a zero-length piece
    start: np.ndarray
    aprod: float

    @cached_property
    def nodes(self) -> np.ndarray:
        """Fundamental matrices at the step nodes lo + i*h, i = 0..n."""
        P = np.concatenate([np.eye(2)[None], self.steps])
        k = 1
        while k < len(P):
            P[k:] = P[k:] @ P[:-k]
            k *= 2
        return P @ self.start

    def at(self, t):
        """Fundamental matrix at t (a float or an array) within the piece."""
        n = len(self.steps)
        if n == 0:
            return np.array(self.start)  # zero-length piece
        h = (self.hi - self.lo) / n
        j = (min(max(round((t - self.lo) / h), 0), n) if np.ndim(t) == 0
             else np.clip(np.rint((t - self.lo) / h).astype(int), 0, n))
        t0 = self.lo + j * h
        return _step_maps(self.segs, t0, t - t0) @ self.nodes[j]


class _Window:
    """Fundamental solution over [t_from, t_to] inside one period, starting
    from the identity, or from the jump matrix at t_from when `jump_at_start`."""

    def __init__(self, system: ImpulsiveSystem, t_from: float, t_to: float,
                 tol: Tolerances, jump_at_start: bool = False):
        self.system, self.t_from, self.t_to = system, float(t_from), float(t_to)
        self._eps = eps = 1e-12 * max(1.0, system.period)
        Y, aprod = np.eye(2), 1.0
        self.pieces: list[_Piece] = []
        bounds = [t_from, *system.interior_knots(t_from, t_to), t_to]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            imp = system.impulse_at(lo) if lo > t_from or jump_at_start else None
            if imp is not None:
                Y = imp.matrix @ Y
                aprod *= imp.alpha
            segs = system.segment_evaluators(0.5 * (lo + hi))
            steps, X = (_magnus_steps(segs, lo, hi, tol) if hi - lo > eps
                        else (np.empty((0, 2, 2)), np.eye(2)))
            self.pieces.append(_Piece(lo, hi, segs, steps, Y, aprod))
            Y = X @ Y
        self.end, self.aprod_end = Y, aprod
        self._starts = [p.lo for p in self.pieces]

    def _locate(self, t: float, side: str | None) -> _Piece:
        eps = self._eps
        if t < self.t_from - eps or t > self.t_to + eps:
            raise ValueError(f"t={t} outside trajectory window [{self.t_from}, {self.t_to}]")
        t = min(max(t, self.t_from), self.t_to)
        i = max(bisect.bisect_right(self._starts, t) - 1, 0)
        if side is None:
            side = LEFT if self.system.impulse_at(t) is not None or t >= self.t_to - eps else RIGHT
        if side == LEFT and i > 0 and t - self._starts[i] <= eps:
            i -= 1
        if side == RIGHT and i < len(self.pieces) - 1 and self.pieces[i].hi - t <= eps:
            i += 1
        return self.pieces[i]

    def eval(self, t: float, side: str | None = None) -> np.ndarray:
        p = self._locate(t, side)
        return p.at(min(max(t, p.lo), p.hi))

    def alpha_product(self, t: float, side: str | None = None) -> float:
        return self._locate(t, side).aprod

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matrices and alpha products on a grid (right-limit convention)."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, 2, 2))
        prods = np.empty(ts.size)
        eps = self._eps
        for j, p in enumerate(self.pieces):
            mask = (ts >= p.lo - (eps if j == 0 else 0.0)) & \
                   ((ts <= p.hi + eps) if j == len(self.pieces) - 1 else (ts < p.hi))
            if np.any(mask):
                out[mask] = p.at(np.clip(ts[mask], p.lo, p.hi))
                prods[mask] = p.aprod
        return out, prods


def _mat_pow(M: np.ndarray, k: int, cache: list[np.ndarray]) -> np.ndarray:
    """M**k by binary expansion; cache holds M**(2**j)."""
    out = None
    j = 0
    while (1 << j) <= k:
        if len(cache) <= j:
            cache.append(cache[j - 1] @ cache[j - 1])
        if k & (1 << j):
            out = cache[j] if out is None else cache[j] @ out
        j += 1
    return np.eye(2) if out is None else out


class DensePath:
    """Dense fundamental solution over [t_start, t_end], any number of periods.

    The first (partial) period is integrated directly; later times compose the
    in-period dense basis with powers of the period map.
    """

    def __init__(self, system: ImpulsiveSystem, t_start: float, t_end: float,
                 tol: Tolerances | None = None):
        tol = tol or DEFAULT_TOLERANCES
        T = system.period
        eps = 1e-12 * max(1.0, T)
        if not -eps <= t_start <= T + eps:
            raise ValueError(f"t_start={t_start} must lie in [0, {T}]")
        if t_end < t_start - eps:
            raise ValueError("t_end before t_start")
        self.system, self.t_start, self.t_end, self._eps = system, float(t_start), float(t_end), eps
        self.head = _Window(system, t_start, min(t_end, T), tol)
        self.cycle = None
        self._pow_cache: list[np.ndarray] = []
        if t_end > T + eps:
            self.cycle = self.head if abs(t_start) <= eps else _Window(system, 0.0, T, tol)
            self._pow_cache = [self.cycle.end]

    def _split(self, t: float) -> tuple[int, float]:
        T = self.system.period
        k = math.floor(t / T)
        s = t - k * T
        if s > T - self._eps:
            k += 1
            s = 0.0
        elif s < self._eps:
            s = 0.0
        return k, s

    def matrix(self, t: float, side: str | None = None) -> np.ndarray:
        if t < self.t_start - self._eps or t > self.t_end + self._eps:
            raise ValueError(f"t={t} outside path window")
        if t <= self.head.t_to + self._eps:
            return self.head.eval(min(t, self.head.t_to), side)
        k, s = self._split(t)
        base = _mat_pow(self._pow_cache[0], k - 1, self._pow_cache) @ self.head.end
        if s == 0.0 and side in (None, LEFT):
            return base
        return self.cycle.eval(s, side) @ base

    def alpha_product(self, t: float, side: str | None = None) -> float:
        if t <= self.head.t_to + self._eps:
            return self.head.alpha_product(min(t, self.head.t_to), side)
        k, s = self._split(t)
        prod = self.head.aprod_end * self.cycle.aprod_end ** (k - 1)
        if s == 0.0 and side in (None, LEFT):
            return prod
        return prod * self.cycle.alpha_product(s, side)

    def eval_state(self, t: float, y0: np.ndarray, side: str | None = None) -> np.ndarray:
        return self.matrix(t, side) @ np.asarray(y0, dtype=float)

    def sample_matrices(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matrices (n,2,2) and alpha products (n,) on a sorted grid."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, 2, 2))
        prods = np.empty(ts.size)
        eps = self._eps
        head_mask = ts <= self.head.t_to + eps
        if np.any(head_mask):
            out[head_mask], prods[head_mask] = self.head.sample(
                np.minimum(ts[head_mask], self.head.t_to))
        rest = ~head_mask
        if np.any(rest):
            T = self.system.period
            ks = np.floor(ts[rest] / T + eps / T).astype(int)
            ss = ts[rest] - ks * T
            ss[ss < eps] = 0.0
            periods, which = np.unique(ks, return_inverse=True)
            bases = np.array([_mat_pow(self._pow_cache[0], int(k) - 1, self._pow_cache)
                              for k in periods]) @ self.head.end
            vals, pr = self.cycle.sample(ss)
            out[rest] = vals @ bases[which]
            prods[rest] = self.head.aprod_end * self.cycle.aprod_end ** (periods[which] - 1) * pr
        return out, prods


def propagate_state(system: ImpulsiveSystem, state: State, t_to: float,
                    tolerances: Tolerances | None = None) -> State:
    """Advance a state to t_to within one period window.

    An impulse at state.t is applied only if the state carries the left-side
    value; an impulse exactly at t_to is not applied (the result carries the
    left-side value there).
    """
    tol = tolerances or DEFAULT_TOLERANCES
    T = system.period
    eps = 1e-12 * max(1.0, T)
    if t_to < state.t - eps:
        raise ValueError("t_to must not precede the state time")
    if t_to > T + eps or state.t < -eps:
        raise ValueError(f"window [{state.t}, {t_to}] outside [0, {T}]")
    if abs(t_to - state.t) <= eps:
        return state
    y = _Window(system, state.t, t_to, tol, jump_at_start=(state.side == LEFT)).end @ state.vector
    side = LEFT if system.impulse_at(t_to) is not None else RIGHT
    return State(t_to, float(y[0]), float(y[1]), side)


def fundamental_matrix(system: ImpulsiveSystem, t_from: float, t_to: float,
                       tolerances: Tolerances | None = None) -> FundamentalMatrix:
    """Basis-solution matrix over [t_from, t_to] (identity at t_from)."""
    tol = tolerances or DEFAULT_TOLERANCES
    if t_to < t_from:
        raise ValueError("t_to must not precede t_from")
    return FundamentalMatrix(_Window(system, t_from, t_to, tol).end, t_from, t_to)


def monodromy(system: ImpulsiveSystem, tolerances: Tolerances | None = None) -> MonodromyResult:
    """Period map, trace, determinant and characteristic roots.

    The determinant used in the characteristic polynomial is the exact
    impulse product; the integrated determinant is retained as a cross-check.
    """
    violations = validate_system(system)
    if violations:
        raise InvalidSystemError(violations)
    tol = tolerances or DEFAULT_TOLERANCES
    X = fundamental_matrix(system, 0.0, system.period, tol).matrix
    trace = float(X[0, 0] + X[1, 1])
    det_prod = system.schedule.alpha_sq_product
    det_int = float(np.linalg.det(X))
    mult = floquet_multipliers(trace, det_prod)
    err = 10.0 * (tol.abs_tol + tol.rel_tol * float(np.linalg.norm(X, 2)))
    return MonodromyResult(matrix=X, period=system.period, trace=trace, det=det_prod,
                           det_integrated=det_int, multipliers=mult,
                           error_estimate=err, tolerances=tol)
