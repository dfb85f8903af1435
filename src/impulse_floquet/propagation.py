"""Propagation of states and fundamental matrices across smooth pieces and jumps.

Between breakpoints A(t) = [[a, b], [-c, -a]] is smooth and traceless, so each
piece takes fourth-order Magnus steps (A at two Gauss nodes plus a commutator
term) whose exponential has the closed form cosh(s) I + sinh(s)/s W, s^2 = -det W
(cos and sin when s^2 < 0): every step map has determinant one, and constant
pieces are exact. A piece starts at one step and doubles the count until two
successive piece products agree within abs_tol + rel_tol * max|X|. One
builder, `_windows`, makes every window inside one period [0, T] (period maps,
dense paths, `propagate_state`, `fundamental_matrix`), and the pieces of all
the windows it is given double together: each level evaluates the coefficients
of every piece still doubling (one Horner pass over their stacked polynomial
coefficients) and makes their step maps and products in one kernel call.
`_windows` steps each distinct piece once (the same lo, hi and segment
objects), whichever windows hold it, such as the points of one sweep chunk.
Every piece doubles to its own end; a window with failing pieces raises the
failure of the earliest. Matrices at the step nodes are kept; a value between
nodes is a partial step from the nearest node (`DensePath.at`). Jumps are exact
2x2 matrix applications. Beyond one period, solutions are composed from the
period map rather than integrated.

Side conventions: an impulse strictly inside the propagation window is always
applied; an impulse at the start is applied only when the starting state
carries a left-side value; an impulse at the end is never applied, and the
result carries the left-side value there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .piecewise import LEFT, RIGHT, PolySegment, _poly_table, knot_eps, locate, split_period
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


def _maps(a1, a2, b1, b2, c1, c2, h):
    """Magnus step maps from the coefficients at the two Gauss nodes of steps of
    length h (h may be negative); values and h are floats, giving (2, 2), or
    broadcasting arrays, giving their shape + (2, 2)."""
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
    return _maps(a1, a2, b1, b2, c1, c2, h)


def _magnus_steps(pieces, tol: Tolerances) -> list:
    """Step maps and products of smooth pieces [(lo, hi, seg_a, seg_b, seg_c)].

    Every piece starts at one step and doubles its count until two successive
    products agree; all pieces still doubling share one kernel call per level.
    Entry i is (steps, product) of piece i, or the exception that stopped it.
    """
    rel = max(tol.rel_tol, _REL_FLOOR)
    lo = np.array([p[0] for p in pieces])
    span = np.array([p[1] for p in pieces]) - lo
    table = _poly_table([p[2:] for p in pieces], 3)
    callable_rows = np.array([not all(isinstance(s, PolySegment) for s in p[2:])
                              for p in pieces], dtype=bool)
    results: list = [None] * len(pieces)
    active = np.arange(len(pieces))
    prev = None
    n = 1
    while len(active) and n <= _MAX_STEPS:
        h = (span[active] / n)[:, None]
        t0 = lo[active, None] + h * np.arange(n)
        ts = np.concatenate([t0 + _GAUSS[0] * h, t0 + _GAUSS[1] * h], axis=1)
        coeffs, vals = table[:, active, :, None], 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the piece below
            for k in range(table.shape[2] - 1, -1, -1):  # Horner, as PolySegment.__call__
                vals = vals * ts + coeffs[:, :, k]
        for row in np.flatnonzero(callable_rows[active]):
            i = int(active[row])
            try:
                for j, s in enumerate(pieces[i][2:]):
                    if not isinstance(s, PolySegment):
                        vals[j, row] = s(ts[row])
            except Exception as exc:  # the piece's entry; its NaN row stops it below
                results[i] = exc
                vals[:, row] = np.nan
        (a1, b1, c1), (a2, b2, c2) = vals[..., :n], vals[..., n:]
        steps = _maps(a1, a2, b1, b2, c1, c2, h)
        X = steps
        with np.errstate(over="ignore", invalid="ignore"):  # as in _maps
            while X.shape[1] > 1:
                X = X[:, 1::2] @ X[:, ::2]
            X = X[:, 0]
            done = np.zeros(len(active), dtype=bool)
            if prev is not None:
                done = np.max(np.abs(X - prev), axis=(1, 2)) <= \
                    tol.abs_tol + rel * np.max(np.abs(X), axis=(1, 2))
        finite = np.isfinite(X).all(axis=(1, 2))
        for i in active[~finite]:
            if results[i] is None:  # not a callable's own exception
                results[i] = IntegrationFailureError("non-finite step map", pieces[i][0])
        for row in np.flatnonzero(done & finite):
            results[active[row]] = steps[row], X[row]
        keep = finite & ~done
        active, prev, n = active[keep], X[keep], 2 * n
    for i in active:
        results[i] = IntegrationFailureError(
            f"no convergence within {_MAX_STEPS} steps per piece", pieces[i][0])
    return results


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
    from the identity, or from the jump matrix at t_from when `jump_at_start`.

    Built only by `_windows`, from the window's `ImpulsiveSystem.pieces` and the
    `_magnus_steps` results of its smooth pieces in time order."""

    def __init__(self, system: ImpulsiveSystem, t_from: float, t_to: float,
                 jump_at_start: bool, spans, results):
        self.system, self.t_from, self.t_to = system, float(t_from), float(t_to)
        self._eps = eps = knot_eps(system.period)
        smooth = iter(results)
        Y, aprod = np.eye(2), 1.0
        self.pieces: list[_Piece] = []
        with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves Y non-finite
            for lo, hi, *segs in spans:
                imp = system.impulse_at(lo) if lo > t_from or jump_at_start else None
                if imp is not None:
                    Y = imp.matrix @ Y
                    aprod *= imp.alpha
                steps, X = next(smooth) if hi - lo > eps else (np.empty((0, 2, 2)), np.eye(2))
                self.pieces.append(_Piece(lo, hi, tuple(segs), steps, Y, aprod))
                Y = X @ Y
        self.end, self.aprod_end = Y, aprod
        self._starts = tuple(p.lo for p in self.pieces)

    def at(self, t: float, side: str | None = None) -> tuple[np.ndarray, float]:
        """Fundamental matrix and alpha product at t, clamped into the window; side
        None takes the left value at an impulse or the window's end, else the right."""
        eps = self._eps
        t = min(max(t, self.t_from), self.t_to)
        if side is None:
            side = LEFT if self.system.impulse_at(t) is not None or t >= self.t_to - eps else RIGHT
        p = self.pieces[locate(self._starts, t, side, eps)]
        return p.at(min(max(t, p.lo), p.hi)), p.aprod

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matrices and alpha products on a grid, each read as `at(t, "right")`."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, 2, 2))
        prods = np.empty(ts.size)
        idx = locate(self._starts, ts, RIGHT, self._eps)
        for i in set(idx.tolist()):
            mask, p = idx == i, self.pieces[i]
            out[mask] = p.at(np.clip(ts[mask], p.lo, p.hi))
            prods[mask] = p.aprod
        return out, prods


def _windows(requests, tol: Tolerances) -> list:
    """The _Window of each request (system, t_from, t_to, jump_at_start), or the
    exception of its earliest failing piece; the distinct smooth pieces of all
    requests double together in one `_magnus_steps` call, each to its own end,
    and a piece in several windows (the same lo, hi and segment objects) steps
    once. Raises unless every window lies in [0, T]."""
    spans, smooth = [], []
    for system, t_from, t_to, _ in requests:
        T, eps = system.period, knot_eps(system.period)
        if t_to > T + eps or t_from < -eps:
            raise ValueError(f"window [{t_from}, {t_to}] outside [0, {T}]")
        spans.append(system.pieces(t_from, t_to))
        smooth.append([p for p in spans[-1] if p[1] - p[0] > eps])  # shorter: the identity
    keys = [[(lo, hi, *map(id, segs)) for lo, hi, *segs in s] for s in smooth]  # spans keep ids
    distinct = dict(zip((k for ks in keys for k in ks), (p for s in smooth for p in s)))
    done = dict(zip(distinct, _magnus_steps(list(distinct.values()), tol)))
    own = [[done[k] for k in ks] for ks in keys]
    return [next((r for r in res if isinstance(r, Exception)), None)
            or _Window(*request, sp, res) for request, sp, res in zip(requests, spans, own)]


def _raising(entries: list) -> list:
    """`entries`, unless one is an exception: then the first of those is raised."""
    for entry in entries:
        if isinstance(entry, Exception):
            raise entry
    return entries


def _mat_pows(M: np.ndarray, ks) -> np.ndarray:
    """M**k for every k of `ks` (non-negative ints) as (len(ks), 2, 2), by binary
    expansion with one batched product per bit j: P_j = P_{j-1} @ P_{j-1}, and
    out = P_j @ out for each set bit in ascending order, the first taking P_j."""
    ks = np.asarray(ks, dtype=np.int64)
    out = np.tile(np.eye(2), (len(ks), 1, 1))
    started = np.zeros(len(ks), dtype=bool)
    P = M
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as inf/nan
        for j in range(int(ks.max(initial=0)).bit_length()):
            bit = (ks >> j) & 1 == 1
            out[bit & started] = P @ out[bit & started]
            out[bit & ~started] = P
            started |= bit
            P = P @ P
    return out


class DensePath:
    """Dense fundamental solution over [t_start, t_end], any number of periods.

    The first (partial) period is integrated directly; later times compose the
    in-period dense basis with powers of the period map. A time outside
    [t_start, t_end] raises ValueError.
    """

    def __init__(self, system: ImpulsiveSystem, t_start: float, t_end: float,
                 tol: Tolerances | None = None):
        tol = tol or DEFAULT_TOLERANCES
        T = system.period
        eps = knot_eps(T)
        if not -eps <= t_start <= T + eps:
            raise ValueError(f"t_start={t_start} must lie in [0, {T}]")
        if t_end < t_start - eps:
            raise ValueError("t_end before t_start")
        self.system, self.t_start, self.t_end, self._eps = system, float(t_start), float(t_end), eps
        requests = [(system, t_start, min(t_end, T), False)]
        if t_end > T + eps and abs(t_start) > eps:  # past T, a cycle [0, T] unless the head is one
            requests.append((system, 0.0, T, False))
        windows = _raising(_windows(requests, tol))
        self.head, self.cycle = windows[0], (windows[-1] if t_end > T + eps else None)

    def _check(self, *ts: float) -> None:
        for t in ts:
            if t < self.t_start - self._eps or t > self.t_end + self._eps:
                raise ValueError(f"t={t} outside path window")

    def at(self, t: float, side: str | None = None) -> tuple[np.ndarray, float]:
        """Matrix and alpha product at t (side as in `_Window.at`), bit for bit as on a grid."""
        self._check(t)
        if t <= self.head.t_to + self._eps:
            return self.head.at(t, side)
        k, s = split_period(t, self.system.period)
        with np.errstate(over="ignore", invalid="ignore"):
            base = _mat_pows(self.cycle.end, [k - 1])[0] @ self.head.end
            prod = self.head.aprod_end * (self.cycle.aprod_end ** np.array([k - 1]))[0]
            if s == 0.0 and side in (None, LEFT):
                return base, prod
            M, p = self.cycle.at(s, side)
            return M @ base, prod * p

    def matrix(self, t: float, side: str | None = None) -> np.ndarray:
        return self.at(t, side)[0]

    def alpha_product(self, t: float, side: str | None = None) -> float:
        return self.at(t, side)[1]

    def eval_state(self, t: float, y0: np.ndarray, side: str | None = None) -> np.ndarray:
        return self.at(t, side)[0] @ np.asarray(y0, dtype=float)

    def sample_matrices(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matrices (n,2,2) and alpha products (n,) on a sorted grid."""
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            self._check(ts.min(), ts.max())
        out = np.empty((ts.size, 2, 2))
        prods = np.empty(ts.size)
        head_mask = ts <= self.head.t_to + self._eps
        if np.any(head_mask):
            out[head_mask], prods[head_mask] = self.head.sample(
                np.minimum(ts[head_mask], self.head.t_to))
        rest = ~head_mask
        if np.any(rest):
            ks, ss = split_period(ts[rest], self.system.period)
            periods, which = np.unique(ks, return_inverse=True)
            times, at = np.unique(ss, return_inverse=True)  # each in-period time stepped once
            vals, pr = self.cycle.sample(times)
            with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as inf/nan
                bases = _mat_pows(self.cycle.end, periods - 1) @ self.head.end
                powers = self.cycle.aprod_end ** (periods - 1)
                out[rest] = vals[at] @ bases[which]
                prods[rest] = self.head.aprod_end * powers[which] * pr[at]
        return out, prods


def propagate_state(system: ImpulsiveSystem, state: State, t_to: float,
                    tolerances: Tolerances | None = None) -> State:
    """Advance a state to t_to within one period window.

    An impulse at state.t is applied only if the state carries the left-side
    value; an impulse exactly at t_to is not applied (the result carries the
    left-side value there).
    """
    tol = tolerances or DEFAULT_TOLERANCES
    eps = knot_eps(system.period)
    if t_to < state.t - eps:
        raise ValueError("t_to must not precede the state time")
    (window,) = _raising(_windows([(system, state.t, t_to, state.side == LEFT)], tol))
    if abs(t_to - state.t) <= eps:
        return state
    y = window.end @ state.vector
    side = LEFT if system.impulse_at(t_to) is not None else RIGHT
    return State(t_to, float(y[0]), float(y[1]), side)


def fundamental_matrix(system: ImpulsiveSystem, t_from: float, t_to: float,
                       tolerances: Tolerances | None = None) -> FundamentalMatrix:
    """Basis-solution matrix over [t_from, t_to] (identity at t_from)."""
    tol = tolerances or DEFAULT_TOLERANCES
    if t_to < t_from:
        raise ValueError("t_to must not precede t_from")
    (window,) = _raising(_windows([(system, t_from, t_to, False)], tol))
    return FundamentalMatrix(window.end, t_from, t_to)


def _period_map(system: ImpulsiveSystem, X: np.ndarray, tol: Tolerances) -> MonodromyResult:
    trace = float(X[0, 0] + X[1, 1])
    det_prod = system.schedule.alpha_sq_product
    with np.errstate(over="ignore", invalid="ignore"):  # the cross-check may be inf; det is exact
        det_int = float(np.linalg.det(X))
    mult = floquet_multipliers(trace, det_prod)
    err = 10.0 * (tol.abs_tol + tol.rel_tol * float(np.linalg.norm(X, 2)))
    return MonodromyResult(matrix=X, period=system.period, trace=trace, det=det_prod,
                           det_integrated=det_int, multipliers=mult,
                           error_estimate=err, tolerances=tol)


def monodromies(systems, tolerances: Tolerances | None = None) -> list:
    """Period maps of many systems, their smooth pieces doubling together in one
    kernel call per level.

    Entry i is the MonodromyResult of systems[i], or the InvalidSystemError or
    IntegrationFailureError (or the exception of a callable coefficient) that
    `monodromy(systems[i])` raises.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    out: list = [InvalidSystemError(v) if v else None for v in map(validate_system, systems)]
    valid = [i for i, entry in enumerate(out) if entry is None]
    windows = _windows([(systems[i], 0.0, systems[i].period, False) for i in valid], tol)
    for i, window in zip(valid, windows):
        if isinstance(window, Exception):
            out[i] = window
        elif not np.isfinite(window.end).all():  # finite pieces, overflowing product
            out[i] = IntegrationFailureError("non-finite period map", max(
                p.lo for p in window.pieces if np.isfinite(p.start).all()))
        else:
            out[i] = _period_map(systems[i], window.end, tol)
    return out


def monodromy(system: ImpulsiveSystem, tolerances: Tolerances | None = None) -> MonodromyResult:
    """Period map, trace, determinant and characteristic roots.

    The determinant used in the characteristic polynomial is the exact
    impulse product; the integrated determinant is retained as a cross-check.
    """
    return _raising(monodromies([system], tolerances))[0]
