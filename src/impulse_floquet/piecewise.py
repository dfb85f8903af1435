"""Piecewise coefficient functions on a bounded interval.

A function on [0, domain_end] is stored as evaluators for the open segments
between sorted interior breakpoints. Values at a breakpoint are one-sided
limits, selected with a side flag. Polynomial segments (coefficients in the
global time variable, ascending degree) are the canonical representation:
they admit exact derivatives, extrema and antiderivatives. Opaque callables
are accepted, but they leave derivative-based downstream checks undecidable.

Integrals never cross a breakpoint. A polynomial panel is integrated in
closed form from its antiderivative in the local variable t - lo; for the
absolute-value and positive-part transforms it is split at the real roots of
the polynomial. Every integral without a closed form goes through one rule,
integrate_panels: callable panels, the a^2/b of the criteria, the weighted
b * exp(-2A) of the Lyapunov layer and the in-segment values of a callable's
cumulative integral. It runs adaptive Gauss-Legendre on each panel with an
absolute tolerance relative to the panels' own 15-node estimates. For the
abs and pos transforms every interior sign change of a callable is located
first (a node scan plus Brent root refinement), so each panel integrates a
smooth sign-definite integrand. One adaptive call has a budget of panel
splits; past it the open panels keep their estimate and a warning is logged.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

LEFT = "left"
RIGHT = "right"

_IDENTITY = "identity"
_ABS = "abs"
_POS = "pos"
_TRANSFORMS = (_IDENTITY, _ABS, _POS)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
# Panel splits one adaptive_integral call may make. Every integral of the test
# suite and the benchmark workloads converges without a split, and a kink
# inside a panel takes about 30.
_PANEL_BUDGET = 1 << 12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_LOG = logging.getLogger("impulse_floquet")


class EvaluationError(ValueError):
    """A segment evaluator produced a non-finite value."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


def knot_eps(T: float) -> float:
    """Knot tolerance on a period T: times closer than this are one time."""
    return 1e-12 * max(1.0, T)


def split_period(t, T: float):
    """(k, s) with t = k*T + s and s in [0, T), for a float or an ndarray t; an
    s within knot_eps(T) of 0 reads as 0 of period k, of T as 0 of period k + 1."""
    eps = knot_eps(T)
    if not isinstance(t, np.ndarray):  # math module: golden-section searches call this
        t = float(t)
        k = math.floor(t / T)
        s = t - k * T
        if s > T - eps:
            return k + 1, 0.0
        return k, (0.0 if s < eps else s)
    k = np.floor(t / T).astype(int)
    s = t - k * T
    roll = s > T - eps
    k[roll] += 1
    s[roll | (s < eps)] = 0.0
    return k, s


def period_chunks(lo: float, hi: float, T: float):
    """Walk the window [lo, hi] period by period: yields (k, s0, s1), the part
    [k*T + s0, k*T + s1] of the window in period k. The first s0 comes from
    split_period, later ones are 0; s1 is min(hi, (k+1)*T) - k*T."""
    eps = knot_eps(T)
    k, s0 = split_period(lo, T)
    t = lo
    while t < hi - eps:
        t = min(hi, (k + 1) * T)
        yield k, s0, t - k * T
        k, s0 = k + 1, 0.0


def _horner(coeffs, t):
    """Polynomial value in numpy polyval's order; t is a float or an ndarray."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _taylor_shift(coeffs, lo: float) -> list[float]:
    """Coefficients of p(lo + s) in s.

    Integrating in the shifted variable keeps the rounding at the size of a
    panel's own values: a global-time antiderivative differences two values of
    size |c_k| * t^(k+1), which on a short panel far from t = 0 loses most
    digits."""
    q = list(coeffs)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += lo * q[j + 1]
    return q


def _antiderivative(coeffs) -> tuple[float, ...]:
    return (0.0, *(c / (k + 1) for k, c in enumerate(coeffs)))


@dataclass(frozen=True)
class PolySegment:
    """Polynomial in the global time variable, coefficients ascending."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs) or (0.0,))

    def __call__(self, t):
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        return _horner(self.coeffs, t)  # polyval's result without its overhead

    def derivative(self) -> "PolySegment":
        return PolySegment(tuple(npoly.polyder(self.coeffs)))

    def antiderivative(self) -> "PolySegment":
        """The antiderivative that vanishes at t = 0."""
        return PolySegment(_antiderivative(self.coeffs))

    def scaled(self, factor: float) -> "PolySegment":
        return PolySegment(tuple(factor * c for c in self.coeffs))

    def plus_constant(self, offset: float) -> "PolySegment":
        coeffs = list(self.coeffs)
        coeffs[0] += offset
        return PolySegment(tuple(coeffs))

    def time_shifted(self, delta: float) -> "PolySegment":
        """Segment evaluating self at t + delta."""
        shifted = npoly.Polynomial(self.coeffs)(npoly.Polynomial([delta, 1.0]))
        return PolySegment(tuple(shifted.coef))


@dataclass(frozen=True, eq=False)  # equal only to itself, so hashable whatever its callable
class FuncSegment:
    """Opaque callable segment."""

    fn: Callable[[float], float]

    def __call__(self, t):
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return float(self.fn(float(t)))
        ts = np.asarray(t, dtype=float)
        try:
            out = np.asarray(self.fn(ts), dtype=float)
            if out.shape == ts.shape:
                return out
        except Exception:
            pass
        return np.array([float(self.fn(float(x))) for x in ts])

    def scaled(self, factor: float) -> "FuncSegment":
        fn = self.fn
        return FuncSegment(lambda t, _f=fn, _s=factor: _s * _f(t))

    def plus_constant(self, offset: float) -> "FuncSegment":
        fn = self.fn
        return FuncSegment(lambda t, _f=fn, _d=offset: _f(t) + _d)

    def time_shifted(self, delta: float) -> "FuncSegment":
        fn = self.fn
        return FuncSegment(lambda t, _f=fn, _d=delta: _f(t + _d))


Segment = Union[PolySegment, FuncSegment]


def _gauss(fn, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    xs = 0.5 * (hi + lo) + half * _GL_X
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the EvaluationError below
        ys = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        bad = float(xs[~np.isfinite(ys)][0])
        raise EvaluationError(f"non-finite segment value at t={bad}", t=bad)
    return half * float(_GL_W @ ys)


def adaptive_integral(fn, lo: float, hi: float, tol_abs: float,
                      whole: float | None = None) -> float:
    """Adaptive Gauss-Legendre on a smooth integrand; `fn` takes ndarray.

    Panels split depth first, each half with half the tolerance, until the two
    halves of a panel agree. After _PANEL_BUDGET splits the panels still open
    return their two-half estimate instead, and one warning is logged: rounding
    noise above the tolerance would otherwise split down to depth 48."""
    budget = [_PANEL_BUDGET]
    total = _adaptive(fn, lo, hi, tol_abs, 48, budget, whole)
    if budget[0] < 0:
        _LOG.warning("adaptive quadrature on [%r, %r] stopped after %d panel splits; "
                     "the result may miss its tolerance %.3g", lo, hi, _PANEL_BUDGET, tol_abs)
    return total


def _adaptive(fn, lo: float, hi: float, tol_abs: float, depth: int, budget: list,
              whole: float | None = None) -> float:
    if hi - lo <= 0.0:
        return 0.0
    whole = _gauss(fn, lo, hi) if whole is None else whole  # a caller may have it already
    mid = 0.5 * (lo + hi)
    halves = _gauss(fn, lo, mid) + _gauss(fn, mid, hi)
    if abs(halves - whole) <= tol_abs or depth == 0 or (hi - lo) < 1e-15 * (1.0 + abs(lo) + abs(hi)):
        return halves
    if budget[0] <= 0:
        budget[0] = -1
        return halves
    budget[0] -= 1
    return (_adaptive(fn, lo, mid, 0.5 * tol_abs, depth - 1, budget)
            + _adaptive(fn, mid, hi, 0.5 * tol_abs, depth - 1, budget))


def integrate_panels(panels, rel_tol: float) -> float:
    """Sum of the integrals of fn over [lo, hi] for (fn, lo, hi) panels.

    The absolute tolerance is rel_tol times the summed size of the panels'
    15-node estimates (at least 1e-3), so it follows the integrand's own scale,
    as in QUADPACK. Panels share it in proportion to their length, and each
    adaptive_integral call starts from its panel's estimate."""
    panels = list(panels)
    wholes = [_gauss(fn, lo, hi) for fn, lo, hi in panels]
    span = sum(hi - lo for _, lo, hi in panels)
    if span <= 0.0:
        return 0.0
    budget = rel_tol * max(sum(map(abs, wholes)), 1e-3)
    return sum(adaptive_integral(fn, lo, hi, budget * (hi - lo) / span, whole)
               for (fn, lo, hi), whole in zip(panels, wholes))


def _chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    k = np.arange(n)
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / (n - 1))
    return xs[::-1]


def _polyroots(q) -> np.ndarray:
    """npoly.polyroots without the top coefficients that would overflow its companion
    matrix (a LinAlgError); each is negligible for |t| up to 1e30 at degree 10."""
    while len(q) > 1 and (q[-1] == 0.0 or not all(math.isfinite(c / q[-1]) for c in q[:-1])):
        q = q[:-1]
    return npoly.polyroots(q)


def poly_min_on(coeffs: Sequence[float], lo: float, hi: float) -> tuple[float, float]:
    """Exact minimum of a polynomial on [lo, hi] via derivative roots; a linear
    derivative's root is taken in closed form, as npoly.polyroots returns it."""
    der = [k * c for k, c in enumerate(coeffs)][1:]  # npoly.polyder's products
    roots = []
    if len(der) == 2:
        roots = [-der[0] / der[1]] if der[1] != 0.0 else []
    elif any(d != 0.0 for d in der):
        roots = _polyroots(der)
        roots = roots[np.abs(roots.imag) < 1e-9].real
    cands = [lo, hi, *(float(r) for r in roots if lo < r < hi)]
    vals = [_horner(coeffs, t) for t in cands]
    i = min(range(len(vals)), key=vals.__getitem__)
    return float(vals[i]), float(cands[i])


def golden_min(fn, a: float, b: float) -> tuple[float, float]:
    """Golden-section search for a minimum of fn on [a, b]; returns (t, fn(t))."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        if b - a < 1e-13 * (1.0 + abs(a) + abs(b)):
            break
    t = 0.5 * (a + b)
    return t, fn(t)


def grid_golden_min(fn, xs, vals) -> tuple[float, float]:
    """Minimum of fn near its sampled minimum; vals are fn at the sorted grid xs.

    Golden-section search between the neighbours of the best sample; the sample
    itself is kept when it is strictly lower. Returns (t, fn(t))."""
    i = int(np.argmin(vals))
    t, ft = golden_min(fn, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)]))
    return (float(xs[i]), float(vals[i])) if vals[i] < ft else (t, ft)


def bracketed_root(fn, a: float, b: float, xtol: float) -> float:
    """Zero of fn in [a, b], where fn(a) and fn(b) differ in sign or one vanishes.

    Brent's method: inverse quadratic or secant steps inside the bracket,
    bisection whenever a step would not shrink it fast enough. Stops when the
    bracket is narrower than xtol + 4*eps*|x|, or after 100 evaluations.
    """
    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = float(fn(x_pre)), float(fn(x_cur))
    if f_pre == 0.0:
        return x_pre
    if f_cur != 0.0 and math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise ValueError(f"no sign change on [{a}, {b}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(100):
        if f_pre != 0.0 and f_cur != 0.0 and math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + _ROOT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        short = False
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            short = 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        if short:
            s_pre, s_cur = s_cur, trial
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = float(fn(x_cur))
    return x_cur


def sampled_min(fn, lo: float, hi: float, n: int = 129) -> tuple[float, float]:
    """Approximate minimum of a black-box function on [lo, hi]."""
    xs = _chebyshev_nodes(lo, hi, n)
    t, ft = grid_golden_min(lambda x: float(fn(x)), xs, np.asarray(fn(xs), dtype=float))
    return ft, t


def segments_min(pieces) -> tuple[float, float]:
    """(minimum, argmin) over (lo, hi, segment) pieces: exact for a PolySegment,
    sampled otherwise; a tie goes to the earliest piece."""
    best, best_at = math.inf, 0.0
    for lo, hi, seg in pieces:
        val, at = (poly_min_on(seg.coeffs, lo, hi) if isinstance(seg, PolySegment)
                   else sampled_min(seg, lo, hi))
        if val < best:
            best, best_at = val, at
    return best, best_at


@dataclass(frozen=True)
class PiecewiseFunction:
    """Real function on [0, domain_end] given by segments between breakpoints."""

    domain_end: float
    breakpoints: tuple[float, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        end = float(self.domain_end)
        if not (math.isfinite(end) and end > 0.0):
            raise ValueError("domain_end must be positive and finite")
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "domain_end", end)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(self.segments) != len(bps) + 1:
            raise ValueError(
                f"need {len(bps) + 1} segments for {len(bps)} breakpoints, got {len(self.segments)}")
        prev = 0.0
        for b in bps:
            if not (prev < b < end):
                raise ValueError(f"breakpoint {b} not strictly inside (0, {end}) in increasing order")
            prev = b

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, domain_end: float) -> "PiecewiseFunction":
        return cls(domain_end, (), (PolySegment((float(value),)),))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], domain_end: float,
                      breakpoints: Sequence[float] = ()) -> "PiecewiseFunction":
        bps = tuple(sorted(float(b) for b in breakpoints))
        segs = tuple(FuncSegment(fn) for _ in range(len(bps) + 1))
        return cls(domain_end, bps, segs)

    # -- structure ---------------------------------------------------------

    @property
    def knots(self) -> tuple[float, ...]:
        return (0.0, *self.breakpoints, self.domain_end)

    @property
    def is_polynomial(self) -> bool:
        return all(isinstance(s, PolySegment) for s in self.segments)

    def segment_index(self, t: float, side: str) -> int:
        """Index of the segment owning the one-sided limit at t."""
        eps = knot_eps(self.domain_end)
        if t < -eps or t > self.domain_end + eps:
            raise ValueError(f"t={t} outside [0, {self.domain_end}]")
        t = min(max(t, 0.0), self.domain_end)
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
        if side == LEFT and t <= eps:
            raise ValueError("left limit undefined at t=0")
        if side == RIGHT and t >= self.domain_end - eps:
            raise ValueError(f"right limit undefined at t={self.domain_end}")
        bps = self.breakpoints
        i = bisect.bisect_right(bps, t)
        if side == LEFT:
            if i > 0 and t - bps[i - 1] <= eps:
                return i - 1
            return i
        if i < len(bps) and bps[i] - t <= eps:
            return i + 1
        return i

    def eval(self, t: float, side: str | None = None) -> float:
        """One-sided value at t; side defaults to right (left at domain_end)."""
        if side is None:
            side = LEFT if t >= self.domain_end - knot_eps(self.domain_end) else RIGHT
        idx = self.segment_index(t, side)
        val = float(self.segments[idx](min(max(t, 0.0), self.domain_end)))
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite segment value at t={t}", t=t)
        return val

    __call__ = eval

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation with right-limit convention at breakpoints."""
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.domain_end)
        out = np.empty_like(ts)
        knots = self.knots
        for i, seg in enumerate(self.segments):
            lo, hi = knots[i], knots[i + 1]
            mask = (ts >= lo) & (ts < hi) if i < len(self.segments) - 1 else (ts >= lo) & (ts <= hi)
            if np.any(mask):
                out[mask] = seg(ts[mask])
        return out

    def with_breakpoints(self, points: Sequence[float]) -> "PiecewiseFunction":
        """Refined copy whose breakpoints include `points` (interior ones only)."""
        eps = knot_eps(self.domain_end)
        extra = [float(p) for p in points
                 if eps < p < self.domain_end - eps
                 and all(abs(p - b) > eps for b in self.breakpoints)]
        if not extra:
            return self
        merged = sorted((*self.breakpoints, *extra))
        segs = []
        prev = 0.0
        for b in (*merged, self.domain_end):
            mid = 0.5 * (prev + b)
            segs.append(self.segments[self._interior_index(mid)])
            prev = b
        return PiecewiseFunction(self.domain_end, tuple(merged), tuple(segs))

    def _interior_index(self, t: float) -> int:
        return bisect.bisect_right(self.breakpoints, t)

    def pieces(self, lo: float, hi: float) -> list:
        """(a, b, segment) for [lo, hi] cut at the breakpoints more than the
        knot tolerance inside it; lo and hi are taken as given."""
        eps = knot_eps(self.domain_end)
        cuts = [lo, *(b for b in self.breakpoints if lo + eps < b < hi - eps), hi]
        return [(a, b, self.segments[self._interior_index(0.5 * (a + b))])
                for a, b in zip(cuts[:-1], cuts[1:])]

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "PiecewiseFunction":
        if not self.is_polynomial:
            raise ValueError("derivative unavailable for non-polynomial segments")
        return PiecewiseFunction(self.domain_end, self.breakpoints,
                                 tuple(s.derivative() for s in self.segments))

    def __neg__(self) -> "PiecewiseFunction":
        return self.scaled(-1.0)

    def scaled(self, factor: float) -> "PiecewiseFunction":
        return self.map_segments(lambda s: s.scaled(factor))

    def plus_constant(self, offset: float) -> "PiecewiseFunction":
        return self.map_segments(lambda s: s.plus_constant(offset))

    def map_segments(self, op) -> "PiecewiseFunction":
        return PiecewiseFunction(self.domain_end, self.breakpoints,
                                 tuple(op(s) for s in self.segments))

    # -- quadrature --------------------------------------------------------

    def integrate(self, lo: float, hi: float, transform: str = _IDENTITY,
                  rel_tol: float = 1e-10) -> float:
        """Integral of transform(f) over [lo, hi] within [0, domain_end].

        transform is one of "identity", "abs" (absolute value) or "pos"
        (positive part). Panels never straddle a breakpoint; for the non-identity
        transforms they never straddle a sign change either.
        """
        if transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {transform!r}")
        eps = knot_eps(self.domain_end)
        if lo < -eps or hi > self.domain_end + eps or lo > hi + eps:
            raise ValueError(f"integration range [{lo}, {hi}] outside [0, {self.domain_end}]")
        lo = min(max(lo, 0.0), self.domain_end)
        hi = min(max(hi, 0.0), self.domain_end)
        if hi - lo <= eps:
            return 0.0

        total, panels, eps_root = 0.0, [], 1e-13 * max(1.0, self.domain_end)
        for a, b, seg in self.pieces(lo, hi):
            val = _poly_integral(seg, a, b, transform) if isinstance(seg, PolySegment) else math.nan
            if math.isfinite(val):
                total += val
            elif transform == _IDENTITY:  # callables, or the error report of a non-finite polynomial
                panels.append((seg, a, b))
            else:
                if isinstance(seg, PolySegment):  # its error report comes from the 15 nodes
                    _gauss(seg, a, b)
                for p0, p1, sgn in _sign_definite_panels(seg, a, b, eps_root):
                    if transform == _ABS:
                        panels.append((lambda ts, _seg=seg: np.abs(_seg(ts)), p0, p1))
                    elif sgn > 0:
                        panels.append((seg, p0, p1))
        return total + integrate_panels(panels, rel_tol)


def _poly_integral(seg: PolySegment, lo: float, hi: float, transform: str) -> float:
    """Integral of transform(seg) over [lo, hi] from the antiderivative in
    s = t - lo, split at the real roots for the abs and pos transforms."""
    q = _taylor_shift(seg.coeffs, lo)
    F = _antiderivative(q)
    length = hi - lo
    if transform == _IDENTITY:
        return _horner(F, length)
    vals = [_horner(F, s) for s in (0.0, *_roots_within(q, length), length)]
    parts = [b - a for a, b in zip(vals[:-1], vals[1:])]
    return sum(abs(p) for p in parts) if transform == _ABS else sum(max(p, 0.0) for p in parts)


def _roots_within(q: list[float], length: float) -> list[float]:
    """Sorted roots in (0, length) of the polynomial with coefficients q. Above
    degree two these are the real parts of all roots: a split at the real part
    of a complex root is harmless, and a double root may come out complex."""
    while len(q) > 1 and q[-1] == 0.0:
        q = q[:-1]
    if len(q) == 2:
        roots = [-q[0] / q[1]]
    elif len(q) == 3:
        disc = q[1] * q[1] - 4.0 * q[2] * q[0]
        if disc < 0.0:
            return []
        w = -0.5 * (q[1] + math.copysign(math.sqrt(disc), q[1]))  # no cancellation
        roots = [w / q[2], q[0] / w] if w != 0.0 else [0.0]
    elif len(q) > 3:
        roots = _polyroots(q).real.tolist()
    else:
        return []
    return sorted(r for r in roots if 0.0 < r < length)


def _sign_definite_panels(seg, lo: float, hi: float, eps_root: float, n: int = 33):
    """Split [lo, hi] at the sign changes of seg; yields (a, b, sign)."""
    xs = _chebyshev_nodes(lo, hi, n)
    vals = np.asarray(seg(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = float(xs[~np.isfinite(vals)][0])
        raise EvaluationError(f"non-finite segment value at t={bad}", t=bad)
    roots = []
    for i in range(n - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(float(xs[i]))
        elif v0 * v1 < 0.0:
            roots.append(bracketed_root(seg, xs[i], xs[i + 1], eps_root))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    cuts = [lo]
    for r in sorted(roots):
        if r - cuts[-1] > eps_root:
            cuts.append(r)
    if hi - cuts[-1] > eps_root:
        cuts.append(hi)
    else:
        cuts[-1] = hi
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        probes = np.linspace(a, b, 9)[1:-1]
        pv = np.asarray(seg(probes), dtype=float)
        j = int(np.argmax(np.abs(pv)))
        if abs(pv[j]) <= 1e-14 * (1.0 + scale):
            yield a, b, 0
        else:
            yield a, b, (1 if pv[j] > 0.0 else -1)


class CumulativeIntegral:
    """F(t) = integral of f from 0 to t, extended periodically: with (k, s)
    from split_period, F(k*T + s) = k*F(T) + F(s).

    A polynomial segment carries its antiderivative in the local variable
    t - lo, which gives both its contribution to the knot bases and its
    in-segment values."""

    def __init__(self, f: PiecewiseFunction, rel_tol: float = 1e-12):
        self.f = f
        self.rel_tol = rel_tol
        self._knots = knots = f.knots
        base = [0.0]
        anti = []
        for i, seg in enumerate(f.segments):
            lo, hi = knots[i], knots[i + 1]
            F = _antiderivative(_taylor_shift(seg.coeffs, lo)) if isinstance(seg, PolySegment) else None
            step = _horner(F, hi - lo) if F is not None else math.nan
            if not math.isfinite(step):  # callables, or the error report
                step = f.integrate(lo, hi, _IDENTITY, rel_tol)
            base.append(base[-1] + step)
            anti.append(F)
        self._base = base
        self._anti = anti

    @property
    def total(self) -> float:
        return self._base[-1]

    def value(self, t: float) -> float:
        k, s = split_period(t, self.f.domain_end)
        return k * self.total + self._within(s)

    def _offset(self, s, i: int):
        """s - knot i for a float or an array s, read as 0 within the knot tolerance."""
        return (s - self._knots[i]) * (s - self._knots[i] > knot_eps(self.f.domain_end))

    def _within(self, s: float) -> float:
        """F(s) for s in [0, T); an s within the knot tolerance after a knot reads as the knot."""
        i = bisect.bisect_right(self.f.breakpoints, s)
        local = self._offset(s, i)
        if local == 0.0:
            return self._base[i]
        anti = self._anti[i]
        if anti is not None:
            return self._base[i] + _horner(anti, local)
        return self._base[i] + integrate_panels([(self.f.segments[i], self._knots[i], s)],
                                                self.rel_tol)

    def values(self, ts: np.ndarray) -> np.ndarray:
        ks, ss = split_period(np.asarray(ts, dtype=float), self.f.domain_end)
        out = np.empty_like(ss)
        idx = np.searchsorted(self.f.breakpoints, ss, side="right")
        for i in set(idx.tolist()):  # the segments hit: one for the nodes of a panel
            mask, anti = idx == i, self._anti[i]
            if anti is not None:
                out[mask] = self._base[i] + _horner(anti, self._offset(ss[mask], i))
            else:
                out[mask] = [self._within(float(s)) for s in ss[mask]]
        return ks * self.total + out


def integrate_periodic(f: PiecewiseFunction, lo: float, hi: float,
                       transform: str = _IDENTITY, rel_tol: float = 1e-10) -> float:
    """Integral of transform(f) over an arbitrary window, extending f by periodicity."""
    return sum((f.integrate(s0, s1, transform, rel_tol)
                for _, s0, s1 in period_chunks(lo, hi, f.domain_end)), 0.0)
