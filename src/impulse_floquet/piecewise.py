"""Piecewise coefficient functions on a bounded interval.

A function on [0, domain_end] is stored as evaluators for the open segments
between sorted interior breakpoints. Values at a breakpoint are one-sided
limits, selected with a side flag. Polynomial segments (coefficients in the
global time variable, ascending degree) are the canonical representation:
they admit exact derivatives, extrema and antiderivatives. Opaque callables
are accepted, but they leave derivative-based downstream checks undecidable.

The quadrature here is breakpoint-aware adaptive Gauss-Legendre. For the
absolute-value and positive-part transforms, every interior sign change is
located first (bracketing plus Brent root refinement per segment), so each panel
integrates a smooth sign-definite integrand.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

LEFT = "left"
RIGHT = "right"

POLYNOMIAL = "polynomial"
CALLABLE_SMOOTH = "callable-smooth"
CALLABLE_UNKNOWN = "callable-unknown"

_IDENTITY = "identity"
_ABS = "abs"
_POS = "pos"
_TRANSFORMS = (_IDENTITY, _ABS, _POS)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ROOT_RTOL = 4.0 * np.finfo(float).eps


class EvaluationError(ValueError):
    """A segment evaluator produced a non-finite value."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class PolySegment:
    """Polynomial in the global time variable, coefficients ascending."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs) or (0.0,))

    @property
    def smoothness(self) -> str:
        return POLYNOMIAL

    def __call__(self, t):
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        out = 0.0
        for c in reversed(self.coeffs):  # Horner, in numpy polyval's order, minus its overhead
            out = out * t + c
        return out

    def derivative(self) -> "PolySegment":
        return PolySegment(tuple(npoly.polyder(self.coeffs)))

    def antiderivative(self) -> "PolySegment":
        return PolySegment(tuple(npoly.polyint(self.coeffs)))

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

    def negated(self) -> "PolySegment":
        return self.scaled(-1.0)


@dataclass(frozen=True)
class FuncSegment:
    """Opaque callable segment; `smooth` declares continuous differentiability."""

    fn: Callable[[float], float]
    smooth: bool = True

    @property
    def smoothness(self) -> str:
        return CALLABLE_SMOOTH if self.smooth else CALLABLE_UNKNOWN

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
        return FuncSegment(lambda t, _f=fn, _s=factor: _s * _f(t), self.smooth)

    def plus_constant(self, offset: float) -> "FuncSegment":
        fn = self.fn
        return FuncSegment(lambda t, _f=fn, _d=offset: _f(t) + _d, self.smooth)

    def time_shifted(self, delta: float) -> "FuncSegment":
        fn = self.fn
        return FuncSegment(lambda t, _f=fn, _d=delta: _f(t + _d), self.smooth)

    def negated(self) -> "FuncSegment":
        return self.scaled(-1.0)


Segment = Union[PolySegment, FuncSegment]


def _gauss(fn, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    xs = 0.5 * (hi + lo) + half * _GL_X
    ys = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        bad = float(xs[~np.isfinite(ys)][0])
        raise EvaluationError(f"non-finite segment value at t={bad}", t=bad)
    return half * float(_GL_W @ ys)


def adaptive_integral(fn, lo: float, hi: float, tol_abs: float, _depth: int = 48) -> float:
    """Adaptive Gauss-Legendre on a smooth integrand; `fn` takes ndarray."""
    if hi - lo <= 0.0:
        return 0.0
    whole = _gauss(fn, lo, hi)
    mid = 0.5 * (lo + hi)
    halves = _gauss(fn, lo, mid) + _gauss(fn, mid, hi)
    if abs(halves - whole) <= tol_abs or _depth == 0 or (hi - lo) < 1e-15 * (1.0 + abs(lo) + abs(hi)):
        return halves
    return (adaptive_integral(fn, lo, mid, 0.5 * tol_abs, _depth - 1)
            + adaptive_integral(fn, mid, hi, 0.5 * tol_abs, _depth - 1))


def _chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    k = np.arange(n)
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / (n - 1))
    return xs[::-1]


def poly_min_on(coeffs: Sequence[float], lo: float, hi: float) -> tuple[float, float]:
    """Exact minimum of a polynomial on [lo, hi] via derivative roots."""
    cands = [lo, hi]
    der = npoly.polyder(coeffs)
    if len(der) and np.any(np.asarray(der) != 0.0):
        roots = npoly.polyroots(der)
        real = roots[np.abs(roots.imag) < 1e-9].real
        cands.extend(float(r) for r in real if lo < r < hi)
    vals = npoly.polyval(np.asarray(cands), coeffs)
    i = int(np.argmin(vals))
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
    vals = np.asarray(fn(xs), dtype=float)
    i = int(np.argmin(vals))
    t, ft = golden_min(lambda x: float(fn(x)), xs[max(i - 1, 0)], xs[min(i + 1, n - 1)])
    return min(float(vals[i]), ft), t


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
                      breakpoints: Sequence[float] = (), smooth: bool = True) -> "PiecewiseFunction":
        bps = tuple(sorted(float(b) for b in breakpoints))
        segs = tuple(FuncSegment(fn, smooth) for _ in range(len(bps) + 1))
        return cls(domain_end, bps, segs)

    # -- structure ---------------------------------------------------------

    @property
    def knots(self) -> tuple[float, ...]:
        return (0.0, *self.breakpoints, self.domain_end)

    @property
    def is_polynomial(self) -> bool:
        return all(isinstance(s, PolySegment) for s in self.segments)

    def _eps(self) -> float:
        return 1e-12 * max(1.0, self.domain_end)

    def segment_index(self, t: float, side: str) -> int:
        """Index of the segment owning the one-sided limit at t."""
        eps = self._eps()
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
            side = LEFT if t >= self.domain_end - self._eps() else RIGHT
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
        eps = self._eps()
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

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "PiecewiseFunction":
        if not self.is_polynomial:
            raise ValueError("derivative unavailable for non-polynomial segments")
        return PiecewiseFunction(self.domain_end, self.breakpoints,
                                 tuple(s.derivative() for s in self.segments))

    def __neg__(self) -> "PiecewiseFunction":
        return self.map_segments(lambda s: s.negated())

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
        eps = self._eps()
        if lo < -eps or hi > self.domain_end + eps or lo > hi + eps:
            raise ValueError(f"integration range [{lo}, {hi}] outside [0, {self.domain_end}]")
        lo = min(max(lo, 0.0), self.domain_end)
        hi = min(max(hi, 0.0), self.domain_end)
        if hi - lo <= eps:
            return 0.0

        pieces = []
        prev = lo
        for b in self.breakpoints:
            if lo + eps < b < hi - eps:
                pieces.append((prev, b))
                prev = b
        pieces.append((prev, hi))

        rough = 0.0
        panels = []  # (lo, hi, segment, sign or None)
        for a, b in pieces:
            seg = self.segments[self._interior_index(0.5 * (a + b))]
            rough += abs(_gauss(seg, a, b))
            if transform == _IDENTITY:
                panels.append((a, b, seg, None))
            else:
                for a2, b2, sgn in _sign_definite_panels(seg, a, b, eps_root=1e-13 * max(1.0, self.domain_end)):
                    panels.append((a2, b2, seg, sgn))

        budget = rel_tol * max(rough, 1e-3)
        span = hi - lo
        total = 0.0
        for a, b, seg, sgn in panels:
            if b - a <= 0.0:
                continue
            val = adaptive_integral(seg, a, b, budget * (b - a) / span)
            if transform == _IDENTITY:
                total += val
            elif transform == _ABS:
                total += abs(val) if sgn == 0 else sgn * val
            else:  # positive part
                if sgn > 0:
                    total += val
        return total

    def cumulative(self, rel_tol: float = 1e-12) -> "CumulativeIntegral":
        return CumulativeIntegral(self, rel_tol)


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
    """F(t) = integral of f from 0 to t, with fast in-segment evaluation."""

    def __init__(self, f: PiecewiseFunction, rel_tol: float = 1e-12):
        self.f = f
        knots = f.knots
        self._knots = np.asarray(knots)
        base = [0.0]
        anti = []
        for i, seg in enumerate(f.segments):
            lo, hi = knots[i], knots[i + 1]
            base.append(base[-1] + f.integrate(lo, hi, _IDENTITY, rel_tol))
            anti.append(seg.antiderivative() if isinstance(seg, PolySegment) else None)
        self._base = base
        self._anti = anti

    @property
    def total(self) -> float:
        return self._base[-1]

    def value(self, t: float) -> float:
        f = self.f
        eps = f._eps()
        t = min(max(t, 0.0), f.domain_end)
        i = bisect.bisect_right(f.breakpoints, t)
        if i > 0 and t - f.breakpoints[i - 1] <= eps:
            return self._base[i]
        lo = self._knots[i]
        if t - lo <= eps:
            return self._base[i]
        anti = self._anti[i]
        if anti is not None:
            return self._base[i] + float(anti(t)) - float(anti(lo))
        seg = f.segments[i]
        return self._base[i] + adaptive_integral(seg, float(lo), float(t), 1e-13 * (1.0 + abs(self._base[i])))

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.empty_like(ts)
        f = self.f
        knots = f.knots
        for i, seg in enumerate(f.segments):
            lo, hi = knots[i], knots[i + 1]
            mask = (ts >= lo) & (ts < hi) if i < len(f.segments) - 1 else (ts >= lo) & (ts <= hi)
            if not np.any(mask):
                continue
            anti = self._anti[i]
            if anti is not None:
                out[mask] = self._base[i] + anti(ts[mask]) - float(anti(lo))
            else:
                out[mask] = [self.value(float(t)) for t in ts[mask]]
        out[ts < knots[0]] = 0.0
        return out


def integrate_periodic(f: PiecewiseFunction, lo: float, hi: float,
                       transform: str = _IDENTITY, rel_tol: float = 1e-10) -> float:
    """Integral of transform(f) over an arbitrary window, extending f by periodicity."""
    if hi <= lo:
        return 0.0
    T = f.domain_end
    total = 0.0
    k = math.floor(lo / T + 1e-15)
    t = lo
    while t < hi - 1e-15 * max(1.0, T):
        chunk_hi = min(hi, (k + 1) * T)
        total += f.integrate(t - k * T, chunk_hi - k * T, transform, rel_tol)
        t = chunk_hi
        k += 1
    return total
