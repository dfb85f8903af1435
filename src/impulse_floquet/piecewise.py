"""Piecewise coefficient functions on a bounded interval.

A function on [0, domain_end] is stored as evaluators for the open segments
between sorted interior breakpoints. Values at a breakpoint are one-sided
limits, selected with a side flag. One knot rule holds everywhere: times
closer than knot_eps are one time; `locate` finds the piece that owns a time
or a grid of times, and `merge_knots` keeps one knot of each close group.
Polynomial segments (coefficients in the global time variable, ascending
degree) are the canonical representation: they admit exact derivatives,
extrema and antiderivatives. Opaque callables are accepted, but they leave
derivative-based downstream checks undecidable.

Integrals never cross a breakpoint. A polynomial panel is integrated in
closed form from its antiderivative in the local variable t - lo; for the
absolute-value and positive-part transforms it is split at the real roots of
the polynomial; integrate_many takes the panels of many requests in one pass,
as arrays where a coefficient length has enough of them. Every integral
without a closed form goes through one rule, integrate_groups: callable
panels, the a^2/b of the criteria, the weighted b * exp(-2A) of the Lyapunov
layer and the in-segment values of a callable's cumulative integral. It runs
adaptive Gauss-Legendre on all panels of many groups at once, with one
integrand call per level of splitting and an absolute tolerance relative to
each group's own 15-node estimates. For the abs and pos transforms every
interior sign change of a callable is located first (a node scan plus Brent
root refinement), so each panel integrates a smooth sign-definite integrand.
Each panel has a budget of splits; past it the open parts keep their estimate
and a warning is logged.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from dataclasses import dataclass, field
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
# Panel splits one span of integrate_panels may make. Every integral of the test suite and the
# benchmark workloads converges without a split, and a kink inside a panel takes about 30.
_PANEL_BUDGET = 1 << 12
_QUAD_BLOCK = 256  # panels per integrand call, which bounds the memory of a long window
_ARRAY_PANELS = 8  # polynomial panels of one length from which their closed forms take arrays
QUAD_REL_TOL = 1e-10  # relative tolerance of every quadrature without a closed form
_SAMPLED_MIN_NODES = 129  # Chebyshev nodes of sampled_min
_SIGN_SCAN_NODES = 33     # Chebyshev nodes of the sign-change scan of a callable
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_LOG = logging.getLogger("impulse_floquet")


class EvaluationError(ValueError):
    """A segment evaluator produced a non-finite value."""

    def __init__(self, message: str, t: float | None = None, value: float | None = None):
        super().__init__(message)
        self.t, self.value = t, value  # the value, where a quadrature level reports it


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


def locate(starts, t, side: str, eps: float):
    """Index of the piece owning the one-sided value at t, for sorted piece
    starts; t is a float (an int back) or an ndarray (an int array back).

    A t within eps of a start reads as that start: side "left" takes the piece
    ending there, "right" the piece beginning there. A t before the first start
    reads in the first piece."""
    if not isinstance(t, np.ndarray):
        i = max(bisect.bisect_right(starts, t) - 1, 0)
        if side == LEFT:
            return i - 1 if i > 0 and t - starts[i] <= eps else i
        return i + 1 if i + 1 < len(starts) and starts[i + 1] - t <= eps else i
    starts = np.asarray(starts, dtype=float)
    i = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)
    if side == LEFT:
        return i - ((i > 0) & (t - starts[i] <= eps))
    last = len(starts) - 1
    return i + ((i < last) & (starts[np.minimum(i + 1, last)] - t <= eps))


def merge_knots(knots, eps: float, kept=()) -> list[float]:
    """The knots, in the order seen, that lie more than eps from every earlier
    one and from every knot of `kept`: of each group of knots closer than eps,
    the first one seen."""
    seen, out = list(kept), []
    for k in knots:
        for m in seen:  # a loop, not all() over a generator: 4x faster on a dozen knots
            if abs(k - m) <= eps:
                break
        else:
            seen.append(k)
            out.append(k)
    return out


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


def _raising(entries: list) -> list:
    """`entries`, unless one is an exception: then the first of those is raised."""
    for entry in entries:
        if isinstance(entry, Exception):
            raise entry
    return entries


def finite_values(fn, xs) -> np.ndarray:
    """fn at xs (a float or an ndarray) as floats; EvaluationError at the earliest
    x whose value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the EvaluationError below
        vals = np.asarray(fn(xs), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        t = float(np.min(np.asarray(xs)[bad]))
        raise EvaluationError(f"non-finite segment value at t={t}", t=t)
    return vals


def _gauss(fn, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    xs = 0.5 * (hi + lo) + half * _GL_X
    return half * float(_GL_W @ finite_values(fn, xs))


def segment_rows(*columns):
    """fn(ts, rows) reading ts[r] on columns[k][rows[r]] for each column k of segments: polynomials
    by Horner on one coefficient table, zero-padded at the top degree (PolySegment's own bits),
    callables row by row, column by column; one column's values, or an array of them per column."""
    table = _poly_table(list(zip(*columns)), len(columns))
    calls = np.array([[not isinstance(s, PolySegment) for s in col] for col in columns], dtype=bool)
    any_calls = calls.any()

    def values(ts, rows):
        out = _horner(table[:, rows].transpose(2, 0, 1)[..., None], ts)
        for k, r in zip(*np.nonzero(calls[:, rows])) if any_calls else ():
            out[k, r] = columns[k][rows[r]](ts[r])
        return out if len(columns) > 1 else out[0]
    return values


def _poly_table(groups, width: int) -> np.ndarray:
    """Coefficients of every PolySegment of the groups of `width` segments as a (width, groups,
    degree + 1) array, zero-padded at the top degree (Horner then gives the same bits)."""
    polys = [[s.coeffs if isinstance(s, PolySegment) else () for s in g] for g in groups]
    n = max([1] + [len(c) for row in polys for c in row])
    return np.array([[c + (0.0,) * (n - len(c)) for c in col] for col in zip(*polys)],
                    dtype=float).reshape(width, len(groups), n)


def _rules(fn, a: np.ndarray, b: np.ndarray, rows: np.ndarray, stop: bool = False):
    """`_gauss` of each [a, b], (n, r) arrays on the panels `rows`, bit for bit: the same dot row
    by row (`vals @ _GL_W` sums in another order); one fn call per _QUAD_BLOCK rows. Also
    {row: (t, value)} at the earliest non-finite value of each row that has one; with `stop`, no
    block after the first that has one is read (its rows' rules are left unset)."""
    half, out, bad = 0.5 * (b - a), np.empty(a.shape), {}
    for i in range(0, len(rows), _QUAD_BLOCK):
        s = slice(i, i + _QUAD_BLOCK)
        ts = (0.5 * (b[s] + a[s]))[..., None] + half[s, :, None] * _GL_X
        xs = ts.reshape(len(ts), -1)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is an EvaluationError
            vals = np.asarray(fn(xs, rows[s]), dtype=float)
        ok = np.isfinite(vals)
        for r in np.flatnonzero(~ok.all(1)) if not ok.all() else ():
            j = int(np.argmin(np.where(ok[r], np.inf, xs[r])))
            bad[i + r] = float(xs[r, j]), float(vals[r, j])
        out[s] = half[s] * (_GL_W @ vals.reshape(ts.shape)[..., None])[..., 0]
        if stop and bad:
            break
    return out, bad


def adaptive_integral(fn, lo: float, hi: float, tol_abs: float) -> float:
    """`integrate_panels` of fn(ts) on the one panel [lo, hi] with absolute tolerance tol_abs."""
    return integrate_panels(segment_rows([fn]), [(lo, hi)], tol_abs)


def integrate_panels(fn, spans, tol_abs: float | None = None) -> float:
    """`integrate_groups` of the one group `spans`, raising its EvaluationError."""
    return _raising(integrate_groups(fn, [spans], tol_abs))[0]


def integrate_groups(fn, groups, tol_abs: float | None = None) -> list:
    """Sum of the integrals of fn over the (lo, hi) spans of each group by adaptive Gauss-Legendre,
    one fn call per level for all groups: fn(ts, rows) reads (n, m) nodes, row r in span rows[r],
    spans numbered through the groups. Level 0 takes every span's 15-node rule and its halves'
    rules, later levels the halves of the panels still open. A panel closes when its halves agree
    with its rule within its tolerance (tol_abs, or QUAD_REL_TOL times its group's summed |rule|,
    at least 1e-3, shared by length: the integrand's own scale, as in QUADPACK), at depth 48 or too
    short to split; it is worth its halves' sum, or its children's, each with half its tolerance.
    A span past _PANEL_BUDGET splits (counted by level in time order) keeps its halves and logs a
    warning, lest rounding noise split it to depth 48. Entry g is group g's sum, or the
    EvaluationError of its first non-finite value: each group as if integrated alone."""
    widths = [sum([hi - lo for lo, hi in spans]) for spans in groups]
    out: list = [0.0] * len(groups)
    live = [g for g, w in enumerate(widths) if w > 0.0]
    if not live:
        return out
    counts = [len(groups[g]) for g in live]
    ends = list(itertools.accumulate(counts))
    lo, hi = np.array([span for g in live for span in groups[g]], dtype=float).T
    top, mid = np.arange(len(lo)), 0.5 * (lo + hi)
    ids = None if len(live) == len(groups) else np.flatnonzero(  # fn's row numbers of the spans
        np.repeat([w > 0.0 for w in widths], list(map(len, groups))))
    dead = None  # the spans of the groups that failed

    def rules(a, b):
        """`_rules` of [a, b] on the spans `top`. A group that read a non-finite value fails, at the
        earliest t of its first block of _QUAD_BLOCK of its own rows that has one, as alone; its
        rows read 0 and its spans are dead: they close, and fn never reads them again."""
        nonlocal dead
        out_rules, bad = _rules(fn, a, b, top if ids is None else ids[top], len(live) == 1)
        first, rows = {}, np.repeat(live, counts)[top] if bad else None
        for r, (t, v) in bad.items():
            g = rows[r]
            first[g] = min(first.get(g, (math.inf,)),
                           ((r - np.searchsorted(rows, g)) // _QUAD_BLOCK, t, v))
        for g, (_, t, v) in first.items():
            out[g] = EvaluationError(f"non-finite segment value at t={t}", t=t, value=v)
        if first:
            failed = np.isin(rows, list(first))
            out_rules[failed] = 0.0
            dead = np.zeros(len(lo), dtype=bool) if dead is None else dead
            dead[top[failed]] = True
        return out_rules.T
    whole, left, right = rules(np.array([lo, lo, mid]).T, np.array([hi, mid, hi]).T)
    w = whole.tolist()
    per_group = [(QUAD_REL_TOL * max(sum(map(abs, w[j - n:j])), 1e-3), widths[g])
                 for g, n, j in zip(live, counts, ends)]
    scale, width = np.repeat(per_group, counts, axis=0).T if len(live) > 1 else per_group[0]
    tol = np.full(len(lo), tol_abs) if tol_abs is not None else scale * (hi - lo) / width
    budget, levels, a, b, t = None, [], lo, hi, tol
    for depth in range(48, -1, -1):
        halves, positive = left + right, b > a
        split = positive & ~((np.abs(halves - whole) <= t)
                             | ((b - a) < 1e-15 * (1.0 + np.abs(a) + np.abs(b))))
        if dead is not None:
            split &= ~dead[top]
        levels.append((split, np.where(positive, halves, 0.0)))
        if depth == 0 or not split.any():  # the last level splits nothing
            break
        if budget is None:  # no budget arrays before the first split
            budget = np.full(len(lo), _PANEL_BUDGET)
        tops = top[split]  # in time order within each span
        over = np.arange(len(tops)) - np.searchsorted(tops, tops) >= budget[tops]
        budget -= np.bincount(tops, minlength=len(lo))
        split[np.flatnonzero(split)[over]] = False  # in place: levels holds this mask
        m = 0.5 * (a[split] + b[split])  # the halves, in time order
        a, b, whole = (np.stack(p, 1).ravel() for p in ((a[split], m), (m, b[split]),
                                                        (left[split], right[split])))
        t, top, m = np.repeat(0.5 * t[split], 2), np.repeat(top[split], 2), 0.5 * (a + b)
        left, right = rules(np.array([a, m]).T, np.array([m, b]).T)
    for i in np.flatnonzero(budget < 0) if budget is not None else ():
        if not isinstance(out[live[np.searchsorted(ends, i, side="right")]], Exception):
            _LOG.warning("adaptive quadrature on [%r, %r] stopped after %d panel splits; the "
                         "result may miss its tolerance %.3g", *map(float, (lo[i], hi[i])),
                         _PANEL_BUDGET, tol[i])
    vals = levels[-1][1]
    for split, values in reversed(levels[:-1]):  # each split panel takes its children's sum
        values[split] = vals[0::2] + vals[1::2]
        vals = values
    vals = vals.tolist()
    for g, n, j in zip(live, counts, ends):
        out[g] = out[g] if isinstance(out[g], Exception) else sum(vals[j - n:j])
    return out


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


def _extremum_candidates(coeffs: Sequence[float], lo: float, hi: float) -> list:
    """lo, hi and the real derivative roots between them, where a polynomial takes its
    extrema on [lo, hi]; a linear derivative's root in closed form, as npoly.polyroots."""
    der = [k * c for k, c in enumerate(coeffs)][1:]  # npoly.polyder's products
    roots = []
    if len(der) == 2:
        roots = [-der[0] / der[1]] if der[1] != 0.0 else []
    elif any(d != 0.0 for d in der):
        roots = _polyroots(der)
        roots = roots[np.abs(roots.imag) < 1e-9].real
    return [lo, hi, *(float(r) for r in roots if lo < r < hi)]


def poly_min_on(coeffs: Sequence[float], lo: float, hi: float) -> tuple[float, float]:
    """Exact minimum of a polynomial on [lo, hi] via derivative roots."""
    cands = _extremum_candidates(coeffs, lo, hi)
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


def sampled_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Approximate minimum of a black-box function on [lo, hi]; EvaluationError at
    the first non-finite value read, on the grid or in the golden-section search."""
    xs = _chebyshev_nodes(lo, hi, _SAMPLED_MIN_NODES)
    t, ft = grid_golden_min(lambda x: float(finite_values(fn, x)), xs, finite_values(fn, xs))
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


def segments_extrema(pieces) -> tuple[float, float]:
    """(minimum, maximum) over (lo, hi, segment) pieces, as `segments_min` of the pieces and
    of their negations; a PolySegment's both from one candidate set (-p(t) is exact)."""
    lo = neg = math.inf
    for p0, p1, seg in pieces:
        if isinstance(seg, PolySegment):
            vals = [_horner(seg.coeffs, t) for t in _extremum_candidates(seg.coeffs, p0, p1)]
            val, neg_val = min(vals), min([-v for v in vals])
        else:
            val, neg_val = sampled_min(seg, p0, p1)[0], sampled_min(seg.scaled(-1.0), p0, p1)[0]
        lo, neg = min(lo, val), min(neg, neg_val)  # segments_min's rule
    return lo, -neg


@dataclass(frozen=True)
class PiecewiseFunction:
    """Real function on [0, domain_end] given by segments between breakpoints."""

    domain_end: float
    breakpoints: tuple[float, ...]
    segments: tuple[Segment, ...]
    _starts: tuple[float, ...] = field(default=(), init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_starts", (0.0, *bps))  # segment starts, for locate

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
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
        if side == LEFT and t <= eps:
            raise ValueError("left limit undefined at t=0")
        if side == RIGHT and t >= self.domain_end - eps:
            raise ValueError(f"right limit undefined at t={self.domain_end}")
        return locate(self._starts, min(max(t, 0.0), self.domain_end), side, eps)

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
        """Vectorized evaluation with eval's side convention: right at a
        breakpoint, left at domain_end."""
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.domain_end)
        out = np.empty_like(ts)
        idx = locate(self._starts, ts, RIGHT, knot_eps(self.domain_end))
        for i in set(np.ravel(idx).tolist()):
            mask = idx == i
            out[mask] = self.segments[i](ts[mask])
        return out

    def with_breakpoints(self, points: Sequence[float]) -> "PiecewiseFunction":
        """Refined copy whose breakpoints include `points` (interior ones only),
        merged with merge_knots: a point within the knot tolerance of a knot or
        of an earlier point adds no breakpoint."""
        extra = merge_knots([float(p) for p in points if 0.0 < p < self.domain_end],
                            knot_eps(self.domain_end), self.knots)
        if not extra:
            return self
        cuts = (0.0, *sorted((*self.breakpoints, *extra)), self.domain_end)
        segs = [self.segments[self._interior_index(0.5 * (a + b))]
                for a, b in zip(cuts[:-1], cuts[1:])]
        return PiecewiseFunction(self.domain_end, cuts[1:-1], tuple(segs))

    def _interior_index(self, t: float) -> int:
        """Index of the segment holding t, a time away from every breakpoint."""
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

    def integrate(self, lo: float, hi: float, transform: str = _IDENTITY, *,
                  _closed=None) -> float:
        """Integral of transform(f) over [lo, hi] within [0, domain_end].

        transform is one of "identity", "abs" (absolute value) or "pos"
        (positive part). Panels never straddle a breakpoint; for the non-identity
        transforms they never straddle a sign change either. Polynomial pieces
        take their closed forms from `_poly_integrals`; `_closed` is internal:
        the (pieces, closed forms) that `integrate_many` computed for the range.
        """
        if _closed is None:
            pieces, polys = self._integration_pieces(lo, hi, transform)
            _closed = pieces, _poly_integrals(polys)
        pieces, values = _closed
        values, total, panels = iter(values), 0.0, []
        eps_root = 1e-13 * max(1.0, self.domain_end)
        for a, b, seg in pieces:
            val = next(values) if isinstance(seg, PolySegment) else math.nan
            if math.isfinite(val):
                total += val
            elif transform == _IDENTITY:  # callables, or the error report of a non-finite polynomial
                panels.append((seg, a, b))
            else:
                if isinstance(seg, PolySegment):  # its error report comes from the 15 nodes
                    _gauss(seg, a, b)
                for p0, p1, sgn in _sign_definite_panels(seg, a, b, eps_root):
                    if transform == _ABS or sgn > 0:
                        panels.append((lambda ts, _seg=seg: np.abs(_seg(ts)), p0, p1)
                                      if transform == _ABS else (seg, p0, p1))
        return total + (integrate_panels(segment_rows([p[0] for p in panels]),
                                         [p[1:] for p in panels]) if panels else 0.0)

    def _integration_pieces(self, lo: float, hi: float, transform: str) -> tuple:
        """`pieces` of [lo, hi] clipped to the domain, none if shorter than the knot tolerance, and
        the `_poly_integrals` panels of the polynomial ones."""
        if transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {transform!r}")
        eps = knot_eps(self.domain_end)
        if lo < -eps or hi > self.domain_end + eps or lo > hi + eps:
            raise ValueError(f"integration range [{lo}, {hi}] outside [0, {self.domain_end}]")
        lo = min(max(lo, 0.0), self.domain_end)
        hi = min(max(hi, 0.0), self.domain_end)
        pieces = [] if hi - lo <= eps else self.pieces(lo, hi)
        return pieces, [(s.coeffs, a, b, transform) for a, b, s in pieces
                        if isinstance(s, PolySegment)]


def integrate_many(requests) -> list:
    """Entry i is `f.integrate(lo, hi, transform)` of requests[i] = (f, lo, hi, transform), or the
    exception it raises: one `_poly_integrals` pass takes the polynomial pieces of all requests."""
    parts = []
    for f, lo, hi, transform in requests:
        try:
            parts.append(f._integration_pieces(lo, hi, transform))
        except ValueError:
            parts.append(None)  # f.integrate raises it below
    values, out = iter(_poly_integrals([p for part in parts if part for p in part[1]])), []
    for (f, lo, hi, transform), part in zip(requests, parts):
        try:
            out.append(f.integrate(lo, hi, transform,
                                   _closed=part and (part[0], [next(values) for _ in part[1]])))
        except Exception as exc:  # raised where that integral is read
            out.append(exc)
    return out


def _poly_integrals(panels) -> list:
    """Integral of transform(p) over [lo, hi] for each (coeffs, lo, hi, transform) panel: the
    antiderivative of `_taylor_shift`'s coefficients in s = t - lo, by `_horner` at `_cuts`. From
    _ARRAY_PANELS panels of one coefficient length on, these steps run once on columns, a numpy
    array per coefficient; fewer panels run them one by one on floats, as numpy's cost per call
    would outweigh their work. Every panel keeps the bits of its own pass."""
    out, by_len = [0.0] * len(panels), {}
    for i, p in enumerate(panels) if len(panels) >= _ARRAY_PANELS else ():
        by_len.setdefault(len(p[0]), []).append(i)
    for idx in [range(len(panels))] if not by_len else by_len.values():
        if len(idx) < _ARRAY_PANELS:
            for i in idx:
                coeffs, lo, hi, transform = panels[i]
                q = _taylor_shift(coeffs, lo)
                F = _antiderivative(q)
                out[i] = (_horner(F, hi - lo) if transform == _IDENTITY else
                          _summed([_horner(F, s) for s in _cuts(q, hi - lo, transform)], transform))
            continue
        coeffs, lo, hi, transforms = zip(*[panels[i] for i in idx])
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported
            q = _taylor_shift([np.array(c) for c in zip(*coeffs)], np.array(lo))
            F = _antiderivative(q)
            cuts = [_cuts(qk, b - a, tr)
                    for qk, a, b, tr in zip(np.array(q).T.tolist(), lo, hi, transforms)]
            rep = np.repeat(np.arange(len(idx)), list(map(len, cuts)))  # every cut in one pass
            vals = _horner([F[0], *(f[rep] for f in F[1:])],
                           np.array([s for c in cuts for s in c])).tolist()
        start = 0
        for i, c, tr in zip(idx, cuts, transforms):
            out[i], start = _summed(vals[start:start + len(c)], tr), start + len(c)
    return out


def _cuts(q: list[float], length: float, transform: str) -> list[float]:
    """Where a panel's antiderivative is read: its end, or for the abs and pos transforms also 0
    and `_roots_within`'s roots."""
    return [length] if transform == _IDENTITY else [0.0, *_roots_within(q, length), length]


def _summed(vals: list[float], transform: str) -> float:
    """A panel's integral from its antiderivative at its `_cuts`: the parts, summed in order."""
    if transform == _IDENTITY:
        return vals[0]
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


def _sign_definite_panels(seg, lo: float, hi: float, eps_root: float):
    """Split [lo, hi] at the sign changes of seg; yields (a, b, sign)."""
    xs = _chebyshev_nodes(lo, hi, _SIGN_SCAN_NODES)
    vals = finite_values(seg, xs)
    roots = []
    for i in range(len(xs) - 1):
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

    def __init__(self, f: PiecewiseFunction):
        self.f = f
        self._knots = knots = f.knots
        base = [0.0]
        anti = []
        for i, seg in enumerate(f.segments):
            lo, hi = knots[i], knots[i + 1]
            F = _antiderivative(_taylor_shift(seg.coeffs, lo)) if isinstance(seg, PolySegment) else None
            step = _horner(F, hi - lo) if F is not None else math.nan
            if not math.isfinite(step):  # callables, or the error report
                step = f.integrate(lo, hi)
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
        return self._base[i] + integrate_panels(segment_rows([self.f.segments[i]]),
                                                [(self._knots[i], s)])

    def values(self, ts: np.ndarray) -> np.ndarray:
        ks, ss = split_period(np.asarray(ts, dtype=float), self.f.domain_end)
        out = np.empty_like(ss)
        idx = np.searchsorted(self.f.breakpoints, ss, side="right")
        for i in set(idx.ravel().tolist()):  # the segments hit: one for the nodes of a panel
            mask, anti = idx == i, self._anti[i]
            if anti is not None:
                out[mask] = self._base[i] + _horner(anti, self._offset(ss[mask], i))
            else:
                out[mask] = [self._within(float(s)) for s in ss[mask]]
        return ks * self.total + out


def integrate_periodic(f: PiecewiseFunction, lo: float, hi: float,
                       transform: str = _IDENTITY) -> float:
    """Integral of transform(f) over an arbitrary window, extending f by periodicity."""
    return sum((f.integrate(s0, s1, transform)
                for _, s0, s1 in period_chunks(lo, hi, f.domain_end)), 0.0)
