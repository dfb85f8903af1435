"""Seeded random-system generation and the property sweeps built on it.

Sweeps are the executable form of the certification guarantees: systems are
generated so that a chosen criterion's hypotheses hold with a requested
margin, then the period map is computed independently and the verdict is
checked. Any certified-but-not-stable case is a violation and means a bug in
either the integrator or the criteria arithmetic.

Constraint modes rescale rather than reject: the coefficient c and all
impulse strengths are scaled by a common closed-form factor until the
product-type hypothesis meets the target margin, after first shrinking a
until the feasible window for that factor is nonempty.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import criteria as crit
from .criteria import evaluate_all
from .floquet import STABLE, classify
from .lyapunov import find_zero_pair, lyapunov_verify
from .piecewise import PiecewiseFunction, PolySegment, segments_min
from .propagation import State, monodromy
from .system import Impulse, ImpulseSchedule, ImpulsiveSystem
from .tolerances import DEFAULT_TOLERANCES, Tolerances

UNCONSTRAINED = "unconstrained"
IMPULSE_FREE = "impulse-free"
POSITIVE_B = "positive-b"
FORCE_ALPHA_PRODUCT_ONE = "force-alpha-product-one"
FORCE_MAIN = "force-main"
FORCE_GUSEINOV_ZAFER = "force-guseinov-zafer"

MODES = (UNCONSTRAINED, IMPULSE_FREE, POSITIVE_B, FORCE_ALPHA_PRODUCT_ONE,
         FORCE_MAIN, FORCE_GUSEINOV_ZAFER)


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 0
    period: float = 1.0
    segment_range: tuple[int, int] = (1, 3)
    amplitude: float = 1.0
    a_amplitude: float | None = None  # None: use amplitude
    poly_degree: int = 2
    impulse_range: tuple[int, int] = (0, 3)
    alpha_range: tuple[float, float] = (0.3, 1.7)  # magnitudes; signs are random
    beta_range: tuple[float, float] = (-1.0, 1.0)
    mode: str = UNCONSTRAINED
    margin: float = 1e-3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


class GenerationError(RuntimeError):
    """The constraint mode could not be satisfied within the iteration budget."""


def _random_piecewise(rng, T: float, breakpoints, degree: int, amp: float) -> PiecewiseFunction:
    segs = tuple(PolySegment(tuple(rng.uniform(-amp, amp, degree + 1) / (1.0 + np.arange(degree + 1))))
                 for _ in range(len(breakpoints) + 1))
    return PiecewiseFunction(T, tuple(breakpoints), segs)


def _min_value(f: PiecewiseFunction) -> float:
    knots = f.knots
    return segments_min(zip(knots[:-1], knots[1:], f.segments))[0]


def generate(spec: GeneratorSpec) -> ImpulsiveSystem:
    """Deterministic system for the given spec; same spec, same system."""
    rng = np.random.default_rng(spec.seed)
    T = spec.period
    amp = spec.amplitude

    nseg = int(rng.integers(spec.segment_range[0], spec.segment_range[1] + 1))
    jitter = rng.uniform(-0.3, 0.3, max(nseg - 1, 0))
    breakpoints = [T * (i + 1 + jitter[i]) / nseg for i in range(nseg - 1)]

    a_amp = spec.amplitude if spec.a_amplitude is None else spec.a_amplitude
    coeff_a = (_random_piecewise(rng, T, breakpoints, spec.poly_degree, a_amp)
               if a_amp > 0.0 else PiecewiseFunction.constant(0.0, T))
    if a_amp <= 0.0:
        rng.uniform(-1.0, 1.0, (len(breakpoints) + 1) * (spec.poly_degree + 1))
    coeff_b = _random_piecewise(rng, T, breakpoints, spec.poly_degree, amp)
    coeff_c = _random_piecewise(rng, T, breakpoints, spec.poly_degree, amp)

    r_lo, r_hi = spec.impulse_range
    r = 0 if spec.mode == IMPULSE_FREE else int(rng.integers(r_lo, r_hi + 1))
    taus = [T * (i + 1 + rng.uniform(-0.35, 0.35)) / (r + 1) for i in range(r)]
    mags = rng.uniform(spec.alpha_range[0], spec.alpha_range[1], r)
    signs = rng.choice([-1.0, 1.0], r)
    alphas = list(mags * signs)
    betas = list(rng.uniform(spec.beta_range[0], spec.beta_range[1], r))

    force = spec.mode in (FORCE_MAIN, FORCE_GUSEINOV_ZAFER)
    if r > 0 and (force or spec.mode == FORCE_ALPHA_PRODUCT_ONE):
        head = 1.0
        for al in alphas[:-1]:
            head *= al
        alphas[-1] = float(rng.choice([-1.0, 1.0])) / head

    if spec.mode == POSITIVE_B:
        min_b = _min_value(coeff_b)
        if min_b < 0.2:
            coeff_b = coeff_b.plus_constant(0.2 - min_b)
    if force:
        coeff_a, coeff_b, coeff_c, betas = _force_hypotheses(
            spec, coeff_a, coeff_b, coeff_c, taus, alphas, betas)

    schedule = ImpulseSchedule(T, tuple(Impulse(t, al, be)
                                        for t, al, be in zip(taus, alphas, betas)))
    return ImpulsiveSystem(coeff_a, coeff_b, coeff_c, schedule)


def _force_hypotheses(spec, coeff_a, coeff_b, coeff_c, taus, alphas, betas):
    """Adjust (a, c, beta) so the selected criterion holds with the margin."""
    T = spec.period
    quad = DEFAULT_TOLERANCES.quad_rel

    min_b = _min_value(coeff_b)
    if min_b < 0.2:
        coeff_b = coeff_b.plus_constant(0.2 - min_b)
    int_b = coeff_b.integrate(0.0, T, "identity", quad)

    sum_ratio = sum(be / al for al, be in zip(alphas, betas))
    int_c = coeff_c.integrate(0.0, T, "identity", quad)
    gap = 0.3 - (int_c + sum_ratio)
    if gap > 0.0:
        coeff_c = coeff_c.plus_constant(gap / T)
        int_c += gap
    g_val = int_c + sum_ratio

    h_val = (coeff_c.integrate(0.0, T, "pos", quad)
             + sum(max(be / al, 0.0) for al, be in zip(alphas, betas)))
    margin = max(spec.margin, 1e-9)

    def s_bound(a_fn: PiecewiseFunction) -> float:
        int_abs_a = a_fn.integrate(0.0, T, "abs", quad)
        if spec.mode == FORCE_MAIN:
            return (4.0 - margin) / (math.exp(2.0 * int_abs_a) * int_b * h_val)
        room = 2.0 - margin - int_abs_a
        if room <= 0.0:
            return -1.0
        return room * room / (int_b * h_val)

    def k_val(a_fn: PiecewiseFunction) -> float:
        total = 0.0
        knots_union = sorted(set(a_fn.knots) | set(coeff_b.knots))
        for lo, hi in zip(knots_union[:-1], knots_union[1:]):
            sa = a_fn.segments[a_fn._interior_index(0.5 * (lo + hi))]
            sb = coeff_b.segments[coeff_b._interior_index(0.5 * (lo + hi))]
            ts = np.linspace(lo, hi, 33)
            av = np.asarray(sa(ts), dtype=float)
            bv = np.asarray(sb(ts), dtype=float)
            vals = av * av / bv
            total += float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)))
        return total

    for _ in range(200):
        sb = s_bound(coeff_a)
        if sb > 0.0 and k_val(coeff_a) <= 0.45 * g_val * min(sb, 1.0):
            break
        coeff_a = coeff_a.scaled(0.7)
    else:
        raise GenerationError("could not satisfy the criterion hypotheses "
                              "within the iteration budget")

    s = min(1.0, s_bound(coeff_a))
    coeff_c = coeff_c.scaled(s)
    betas = [s * be for be in betas]
    return coeff_a, coeff_b, coeff_c, betas


# -- sweeps ------------------------------------------------------------------

@dataclass(frozen=True)
class SystemRecord:
    index: int
    seed: int
    trace: float
    det: float
    verdict: str
    conclusions: dict
    certified_any: bool
    coverage: dict
    target_margins: tuple[float, ...]  # of the criterion a forced mode targets

    def to_json(self) -> dict:
        return {"index": self.index, "seed": self.seed, "trace": self.trace,
                "det": self.det, "verdict": self.verdict,
                "conclusions": dict(sorted(self.conclusions.items())),
                "certified_any": self.certified_any}


@dataclass(frozen=True)
class SoundnessSummary:
    mode: str
    seed: int
    n: int
    records: tuple[SystemRecord, ...]
    violations: tuple[dict, ...]
    certified_counts: dict
    min_gap: float | None
    min_condition_margin: float | None
    coverage: dict

    def to_json(self) -> dict:
        return {
            "mode": self.mode, "seed": self.seed, "n": self.n,
            "violations": list(self.violations),
            "certified_counts": dict(sorted(self.certified_counts.items())),
            "min_gap_4_minus_trace_sq": self.min_gap,
            "min_condition_margin": self.min_condition_margin,
            "coverage": dict(sorted(self.coverage.items())),
            "records": [r.to_json() for r in self.records],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_csv_text(self) -> str:
        names = list(crit.CRITERION_ORDER)
        lines = [",".join(["index", "seed", "trace", "det", "verdict",
                           *names, "certified_any"])]
        for r in self.records:
            lines.append(",".join([str(r.index), str(r.seed), repr(r.trace),
                                   repr(r.det), r.verdict,
                                   *(r.conclusions[n] for n in names),
                                   str(r.certified_any).lower()]))
        return "\n".join(lines) + "\n"


def _coverage_flags(system: ImpulsiveSystem) -> dict:
    ts = np.linspace(0.0, system.period, 65)[:-1]
    cv = system.coeff_c.eval_array(ts)
    av = system.coeff_a.eval_array(ts)
    return {
        "negative_alpha": any(imp.alpha < 0.0 for imp in system.schedule.impulses),
        "positive_beta": any(imp.beta > 0.0 for imp in system.schedule.impulses),
        "negative_beta": any(imp.beta < 0.0 for imp in system.schedule.impulses),
        "c_changes_sign": bool(np.min(cv) < 0.0 < np.max(cv)),
        "a_nonzero": bool(np.max(np.abs(av)) > 0.0),
    }


_TARGETS = {FORCE_MAIN: crit.MAIN, FORCE_GUSEINOV_ZAFER: crit.GUSEINOV_ZAFER}


def _analyze_one(args) -> SystemRecord:
    spec, index, tol = args
    system = generate(replace(spec, seed=spec.seed + index))
    reports = evaluate_all(system, tol)
    verdict = classify(monodromy(system, tol), tol.boundary)
    conclusions = {r.criterion: r.conclusion for r in reports}
    target = _TARGETS.get(spec.mode)
    return SystemRecord(
        index=index, seed=spec.seed + index, trace=verdict.trace, det=verdict.det,
        verdict=verdict.category, conclusions=conclusions,
        certified_any=any(c == crit.CERTIFIED for c in conclusions.values()),
        coverage=_coverage_flags(system),
        target_margins=tuple(cond.margin for r in reports if r.criterion == target
                             for cond in r.conditions if cond.margin is not None))


def soundness_sweep(spec: GeneratorSpec, n: int, tolerances: Tolerances | None = None,
                    workers: int = 1) -> SoundnessSummary:
    """Generate n systems, certify, classify, and cross-check the two."""
    tol = tolerances or DEFAULT_TOLERANCES
    jobs = [(spec, i, tol) for i in range(n)]
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_analyze_one, jobs, chunksize=max(1, n // (workers * 4))))
    else:
        records = [_analyze_one(j) for j in jobs]

    violations = []
    counts = {name: 0 for name in crit.CRITERION_ORDER}
    min_gap = None
    coverage = {k: False for k in ("negative_alpha", "positive_beta", "negative_beta",
                                   "c_changes_sign", "a_nonzero")}
    for rec in records:
        for name, conclusion in rec.conclusions.items():
            if conclusion == crit.CERTIFIED:
                counts[name] += 1
        if rec.certified_any:
            gap = 4.0 - rec.trace * rec.trace
            min_gap = gap if min_gap is None else min(min_gap, gap)
            if rec.verdict != STABLE:
                violations.append({"index": rec.index, "seed": rec.seed,
                                   "trace": rec.trace, "det": rec.det,
                                   "verdict": rec.verdict})
        for k in coverage:
            coverage[k] = coverage[k] or rec.coverage[k]

    min_margin = None
    if records and any(r.certified_any for r in records):
        min_margin = _min_certified_margin(records)

    return SoundnessSummary(mode=spec.mode, seed=spec.seed, n=n,
                            records=tuple(records), violations=tuple(violations),
                            certified_counts=counts, min_gap=min_gap,
                            min_condition_margin=min_margin, coverage=coverage)


def _min_certified_margin(records) -> float | None:
    """Smallest margin of the targeted criterion over the first 32 systems;
    None unless the mode targets a criterion."""
    margins = [m for rec in records[:32] for m in rec.target_margins]
    return min(margins) if margins else None


@dataclass(frozen=True)
class LyapunovSummary:
    mode: str
    seed: int
    n: int
    systems_scanned: int
    systems_skipped: int
    pairs_found: int
    min_lhs: float | None
    failures: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"mode": self.mode, "seed": self.seed, "n": self.n,
                "systems_scanned": self.systems_scanned,
                "systems_skipped": self.systems_skipped,
                "pairs_found": self.pairs_found, "min_lhs": self.min_lhs,
                "failures": list(self.failures)}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def lyapunov_sweep(spec: GeneratorSpec, n: int, tolerances: Tolerances | None = None,
                   directions: int = 8, periods: float = 4.0,
                   slack: float = 1e-6) -> LyapunovSummary:
    """Scan initial directions of generated systems for zero pairs and check
    the two-zero product bound at each witness."""
    tol = tolerances or DEFAULT_TOLERANCES
    scanned = skipped = pairs = 0
    min_lhs = None
    failures = []
    for i in range(n):
        system = generate(replace(spec, seed=spec.seed + i))
        if _min_value(system.coeff_b) <= 0.0:
            skipped += 1
            continue
        scanned += 1
        T = system.period
        for j in range(directions):
            theta = math.pi * j / directions
            initial = State(0.0, math.cos(theta), math.sin(theta))
            pair = find_zero_pair(system, initial, (0.0, periods * T), tol)
            if pair is None:
                continue
            pairs += 1
            witness = lyapunov_verify(system, pair, tol, slack=slack)
            min_lhs = witness.lhs if min_lhs is None else min(min_lhs, witness.lhs)
            if not witness.holds:
                failures.append({"seed": spec.seed + i, "direction": j,
                                 "t1": pair.t1, "t2": pair.t2, "lhs": witness.lhs})
    return LyapunovSummary(mode=spec.mode, seed=spec.seed, n=n,
                           systems_scanned=scanned, systems_skipped=skipped,
                           pairs_found=pairs, min_lhs=min_lhs, failures=tuple(failures))
