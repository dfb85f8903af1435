"""Seeded random-system generation and the property sweeps built on it.

Sweeps are the executable form of the certification guarantees: systems are
generated so that a chosen criterion's hypotheses hold with a requested
margin, then the period map is computed independently and the verdict is
checked. Any certified-but-not-stable case is a violation and means a bug in
either the integrator or the criteria arithmetic.

Constraint modes rescale rather than reject: the coefficient c and all
impulse strengths are scaled by a common closed-form factor until the
product-type hypothesis meets the target margin, after first shrinking a by
rounds of 0.7 until the mean condition has room and the feasible window for
that factor is nonempty. The rounds are counted from one integral of |a| and
one of a^2/b (the criteria's own), which scale as lam and lam^2 under a <- lam*a.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from types import GeneratorType
from typing import ClassVar

import numpy as np

from . import criteria as crit
# Unused names stay imported: perfbench/spans.py wraps monodromy, evaluate_all, find_zero_pair here.
from .criteria import evaluate_all, evaluate_many
from .floquet import STABLE, classify
from .lyapunov import find_zero_pair, find_zero_pairs, lyapunov_verify
from .piecewise import PiecewiseFunction, PolySegment, _raising, integrate_many, segments_min
from .propagation import State, monodromies, monodromy
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
    amplitude: float = 1.0
    a_amplitude: float | None = None  # None: use amplitude
    poly_degree: int = 2
    impulse_range: tuple[int, int] = (0, 3)
    mode: str = UNCONSTRAINED
    margin: float = 1e-3
    # the same for every generated system: constants, not fields
    period: ClassVar[float] = 1.0
    segment_range: ClassVar[tuple[int, int]] = (1, 3)
    alpha_range: ClassVar[tuple[float, float]] = (0.3, 1.7)  # magnitudes; signs are random
    beta_range: ClassVar[tuple[float, float]] = (-1.0, 1.0)

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
    return _raising(generate_many([spec]))[0]


def generate_many(specs) -> list:
    """Entry i is `generate(specs[i])` or the exception it raises. Each spec is drawn on its own;
    the forced ones then run `_force_hypotheses` side by side, each stage of integrals one
    `integrate_many` call and one `criteria._fill` call for all of them."""
    out = []
    for spec in specs:
        try:
            out.append(_draw(spec))
        except Exception as exc:
            out.append(exc)
    stages = {i: gen for i, gen in enumerate(out) if isinstance(gen, GeneratorType)}
    replies = dict.fromkeys(stages)
    while stages:
        asks = {}
        for i, gen in stages.items():
            try:
                asks[i] = gen.send(replies[i])
            except StopIteration as stop:
                out[i] = stop.value
            except Exception as exc:
                out[i] = exc
        values = iter(integrate_many([r for requests, _ in asks.values() for r in requests]))
        crit._fill([(q, ("int_a2_over_b",)) for _, qs in asks.values() for q in qs])
        replies = {i: [next(values) for _ in requests] for i, (requests, _) in asks.items()}
        stages = {i: stages[i] for i in asks}
    return out


def _draw(spec: GeneratorSpec):
    """The system of an unforced spec, or the `_force_hypotheses` generator of a forced one."""
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
        alphas[-1] = float(rng.choice([-1.0, 1.0])) / math.prod(alphas[:-1])

    if force or spec.mode == POSITIVE_B:
        min_b = _min_value(coeff_b)
        if min_b < 0.2:
            coeff_b = coeff_b.plus_constant(0.2 - min_b)
    schedule = ImpulseSchedule(T, tuple(Impulse(t, al, be)
                                        for t, al, be in zip(taus, alphas, betas)))
    if force:
        return _force_hypotheses(spec, coeff_a, coeff_b, coeff_c, schedule)
    return ImpulsiveSystem(coeff_a, coeff_b, coeff_c, schedule)


def _force_hypotheses(spec, coeff_a, coeff_b, coeff_c, schedule):
    """Adjust (a, c, beta) so the selected criterion holds with the margin: a generator returning
    the system, which yields each stage of integrals (int(c); int(c+), int(b) and int|a|;
    int(a^2/b), at the first round that reads it; the shrunk a's int|a|) as `integrate_many`
    requests, whose results it is sent, and the `_Quantities` whose int(a^2/b) `criteria._fill`
    fills."""
    T = spec.period
    int_c = _raising((yield [(coeff_c, 0.0, T, "identity")], ()))[0]
    gap = 0.3 - (int_c + schedule.ratio_sum())
    if gap > 0.0:
        coeff_c = coeff_c.plus_constant(gap / T)
        int_c += gap
    q = crit._Quantities(ImpulsiveSystem(coeff_a, coeff_b, coeff_c, ImpulseSchedule(T)),
                         DEFAULT_TOLERANCES)
    q.shared.update(zip(("int_c_plus", "int_b", "int_abs_a"), (yield [
        (coeff_c, 0.0, T, "pos"), (coeff_b, 0.0, T, "identity"), (coeff_a, 0.0, T, "abs")], ())))
    g_val = int_c + schedule.ratio_sum()
    h_val = q.int_c_plus + schedule.ratio_sum(positive=True)
    margin = max(spec.margin, 1e-9)

    def s_bound(int_abs_a: float) -> float:
        if spec.mode == FORCE_MAIN:
            try:
                return (4.0 - margin) / (math.exp(2.0 * int_abs_a) * q.int_b * h_val)
            except OverflowError:  # no room, as below: the rounds shrink a
                return -1.0
        room = 2.0 - margin - int_abs_a
        return room * room / (q.int_b * h_val) if room > 0.0 else -1.0

    lam = 1.0
    for _ in range(200):
        sb = s_bound(lam * q.int_abs_a)
        if sb > 0.0 and "int_a2_over_b" not in q.shared:
            yield [], [q]
        if sb > 0.0 and lam * lam * q.int_a2_over_b <= 0.45 * g_val * min(sb, 1.0):
            break
        lam *= 0.7
        coeff_a = coeff_a.scaled(0.7)  # not scaled(0.7**j), which moves the last bits
    else:
        raise GenerationError("could not satisfy the criterion hypotheses "
                              "within the iteration budget")

    s = min(1.0, s_bound(_raising((yield [(coeff_a, 0.0, T, "abs")], ()))[0]))
    return ImpulsiveSystem(coeff_a, coeff_b, coeff_c.scaled(s), ImpulseSchedule(
        T, tuple(replace(imp, beta=s * imp.beta) for imp in schedule.impulses)))


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


CHUNK = 64  # systems, or sweep grid points, per batched period-map and criteria call
LYAPUNOV_PERIODS = 4.0  # lyapunov_sweep scans the window [0, LYAPUNOV_PERIODS * T]
_TARGETS = {FORCE_MAIN: crit.MAIN, FORCE_GUSEINOV_ZAFER: crit.GUSEINOV_ZAFER}


def chunked_map(fn, items, workers: int, make_job) -> list:
    """fn over jobs made from consecutive chunks of at most CHUNK items, at least one
    chunk per worker; `workers` > 1 spreads them over processes, results in chunk order."""
    size = max(1, min(CHUNK, -(-len(items) // max(workers, 1))))
    jobs = [make_job(items[k:k + size]) for k in range(0, len(items), size)]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _soundness_chunk(job) -> list[SystemRecord]:
    """Records of consecutive systems, generation, criteria and period maps in one call each; the
    lowest failing index raises its generation, else its criteria, else its period-map error."""
    spec, indices, tol = job
    systems = generate_many([replace(spec, seed=spec.seed + index) for index in indices])
    made = [s for s in systems if not isinstance(s, Exception)]
    found = iter(zip(evaluate_many(made, tol), monodromies(made, tol)))
    target = _TARGETS.get(spec.mode)
    records = []
    for index, system in zip(indices, systems):
        reports, m = (system, system) if isinstance(system, Exception) else next(found)
        for outcome in (reports, m):
            if isinstance(outcome, Exception):
                raise outcome
        verdict = classify(m)
        conclusions = {r.criterion: r.conclusion for r in reports}
        records.append(SystemRecord(
            index=index, seed=spec.seed + index, trace=verdict.trace, det=verdict.det,
            verdict=verdict.category, conclusions=conclusions,
            certified_any=any(c == crit.CERTIFIED for c in conclusions.values()),
            coverage=_coverage_flags(system),
            target_margins=tuple(cond.margin for r in reports if r.criterion == target
                                 for cond in r.conditions if cond.margin is not None)))
    return records


def soundness_sweep(spec: GeneratorSpec, n: int, tolerances: Tolerances | None = None,
                    workers: int = 1) -> SoundnessSummary:
    """Generate n systems, certify, classify, and cross-check the two, in chunks of
    up to CHUNK systems; `workers` spreads the chunks and does not change the result."""
    tol = tolerances or DEFAULT_TOLERANCES
    chunks = chunked_map(_soundness_chunk, range(n), workers, lambda idx: (spec, idx, tol))
    records = [rec for chunk in chunks for rec in chunk]

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


def _lyapunov_chunk(job) -> list:
    """Per system of consecutive seeds: None when b is not positive (skipped), else
    (lhs, failure record or None) for each initial direction with a zero pair."""
    spec, indices, tol, directions = job
    initials = [State(0.0, math.cos(math.pi * j / directions),
                      math.sin(math.pi * j / directions)) for j in range(directions)]
    out = []
    for i, system in zip(indices, generate_many([replace(spec, seed=spec.seed + i)
                                                 for i in indices])):
        _raising([system])
        if _min_value(system.coeff_b) <= 0.0:
            out.append(None)
            continue
        out.append([])
        pairs = find_zero_pairs(system, initials, (0.0, LYAPUNOV_PERIODS * system.period), tol)
        for j, pair in enumerate(pairs):
            if pair is None:
                continue
            witness = lyapunov_verify(system, pair, tol)
            out[-1].append((witness.lhs, None if witness.holds else {"seed": spec.seed + i,
                            "direction": j, "t1": pair.t1, "t2": pair.t2, "lhs": witness.lhs}))
    return out


def lyapunov_sweep(spec: GeneratorSpec, n: int, tolerances: Tolerances | None = None,
                   directions: int = 8, workers: int = 1) -> LyapunovSummary:
    """Scan initial directions of generated systems for zero pairs over their first
    LYAPUNOV_PERIODS periods and check the two-zero product bound at each witness, in
    chunks; `workers` does not change the result."""
    tol = tolerances or DEFAULT_TOLERANCES
    chunks = chunked_map(_lyapunov_chunk, range(n), workers,
                         lambda idx: (spec, idx, tol, directions))
    systems = [entry for chunk in chunks for entry in chunk]
    found = [w for entry in systems if entry is not None for w in entry]
    skipped = systems.count(None)
    return LyapunovSummary(mode=spec.mode, seed=spec.seed, n=n, systems_scanned=n - skipped,
                           systems_skipped=skipped, pairs_found=len(found),
                           min_lhs=min((lhs for lhs, _ in found), default=None),
                           failures=tuple(f for _, f in found if f is not None))
