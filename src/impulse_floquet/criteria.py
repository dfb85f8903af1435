"""Sufficient stability tests, each reported condition by condition.

Seven criteria are implemented: three classical impulse-free tests (krein,
guseinov-kaymakcalan, wang), the impulse-aware pair (guseinov-zafer and its
equality-boundary variant), and the sharper exponential-weighted pair (main
and main-boundary). The criteria are data: one table maps each hypothesis
label to its condition over a shared set of cached quantities, and another
lists each criterion's hypotheses in report order. Every check reports each
hypothesis with a signed margin (positive means satisfied with room to
spare), and certifies stability only when all hypotheses hold clear of the
strictness tolerance.

Pointwise minima and maxima (b > 0, b*c - a^2 not identically 0 and the
like) share one helper, `segments_extrema`: exact polynomial extrema from
the derivative's roots. Ratio hypotheses guard against b approaching zero and
degrade to "undecidable" rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

# adaptive_integral stays imported unused: perfbench/spans.py wraps it here.
from .piecewise import (EvaluationError, PolySegment, _chebyshev_nodes, _raising,
                        adaptive_integral, integrate_groups, segment_rows, segments_extrema)
from .system import ImpulsiveSystem
from .tolerances import DEFAULT_TOLERANCES, Tolerances

SATISFIED = "satisfied"
VIOLATED = "violated"
MARGINAL = "marginal"
UNDECIDABLE = "undecidable"

CERTIFIED = "certified-stable"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"

KREIN = "krein"
GUSEINOV_KAYMAKCALAN = "guseinov-kaymakcalan"
GUSEINOV_ZAFER = "guseinov-zafer"
GUSEINOV_ZAFER_BOUNDARY = "guseinov-zafer-boundary"
WANG = "wang"
MAIN = "main"
MAIN_BOUNDARY = "main-boundary"

CRITERION_ORDER = (KREIN, GUSEINOV_KAYMAKCALAN, GUSEINOV_ZAFER,
                   GUSEINOV_ZAFER_BOUNDARY, WANG, MAIN, MAIN_BOUNDARY)


@dataclass(frozen=True)
class Condition:
    label: str
    status: str
    margin: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        """A non-finite margin is printed as null, with a note naming it."""
        margin, note = self.margin, self.note
        if margin is not None and not math.isfinite(margin):
            margin, note = None, "; ".join(filter(None, (note, f"non-finite margin {margin}")))
        return {"label": self.label, "status": self.status, "margin": margin,
                **({"note": note} if note else {})}


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    conditions: tuple[Condition, ...]
    conclusion: str

    def to_json(self) -> dict:
        return {"criterion": self.criterion,
                "conditions": [c.to_json() for c in self.conditions],
                "conclusion": self.conclusion}

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)


@dataclass(frozen=True)
class ConditionCStatus:
    """Which branch of the degeneracy-exclusion alternative holds."""

    branch: str  # "C1" | "C2" | "C3" | "none" | "undecidable"
    detail: str = ""
    nonzero_beta_index: int | None = None
    max_expression: float | None = None


def _status_strict(margin: float, tol_eff: float) -> str:
    if margin > tol_eff:
        return SATISFIED
    if margin >= -tol_eff:
        return MARGINAL
    return VIOLATED


def _cond_upper(label: str, value: float, bound: float, tol: Tolerances) -> Condition:
    margin = bound - value
    return Condition(label, _status_strict(margin, tol.strict * max(1.0, abs(bound))), margin)


def _cond_positive(label: str, value: float, tol: Tolerances) -> Condition:
    return Condition(label, _status_strict(value, tol.strict), value)


def _cond_pointwise_positive(label: str, minval: float, at: float, tol: Tolerances) -> Condition:
    # a touch of zero genuinely breaks a strict pointwise inequality
    if minval <= 0.0:
        status = VIOLATED
    elif minval <= tol.strict:
        status = MARGINAL
    else:
        status = SATISFIED
    return Condition(label, status, minval, note=f"minimum at t={at:.6g}")


def _cond_pointwise_nonneg(label: str, minval: float, at: float, tol: Tolerances) -> Condition:
    if minval >= 0.0:
        status = SATISFIED
    elif minval >= -tol.strict:
        status = MARGINAL
    else:
        status = VIOLATED
    return Condition(label, status, minval, note=f"minimum at t={at:.6g}")


EQUALITY_TOL = 1e-9  # of the equality-type conditions, scaled by the size of their integrals


def _cond_equality(label: str, value: float, scale: float) -> Condition:
    tol_eff = EQUALITY_TOL * max(1.0, scale)
    if not math.isfinite(value):  # -inf beside an infinite scale is no equality
        status = VIOLATED
    elif abs(value) <= tol_eff:
        status = SATISFIED
    elif abs(value) <= 10.0 * tol_eff:
        status = MARGINAL
    else:
        status = VIOLATED
    return Condition(label, status, value)


def _cond_undecidable(label: str, note: str) -> Condition:
    return Condition(label, UNDECIDABLE, None, note)


def _conclude(conditions: list[Condition]) -> str:
    return CERTIFIED if all(c.status == SATISFIED for c in conditions) else INCONCLUSIVE


def _shared_property(fn):
    """A cached quantity of a, b, c and the period alone, kept in `q.shared`."""
    def get(q: "_Quantities"):
        if fn.__name__ not in q.shared:
            q.shared[fn.__name__] = fn(q)
        return q.shared[fn.__name__]
    return property(get, doc=fn.__doc__)


def _shared_condition(build):
    """A hypothesis of a, b, c and the period alone: built once per coefficient set and kept
    in `q.shared`, so it must read only `_shared_property`s and the tolerances."""
    def get(q: "_Quantities") -> Condition:
        if get not in q.shared:
            q.shared[get] = build(q)
        return q.shared[get]
    get.coefficient_only = True
    return get


# The closed-form integrals over one period, by (coefficient, transform).
_CLOSED_FORMS = {"int_abs_a": (0, "abs"), "int_a": (0, "identity"), "int_b": (1, "identity"),
                 "int_c": (2, "identity"), "int_c_plus": (2, "pos"), "int_abs_c": (2, "abs")}


def _closed_form(name: str):
    """The `_shared_property` `name` of `_CLOSED_FORMS`: its integral over one period."""
    def compute(q: "_Quantities"):
        index, transform = _CLOSED_FORMS[name]
        return q.system.coefficients()[index].integrate(0.0, q.system.period, transform)
    compute.__name__ = name
    return _shared_property(compute)


def a2_over_b_integrals(systems) -> list:
    """int(a^2/b) over one period of each system, in one `integrate_groups` call that reads a and b
    from one table, each as if alone: a value, +inf where a^2/b overflows at a finite a (its first
    non-finite value is +inf), or the EvaluationError of a NaN or of a non-finite a."""
    pieces = [s.pieces() for s in systems]
    ab = segment_rows(*([p[j] for ps in pieces for p in ps] for j in (2, 3)))

    def a2_over_b(ts, rows):
        a, b = ab(ts, rows)
        return np.where(np.isinf(a), np.nan, a ** 2 / b)
    return [math.inf if isinstance(v, EvaluationError) and v.value == math.inf else v
            for v in integrate_groups(a2_over_b, [[p[:2] for p in ps] for ps in pieces])]


def _coefficient_key(system: ImpulsiveSystem) -> tuple:
    """Everything a shared quantity reads, with the sign of each number (-0.0 == 0.0)."""
    fs = system.coefficients()
    numbers = [system.period, *(c for f in fs for s in f.segments for c in s.coeffs)]
    return (*fs, tuple(math.copysign(1.0, x) for x in numbers))


class _Quantities:
    """Lazily computed integrals, sums and pointwise extrema of one system; those
    of the coefficients alone are `_shared_property`s, the rest its own."""

    def __init__(self, system: ImpulsiveSystem, tol: Tolerances, shared: dict | None = None):
        self.system = system
        self.tol = tol
        self.shared = {} if shared is None else shared
        self.hypotheses = {}  # label -> Condition, each built once for all criteria

    int_abs_a, int_a, int_b, int_c, int_c_plus, int_abs_c = map(_closed_form, _CLOSED_FORMS)

    @cached_property
    def prod_alpha2(self) -> float:
        return self.system.schedule.alpha_sq_product

    @cached_property
    def sum_ratio(self) -> float:
        return self.system.schedule.ratio_sum()

    @cached_property
    def sum_ratio_plus(self) -> float:
        return self.system.schedule.ratio_sum(positive=True)

    @cached_property
    def sum_abs_ratio(self) -> float:
        return sum(abs(imp.ratio) for imp in self.system.schedule.impulses)

    @cached_property
    def impulse_free(self) -> bool:
        return all(imp.alpha == 1.0 and imp.beta == 0.0
                   for imp in self.system.schedule.impulses)

    @_shared_property
    def min_b(self) -> tuple[float, float]:
        return segments_extrema((lo, hi, sb) for lo, hi, _, sb, _ in self.system.pieces())[:2]

    @_shared_property
    def min_c(self) -> tuple[float, float]:
        return segments_extrema((lo, hi, sc) for lo, hi, _, _, sc in self.system.pieces())[:2]

    @_shared_property
    def bc_a2_extrema(self) -> tuple[float, float, float]:
        return segments_extrema(_bc_minus_a2_pieces(self.system))

    @_shared_property
    def b_safe(self) -> bool:
        return self.min_b[0] > self.tol.strict

    @cached_property
    def pos_mass(self) -> float:
        """int(c+) + sum((beta/alpha)+), floored at zero."""
        return max(self.int_c_plus + self.sum_ratio_plus, 0.0)

    @_shared_property
    def int_a2_over_b(self) -> float | None:
        return _raising(a2_over_b_integrals([self.system]))[0] if self.b_safe else None

    @cached_property
    def mean_condition_value(self) -> float | None:
        """int(c - a^2/b) + sum(beta/alpha), or None when b is not safely positive."""
        if self.int_a2_over_b is None:
            return None
        return self.int_c - self.int_a2_over_b + self.sum_ratio

    @cached_property
    def equality_scale(self) -> float:
        extra = self.int_a2_over_b if self.int_a2_over_b is not None else 0.0
        return self.int_abs_c + extra + self.sum_abs_ratio

    @_shared_property
    def ratio_continuity(self) -> tuple[str, str]:
        """("satisfied"|"violated"|"undecidable", detail) for a/b being continuous."""
        if not self.b_safe:
            return (UNDECIDABLE, "b is not bounded away from zero")
        sys_ = self.system
        a, b = sys_.coeff_a, sys_.coeff_b
        ratios = []
        jumps = []
        for k in sys_.knots[1:-1]:
            rl = a.eval(k, "left") / b.eval(k, "left")
            rr = a.eval(k, "right") / b.eval(k, "right")
            ratios.extend((rl, rr))
            jumps.append((k, abs(rl - rr)))
        scale = 1.0 + max((abs(r) for r in ratios), default=0.0)
        for k, jump in jumps:
            if jump > self.tol.strict * scale:
                return (VIOLATED, f"a/b jumps by {jump:.3g} at t={k:.6g}")
        return (SATISFIED, "")

    @cached_property
    def condition_c(self) -> ConditionCStatus:
        return _condition_c_branch(self)


def _bc_minus_a2_pieces(system: ImpulsiveSystem):
    """(lo, hi, segment) pieces of b*c - a^2."""
    return [(lo, hi, PolySegment(npoly.polysub(npoly.polymul(sb.coeffs, sc.coeffs),
                                               npoly.polymul(sa.coeffs, sa.coeffs))))
            for lo, hi, sa, sb, sc in system.pieces()]


# -- condition (C) ----------------------------------------------------------

def condition_C_status(system: ImpulsiveSystem,
                       tolerances: Tolerances | None = None) -> ConditionCStatus:
    """Branch of the alternative enabling the boundary criteria.

    C1: some impulse strength is nonzero. C2: all strengths vanish and a/b is
    not piecewise-smooth (a one-sided value or derivative mismatch of a/b at a
    breakpoint that is not an impulse time). C3: all strengths vanish, a/b is
    piecewise-smooth, and (a/b)' - c + a^2/b is not identically zero. Without
    a b bounded away from zero the status is undecidable.
    """
    return _Quantities(system, tolerances or DEFAULT_TOLERANCES).condition_c


def _condition_c_branch(q: _Quantities) -> ConditionCStatus:
    system, tol = q.system, q.tol
    for i, imp in enumerate(system.schedule.impulses, start=1):
        if imp.beta != 0.0:
            return ConditionCStatus("C1", f"impulse {i} has nonzero strength",
                                    nonzero_beta_index=i)
    a, b = system.coeff_a, system.coeff_b
    if not q.b_safe:
        return ConditionCStatus(UNDECIDABLE, "b is not bounded away from zero")

    def ratio_and_slope(t: float, side: str) -> tuple[float, float]:
        av, bv = a.eval(t, side), b.eval(t, side)
        ia = a.segment_index(t, side)
        ib = b.segment_index(t, side)
        ap = float(a.segments[ia].derivative()(t))
        bp = float(b.segments[ib].derivative()(t))
        return av / bv, (ap * bv - av * bp) / (bv * bv)

    samples = []
    for k in system.knots[1:-1]:
        samples.append((k, ratio_and_slope(k, "left"), ratio_and_slope(k, "right")))
    magnitudes = [abs(v) for _, lft, rgt in samples for v in (*lft, *rgt)]
    scale = 1.0 + (max(magnitudes) if magnitudes else 0.0)
    for k, (rl, sl), (rr, sr) in samples:
        if system.impulse_at(k) is not None:
            continue
        if abs(rl - rr) > tol.strict * scale or abs(sl - sr) > tol.strict * scale:
            return ConditionCStatus("C2", f"a/b not piecewise-smooth across t={k:.6g}")

    max_expr = 0.0
    max_inputs = 0.0
    for lo, hi, sa, sb, sc in system.pieces():
        ts = _chebyshev_nodes(lo, hi, 65)
        with np.errstate(over="ignore", invalid="ignore"):  # a^2 past the float range reads inf
            av = np.asarray(sa(ts), dtype=float)
            bv = np.asarray(sb(ts), dtype=float)
            cv = np.asarray(sc(ts), dtype=float)
            apv = np.asarray(sa.derivative()(ts), dtype=float)
            bpv = np.asarray(sb.derivative()(ts), dtype=float)
            slope = (apv * bv - av * bpv) / (bv * bv)
            a2_over_b = av * av / bv
            expr = slope - cv + a2_over_b
        max_expr = max(max_expr, float(np.max(np.abs(expr))))
        max_inputs = max(max_inputs, float(np.max(np.abs(slope))),
                         float(np.max(np.abs(cv))), float(np.max(np.abs(a2_over_b))))
    if max_expr > tol.strict * (1.0 + max_inputs) or max_expr == math.inf:
        return ConditionCStatus("C3", f"max |(a/b)' - c + a^2/b| = {max_expr:.3g}",
                                max_expression=max_expr)
    return ConditionCStatus("none", "expression vanishes and all strengths are zero",
                            max_expression=max_expr)


# -- the criteria as data -----------------------------------------------------

LBL_IMPULSE_FREE = "impulse-free"
LBL_B_NONNEG = "b(t) >= 0"
LBL_C_NONNEG = "c(t) >= 0"
LBL_BCA2_NONNEG = "b*c - a^2 >= 0"
LBL_B_POS = "b(t) > 0"
LBL_DET_INTEGRALS = "int(b)*int(c) - int(a)^2 > 0"
LBL_ROOT_SUM_PLAIN = "int|a| + sqrt(int(b)*int(c)) < 2"
LBL_BCA2_NONZERO = "b*c - a^2 not identically 0"
LBL_PROD_ALPHA = "prod(alpha_i^2) = 1"
LBL_MEAN_POS = "int(c - a^2/b) + sum(beta/alpha) > 0"
LBL_MEAN_ZERO = "int(c - a^2/b) + sum(beta/alpha) = 0"
LBL_ROOT_SUM_POS = "int|a| + sqrt(int(b)) * sqrt(int(c+) + sum((beta/alpha)+)) < 2"
LBL_EXP_PRODUCT = "exp(2*int|a|) * int(b) * (int(c+) + sum((beta/alpha)+)) < 4"
LBL_WANG_PRODUCT = "int(b) * int(c+) < 4*exp(-2*int|a|)"
LBL_RATIO_CONT = "a/b continuous on [0, T]"
LBL_CONDITION_C = "condition C (C1/C2/C3)"


def _mean_condition(q: _Quantities, label: str, equality: bool) -> Condition:
    value = q.mean_condition_value
    if value is None:
        return _cond_undecidable(label, "a^2/b integral undecidable: b not bounded away from zero")
    if equality:
        return _cond_equality(label, value, q.equality_scale)
    return _cond_positive(label, value, q.tol)


def _nonzero_condition(q: _Quantities) -> Condition:
    nz = max(abs(q.bc_a2_extrema[0]), abs(q.bc_a2_extrema[2]))
    return Condition(LBL_BCA2_NONZERO, SATISFIED if nz > q.tol.strict * (1.0 + nz) else VIOLATED, nz)


def _condition_c_condition(q: _Quantities) -> Condition:
    st = q.condition_c
    if st.branch in ("C1", "C2", "C3"):
        return Condition(LBL_CONDITION_C, SATISFIED, None, note=f"{st.branch}: {st.detail}")
    if st.branch == UNDECIDABLE:
        return _cond_undecidable(LBL_CONDITION_C, st.detail)
    return Condition(LBL_CONDITION_C, VIOLATED, st.max_expression, note=st.detail)


def _exp_product_condition(q: _Quantities) -> Condition:
    try:
        return _cond_upper(LBL_EXP_PRODUCT, math.exp(2.0 * q.int_abs_a) * q.int_b * q.pos_mass,
                           4.0, q.tol)
    except OverflowError:  # exp(2*int|a|) is not a float: decide in log space
        product = q.int_b * q.pos_mass
        below = product <= 0.0 or 2.0 * q.int_abs_a + math.log(product) < math.log(4.0)
        return Condition(LBL_EXP_PRODUCT, SATISFIED if below else VIOLATED, None,
                         note="exp(2*int|a|) overflows; decided in log space")


def _det_integrals_condition(q: _Quantities) -> Condition:
    try:
        return _cond_positive(LBL_DET_INTEGRALS, q.int_b * q.int_c - q.int_a ** 2, q.tol)
    except OverflowError:  # int(a)^2 is not a float: decide in log space
        above = q.int_b * q.int_c > 0.0 and \
            math.log(abs(q.int_b)) + math.log(abs(q.int_c)) > 2.0 * math.log(abs(q.int_a))
        return Condition(LBL_DET_INTEGRALS, SATISFIED if above else VIOLATED, None,
                         note="int(a)^2 overflows; decided in log space")


# Each hypothesis, keyed by its label, as a function of the shared quantities; those of the
# coefficients alone are `_shared_condition`s.
_CONDITIONS = {
    LBL_B_NONNEG: _shared_condition(
        lambda q: _cond_pointwise_nonneg(LBL_B_NONNEG, *q.min_b, q.tol)),
    LBL_C_NONNEG: _shared_condition(
        lambda q: _cond_pointwise_nonneg(LBL_C_NONNEG, *q.min_c, q.tol)),
    LBL_BCA2_NONNEG: _shared_condition(
        lambda q: _cond_pointwise_nonneg(LBL_BCA2_NONNEG, *q.bc_a2_extrema[:2], q.tol)),
    LBL_B_POS: _shared_condition(lambda q: _cond_pointwise_positive(LBL_B_POS, *q.min_b, q.tol)),
    LBL_DET_INTEGRALS: _shared_condition(_det_integrals_condition),
    LBL_ROOT_SUM_PLAIN: _shared_condition(lambda q: _cond_upper(
        LBL_ROOT_SUM_PLAIN, q.int_abs_a + math.sqrt(max(q.int_b * q.int_c, 0.0)), 2.0, q.tol)),
    LBL_BCA2_NONZERO: _shared_condition(_nonzero_condition),
    LBL_PROD_ALPHA: lambda q: _cond_equality(LBL_PROD_ALPHA, q.prod_alpha2 - 1.0, 1.0),
    LBL_MEAN_POS: lambda q: _mean_condition(q, LBL_MEAN_POS, equality=False),
    LBL_MEAN_ZERO: lambda q: _mean_condition(q, LBL_MEAN_ZERO, equality=True),
    LBL_ROOT_SUM_POS: lambda q: _cond_upper(
        LBL_ROOT_SUM_POS, q.int_abs_a + math.sqrt(max(q.int_b, 0.0)) * math.sqrt(q.pos_mass),
        2.0, q.tol),
    LBL_EXP_PRODUCT: _exp_product_condition,
    LBL_WANG_PRODUCT: _shared_condition(lambda q: _cond_upper(
        LBL_WANG_PRODUCT, q.int_b * q.int_c_plus, 4.0 * math.exp(-2.0 * q.int_abs_a), q.tol)),
    LBL_RATIO_CONT: _shared_condition(lambda q: Condition(
        LBL_RATIO_CONT, q.ratio_continuity[0], note=q.ratio_continuity[1])),
    LBL_CONDITION_C: _condition_c_condition,
}

# Each criterion: (applies only to impulse-free systems, its hypotheses in report order).
_CRITERIA = {
    KREIN: (True, (LBL_B_NONNEG, LBL_C_NONNEG, LBL_BCA2_NONNEG, LBL_DET_INTEGRALS,
                   LBL_ROOT_SUM_PLAIN)),
    GUSEINOV_KAYMAKCALAN: (True, (LBL_B_POS, LBL_C_NONNEG, LBL_BCA2_NONNEG, LBL_BCA2_NONZERO,
                                  LBL_ROOT_SUM_PLAIN)),
    GUSEINOV_ZAFER: (False, (LBL_PROD_ALPHA, LBL_B_POS, LBL_MEAN_POS, LBL_ROOT_SUM_POS)),
    GUSEINOV_ZAFER_BOUNDARY: (False, (LBL_PROD_ALPHA, LBL_ROOT_SUM_POS, LBL_RATIO_CONT,
                                      LBL_B_POS, LBL_MEAN_ZERO, LBL_CONDITION_C)),
    WANG: (True, (LBL_B_POS, LBL_MEAN_POS, LBL_WANG_PRODUCT)),
    MAIN: (False, (LBL_PROD_ALPHA, LBL_B_POS, LBL_MEAN_POS, LBL_EXP_PRODUCT)),
    MAIN_BOUNDARY: (False, (LBL_PROD_ALPHA, LBL_EXP_PRODUCT, LBL_RATIO_CONT,
                            LBL_B_POS, LBL_MEAN_ZERO, LBL_CONDITION_C)),
}


# The one report of each impulse-free-only criterion on a system with genuine impulses.
_NOT_IMPULSE_FREE = {name: CriterionReport(name, (Condition(
    LBL_IMPULSE_FREE, VIOLATED, None, note="criterion applies only without genuine impulses"),),
    NOT_APPLICABLE) for name, (impulse_free_only, _) in _CRITERIA.items() if impulse_free_only}


def _report(name: str, q: _Quantities) -> CriterionReport:
    impulse_free_only, labels = _CRITERIA[name]
    if impulse_free_only and not q.impulse_free:
        return _NOT_IMPULSE_FREE[name]
    for label in labels:
        if label not in q.hypotheses:
            q.hypotheses[label] = _CONDITIONS[label](q)
    conds = tuple(q.hypotheses[label] for label in labels)
    if any(c.label == LBL_RATIO_CONT and c.status == VIOLATED for c in conds):
        return CriterionReport(name, conds, NOT_APPLICABLE)
    return CriterionReport(name, conds, _conclude(conds))


def _check(name: str):
    def check(system: ImpulsiveSystem, tolerances: Tolerances | None = None) -> CriterionReport:
        return _report(name, _Quantities(system, tolerances or DEFAULT_TOLERANCES))
    check.__name__ = check.__qualname__ = "check_" + name.replace("-", "_")
    check.__doc__ = f"The {name} criterion, reported hypothesis by hypothesis."
    return check


check_krein = _check(KREIN)
check_guseinov_kaymakcalan = _check(GUSEINOV_KAYMAKCALAN)
check_guseinov_zafer = _check(GUSEINOV_ZAFER)
check_guseinov_zafer_boundary = _check(GUSEINOV_ZAFER_BOUNDARY)
check_wang = _check(WANG)
check_main = _check(MAIN)
check_main_boundary = _check(MAIN_BOUNDARY)


def evaluate_many(systems, tolerances: Tolerances | None = None) -> list:
    """Entry i is `evaluate_all(systems[i])` or the exception it raises; systems
    with the same `_coefficient_key` (taken once per period and coefficient objects)
    share their coefficient quantities and hypotheses. One `a2_over_b_integrals` call
    takes int(a^2/b) of every distinct key whose b is safely positive; a key whose
    integral failed integrates again where a report reads it, as alone, and raises there."""
    tol = tolerances or DEFAULT_TOLERANCES
    shared, by_objects, qs, out = {}, {}, [], []
    for s in systems:  # qs keeps every system, so no id is reused during the call
        objects = (s.period, *map(id, s.coefficients()))
        if objects not in by_objects:
            by_objects[objects] = shared.setdefault(_coefficient_key(s), {})
        qs.append(_Quantities(s, tol, by_objects[objects]))
    distinct = [q for q in {id(q.shared): q for q in qs}.values() if q.b_safe]
    for q, value in zip(distinct, a2_over_b_integrals([q.system for q in distinct])):
        if not isinstance(value, Exception):
            q.shared["int_a2_over_b"] = value
    for q in qs:
        try:
            out.append([_report(name, q) for name in CRITERION_ORDER])
        except Exception as exc:
            out.append(exc)
    return out


def evaluate_all(system: ImpulsiveSystem,
                 tolerances: Tolerances | None = None) -> list[CriterionReport]:
    """All seven criteria, in fixed order, sharing one set of quantities."""
    return _raising(evaluate_many([system], tolerances))[0]


def any_certified(reports) -> bool:
    return any(r.conclusion == CERTIFIED for r in reports)
