"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its runtime. Run with -s to see the lines."""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from impulse_floquet import (PiecewiseFunction, State, check_krein, check_main_boundary,
                             check_wang, classify, cli, condition_C_status,
                             find_zero_pair, lyapunov_verify, monodromy,
                             disconjugacy_oracle, disconjugacy_test)
from impulse_floquet.criteria import CERTIFIED, LBL_ROOT_SUM_PLAIN, SATISFIED
from impulse_floquet.floquet import CONDITIONALLY_STABLE, STABLE
from impulse_floquet.harness import (FORCE_GUSEINOV_ZAFER, FORCE_MAIN, POSITIVE_B,
                                     GeneratorSpec, generate, lyapunov_sweep,
                                     soundness_sweep)
from impulse_floquet.lyapunov import DISCONJUGATE, DISCONJUGATE_CERTIFIED, NOT_DISCONJUGATE

from helpers import make_system, rotation_system

PI_SQ = math.pi ** 2
INV_PI = 0.3183098861837907


def report(number, description, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"acceptance {number:>2} {status}: {description} "
          f"({elapsed:.1f}s / budget {budget:.0f}s){extra}")
    assert ok, f"criterion {number}: {description}{extra}"
    assert elapsed < budget, f"criterion {number}: runtime {elapsed:.1f}s over budget"


@pytest.fixture(scope="module")
def force_main_500():
    spec = GeneratorSpec(seed=42, mode=FORCE_MAIN, margin=1e-3)
    start = time.monotonic()
    summary = soundness_sweep(spec, 500)
    return spec, summary, time.monotonic() - start


def test_criterion_1_rotation_oracle():
    start = time.monotonic()
    worst = 0.0
    for T in np.linspace(0.1, 6.2, 52)[1:-1]:
        m = monodromy(rotation_system(float(T)))
        worst = max(worst, abs(m.trace - 2.0 * math.cos(T)))
    elapsed = time.monotonic() - start
    report(1, "trace equals 2*cos(T) within 1e-8 over 50 periods", worst <= 1e-8,
           elapsed, 5.0, f"worst error {worst:.2e}")


def test_criterion_2_determinant_identity():
    start = time.monotonic()
    worst = 0.0
    for i in range(300):
        sys_ = generate(GeneratorSpec(seed=2000 + i, mode="unconstrained"))
        m = monodromy(sys_)
        err = abs(m.det_integrated - m.det) / max(1.0, m.det)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    report(2, "integrated determinant matches impulse product (300 systems)",
           worst <= 1e-8, elapsed, 60.0, f"worst error {worst:.2e}")


def test_criterion_3_main_soundness(force_main_500):
    spec, summary, elapsed = force_main_500
    bad_trace = [r for r in summary.records if r.trace * r.trace >= 4.0]
    bad_det = [r for r in summary.records if abs(r.det - 1.0) > 1e-9]
    ok = (not summary.violations and not bad_trace and not bad_det
          and summary.certified_counts["main"] == 500
          and summary.min_gap is not None and summary.min_gap > 0.0)
    report(3, "500 forced product-criterion systems all stable", ok, elapsed, 120.0,
           f"min gap 4-trace^2 = {summary.min_gap:.3e}")


def test_criterion_4_guseinov_zafer_soundness():
    start = time.monotonic()
    spec = GeneratorSpec(seed=4242, mode=FORCE_GUSEINOV_ZAFER, margin=1e-3)
    summary = soundness_sweep(spec, 500)
    elapsed = time.monotonic() - start
    bad_trace = [r for r in summary.records if r.trace * r.trace >= 4.0]
    bad_det = [r for r in summary.records if abs(r.det - 1.0) > 1e-9]
    ok = (not summary.violations and not bad_trace and not bad_det
          and summary.certified_counts["guseinov-zafer"] == 500
          and summary.min_gap is not None and summary.min_gap > 0.0)
    report(4, "500 forced root-sum-criterion systems all stable", ok, elapsed, 120.0,
           f"min gap 4-trace^2 = {summary.min_gap:.3e}")


def test_criterion_5_impulse_free_soundness():
    start = time.monotonic()
    wang_total = krein_total = cross = 0
    ok = True
    for i in range(300):
        a_amp = 0.0 if i < 150 else None
        sys_ = generate(GeneratorSpec(seed=5000 + i, mode=FORCE_MAIN, margin=1e-3,
                                      impulse_range=(0, 0), a_amplitude=a_amp))
        wang = check_wang(sys_)
        krein = check_krein(sys_)
        verdict = classify(monodromy(sys_))
        if wang.conclusion == CERTIFIED:
            wang_total += 1
            ok = ok and verdict.category == STABLE
        if krein.conclusion == CERTIFIED:
            krein_total += 1
            ok = ok and verdict.category == STABLE
        if i < 150 and wang.conclusion == CERTIFIED:
            pointwise = [c for c in krein.conditions
                         if c.label in ("b(t) >= 0", "c(t) >= 0", "b*c - a^2 >= 0")]
            if all(c.status == SATISFIED for c in pointwise):
                ok = ok and krein.condition(LBL_ROOT_SUM_PLAIN).status == SATISFIED
                cross += 1
    ok = ok and wang_total == 300 and cross > 0
    elapsed = time.monotonic() - start
    report(5, "300 impulse-free hypothesis-satisfying systems all stable", ok,
           elapsed, 120.0,
           f"wang {wang_total}, krein {krein_total}, cross-consistent {cross}")


def test_criterion_6_lyapunov_inequality():
    start = time.monotonic()
    spec = GeneratorSpec(seed=6000, mode=POSITIVE_B, amplitude=1.8)
    summary = lyapunov_sweep(spec, 100, directions=6)
    sine = make_system(0.0, 1.0, PI_SQ)
    pair = find_zero_pair(sine, State(0.0, 0.0, 1.0), (0.0, 1.5))
    witness = lyapunov_verify(sine, pair)
    ok = (not summary.failures and summary.pairs_found > 0
          and abs(witness.lhs - PI_SQ) <= 1e-6)
    elapsed = time.monotonic() - start
    report(6, "every found zero pair satisfies the product bound", ok, elapsed, 180.0,
           f"{summary.pairs_found} pairs, min lhs {summary.min_lhs:.4f}, "
           f"sine case lhs {witness.lhs:.9f}")


def test_criterion_7_disconjugacy_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    certified = disagreements = 0
    for i in range(200):
        sys_ = generate(GeneratorSpec(seed=7000 + i, mode=POSITIVE_B, amplitude=1.5))
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = t1 + float(rng.uniform(0.15, 1.8))
        chk = disconjugacy_test(sys_, t1, t2)
        if chk.status == DISCONJUGATE_CERTIFIED:
            certified += 1
            if disconjugacy_oracle(sys_, t1, t2) == NOT_DISCONJUGATE:
                disagreements += 1
    sine = make_system(0.0, 1.0, PI_SQ)
    plain = rotation_system(1.0)
    c1 = disconjugacy_test(plain, 0.0, 1.0)
    c2 = disconjugacy_test(sine, 0.0, 0.5)
    c3 = disconjugacy_test(sine, 0.0, 1.01)
    closed = (c1.status == DISCONJUGATE_CERTIFIED
              and abs(c1.sup_value - 1.0) < 1e-9
              and disconjugacy_oracle(plain, 0.0, 1.0) == DISCONJUGATE
              and c2.status == DISCONJUGATE_CERTIFIED
              and abs(c2.sup_value - PI_SQ / 4.0) < 1e-9
              and disconjugacy_oracle(sine, 0.0, 0.5) == DISCONJUGATE
              and c3.status == "inconclusive"
              and disconjugacy_oracle(sine, 0.0, 1.01) == NOT_DISCONJUGATE)
    ok = disagreements == 0 and certified > 0 and closed
    elapsed = time.monotonic() - start
    report(7, "certificates never contradict the brute-force oracle", ok, elapsed,
           180.0, f"{certified}/200 certified, closed forms ok={closed}")


def test_criterion_8_boundary_machinery():
    start = time.monotonic()
    c = PiecewiseFunction.from_callable(lambda t: np.cos(2 * np.pi * t), 1.0)
    sys_ = make_system(0.0, 1.0, c)
    rep = check_main_boundary(sys_)
    status = condition_C_status(sys_)
    int_c_plus = sys_.coeff_c.integrate(0.0, 1.0, "pos")
    verdict = classify(monodromy(sys_))
    ok = (rep.conclusion == CERTIFIED and status.branch == "C3"
          and abs(int_c_plus - INV_PI) <= 1e-9
          and verdict.category == STABLE)
    elapsed = time.monotonic() - start
    report(8, "cosine boundary case certified with branch C3 and stable", ok,
           elapsed, 30.0,
           f"int c+ = {int_c_plus:.12f} (target {INV_PI:.12f}), "
           f"trace {verdict.trace:.6f}")


def test_criterion_9_classification_edge(tmp_path, capsys):
    start = time.monotonic()
    sys_ = make_system(0.0, 0.0, 0.0,
                       impulses=[(0.25, 2.0, 1.0), (0.75, 0.5, 0.0)])
    verdict = classify(monodromy(sys_))
    doc = {
        "period": 1.0,
        "coefficients": {k: [{"end": 1.0, "poly": [0.0]}] for k in "abc"},
        "impulses": [{"tau": 0.25, "alpha": 2.0, "beta": 1.0},
                     {"tau": 0.75, "alpha": 0.5, "beta": 0.0}],
    }
    path = tmp_path / "unipotent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["simulate", "--input", str(path), "--periods", "100",
                   "--samples-per-period", "4", "--x0", "1", "--u0", "0"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))[1:]
    final_u = float(rows[-1][2])
    ok = (verdict.category == CONDITIONALLY_STABLE and rc == 0
          and abs(abs(final_u) - 50.0) <= 0.01 * 50.0)
    elapsed = time.monotonic() - start
    report(9, "unipotent system conditionally stable with linear growth", ok,
           elapsed, 30.0, f"|u| after 100 periods = {abs(final_u):.6f}")


def test_criterion_10_determinism(force_main_500):
    spec, summary, _ = force_main_500
    start = time.monotonic()
    again = soundness_sweep(spec, 500)
    elapsed = time.monotonic() - start
    same = summary.to_json_text() == again.to_json_text()
    report(10, "repeating the forced sweep yields byte-identical JSON", same,
           elapsed, 150.0, f"{len(summary.to_json_text())} bytes compared")
