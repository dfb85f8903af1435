"""Inputs that once ended in a wrong verdict, a traceback or a hang, and the
tightest relative tolerance: each must end in a documented exit code."""

import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import impulse_floquet
from impulse_floquet import (DEFAULT_TOLERANCES, Impulse, ImpulseSchedule, ImpulsiveSystem,
                             InvalidSystemError, PiecewiseFunction, PolySegment, descriptors,
                             lyapunov_lhs, monodromy, validate_system)
from impulse_floquet import criteria as crit
from impulse_floquet.piecewise import EvaluationError

from perfbench.inputs import sweep_descriptor
from test_cli import rotation_descriptor, run, write_descriptor


def probe(field, value):
    doc = rotation_descriptor(T=1.0, impulses=[(0.5, 2.0, 0.5)])
    if field == "poly":
        doc["coefficients"]["c"][0]["poly"] = [value]
    else:
        doc["impulses"][0][field] = value
    return doc


@pytest.mark.parametrize("field, value, named", [
    ("tau", math.nan, "impulses[0].tau"),
    ("alpha", math.inf, "impulses[0].alpha"),
    ("beta", math.nan, "impulses[0].beta"),
    ("alpha", -math.inf, "impulses[0].alpha"),
])
def test_non_finite_impulse_number_exits_2(tmp_path, capsys, field, value, named):
    path = write_descriptor(tmp_path, probe(field, value))
    rc, out, err = run(capsys, ["analyze", "--input", path])
    assert rc == 2
    assert named in err and "finite" in err


def test_non_finite_coefficient_exits_2_without_hanging(tmp_path):
    path = write_descriptor(tmp_path, probe("poly", math.nan))
    src = os.path.dirname(os.path.dirname(impulse_floquet.__file__))
    proc = subprocess.run([sys.executable, "-m", "impulse_floquet.cli", "analyze", "--input", path],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "coefficients.c[0].poly[0]" in proc.stderr


def test_number_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    text = json.dumps(probe("beta", 0.0)).replace('"beta": 0.0', '"beta": 1' + "0" * 400)
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert rc == 2 and "impulses[0].beta" in err


@pytest.mark.parametrize("field", ["tau", "alpha", "beta"])
def test_validate_system_reports_non_finite_impulse_numbers(field):
    values = {"tau": 0.5, "alpha": 2.0, "beta": 0.5, field: math.nan}
    one = PiecewiseFunction.constant(1.0, 1.0)
    sys_ = ImpulsiveSystem(PiecewiseFunction.constant(0.0, 1.0), one, one,
                           ImpulseSchedule(1.0, (Impulse(**values),)))
    violations = validate_system(sys_)
    assert any(f"{field}=nan" in v and "not finite" in v for v in violations)
    with pytest.raises(InvalidSystemError):
        monodromy(sys_)


def test_tiny_relative_tolerance_exits_0(tmp_path, capsys):
    doc = rotation_descriptor(T=1.0, impulses=[(0.4, 1.5, 0.3)])
    doc["coefficients"]["c"] = [{"end": 0.6, "poly": [4.0, 1.0, -2.0]},
                                {"end": 1.0, "poly": [2.0, 0.5]}]
    path = write_descriptor(tmp_path, doc)
    rc, out, err = run(capsys, ["analyze", "--input", path, "--tol-rel", "1e-16"])
    assert rc == 0, err
    rc, default, _ = run(capsys, ["analyze", "--input", path])
    assert json.loads(out)["monodromy"]["trace"] == pytest.approx(
        json.loads(default)["monodromy"]["trace"], abs=1e-9)


def _cubic_probe(where):
    """T = 1000, b = 1, c = 1, a = 0, except that `where` is a cubic with
    coefficients of size 4e8 (values -1.7 to -98) on [993.63, 1000]."""
    doc = rotation_descriptor(T=1000.0)
    first = doc["coefficients"][where][0]["poly"]
    doc["coefficients"][where] = [{"end": 993.6280168780241, "poly": first},
                                  {"end": 1000.0,
                                   "poly": [431335316.0, -1301805.72, 1309.65279, -0.439182484]}]
    return doc


def _criteria_in_subprocess(path):
    src = os.path.dirname(os.path.dirname(impulse_floquet.__file__))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "impulse_floquet.cli", "criteria", "--input", path],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    return proc, time.perf_counter() - start


def test_noisy_a_squared_integral_exits_0(tmp_path):
    # a^2/b stays adaptive; its rounding noise exceeds every panel tolerance
    proc, _ = _criteria_in_subprocess(write_descriptor(tmp_path, _cubic_probe("a")))
    assert proc.returncode == 0, proc.stderr
    assert "panel splits" in proc.stderr
    assert len(json.loads(proc.stdout)["criteria"]) == 7


def test_cubic_c_integrals_exit_0_quickly(tmp_path):
    # int(c), int(c+) and int|c| are closed-form for a polynomial c
    proc, seconds = _criteria_in_subprocess(write_descriptor(tmp_path, _cubic_probe("c")))
    assert proc.returncode == 0, proc.stderr
    assert seconds < 2.0


def test_criteria_evaluation_error_exits_3_with_one_line(tmp_path, capsys):
    # c = 0.5 + 1e300 t^10 on a period of 10 overflows inside the criteria quadrature
    doc = rotation_descriptor(T=10.0)
    doc["coefficients"]["c"] = [{"end": 10.0, "poly": [0.5] + [0.0] * 9 + [1e300]}]
    path = write_descriptor(tmp_path, doc)
    for command, named in (("criteria", "non-finite segment value"),
                           ("analyze", "non-finite step map")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, [command, "--input", path])
        assert caught == [], [str(w.message) for w in caught]
        assert rc == 3 and out == "", command
        messages = [line for line in err.splitlines() if line.startswith("integration failure: ")]
        assert len(messages) == 1 and named in messages[0]
        assert "Traceback" not in err


def test_analyze_with_an_overflowing_determinant_records_no_warning(tmp_path, capsys):
    # alpha = 1e300: the period map is finite, its integrated determinant is not
    path = write_descriptor(tmp_path, probe("alpha", 1e300))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, ["analyze", "--input", path])
    assert caught == [], [str(w.message) for w in caught]
    assert rc in (0, 3) and "Traceback" not in err


def test_subnormal_top_coefficient_exits_0(tmp_path, capsys):
    # dividing by the top coefficient 1e-320 overflows the root finder's companion matrix
    doc = rotation_descriptor(T=1.0)
    doc["coefficients"]["c"] = [{"end": 1.0, "poly": [1.0, 0.5, 0.3, 1e-320]}]
    path = write_descriptor(tmp_path, doc)
    for command in ("criteria", "analyze"):
        rc, out, err = run(capsys, [command, "--input", path])
        assert rc == 0 and "Traceback" not in err, command
        assert len(json.loads(out)["criteria"]) == 7


@pytest.mark.parametrize("period", [1e-300, 1e-13, 1e-12])
def test_period_at_or_below_knot_tolerance_exits_2(tmp_path, capsys, period):
    path = write_descriptor(tmp_path, rotation_descriptor(T=period))
    rc, out, err = run(capsys, ["analyze", "--input", path])
    assert rc == 2 and out == ""
    assert "knot tolerance" in err
    one = PiecewiseFunction.constant(1.0, period)
    assert any("period" in v for v in validate_system(ImpulsiveSystem(
        one, one, one, ImpulseSchedule(period, ()))))


def test_importing_the_cli_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(impulse_floquet.__file__))
    code = ("import sys, impulse_floquet.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("extra", [
    ["--samples-per-period", "0"],  # once a ZeroDivisionError traceback
    ["--samples-per-period", "-2"],  # once only the final row
    ["--periods", "-5"],  # once the header alone
    ["--x0", "nan"],
    ["--u0", "inf"],
])
def test_simulate_argument_out_of_range_exits_2(tmp_path, capsys, extra):
    path = write_descriptor(tmp_path, rotation_descriptor())
    rc, out, err = run(capsys, ["simulate", "--input", path, "--periods", "3", *extra])
    assert rc == 2 and out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("field, value, commands", [
    ("beta", 1e308, ("analyze",)),  # det_integrated and a multiplier overflow
    ("alpha", 1e300, ("analyze", "criteria")),  # the det, det_integrated and margins overflow
])
def test_non_finite_json_numbers_print_as_null(tmp_path, capsys, field, value, commands):
    doc = sweep_descriptor(0)
    doc["impulses"][0][field] = value
    path = write_descriptor(tmp_path, doc)
    for command in commands:
        rc, out, _ = run(capsys, [command, "--input", path])
        parsed = json.loads(out, parse_constant=_reject)
        assert rc == 0
        nulls = [c for r in parsed["criteria"] for c in r["conditions"]
                 if c["margin"] is None and "non-finite margin" in c.get("note", "")]
        assert len(nulls) == (4 if field == "alpha" else 0)
        if command == "analyze":
            assert parsed["monodromy"]["det_integrated"] is None


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, a hang included."""
    def expire(*_):
        raise TimeoutError(f"not done within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command, flags", [
    ("analyze", ["--tol-rel", "nan"]),  # once 65,536 steps per piece, then exit 3
    ("analyze", ["--tol-abs", "-1"]),  # the same
    ("criteria", ["--tol-strict", "nan"]),  # once exit 0, every strict condition violated
    ("disconjugacy", ["--t1", "nan", "--t2", "0.5"]),  # once a traceback from split_period
    ("disconjugacy", ["--t1", "0", "--t2", "inf"]),  # once an endless walk over periods
    ("disconjugacy", ["--t1", "0.5", "--t2", "0.2"]),  # once a traceback from disconjugacy_test
])
def test_invalid_flag_value_exits_2_at_once(tmp_path, capsys, command, flags):
    path = write_descriptor(tmp_path, rotation_descriptor())
    with _within(2.0):
        rc, out, err = run(capsys, [command, "--input", path, *flags])
    assert rc == 2 and out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert flags[0] in err


def test_negative_selftest_count_exits_2(capsys):
    # once exit 0 with "n": -3 in the summary; --n 0 stays valid (test_empty_sweep)
    with _within(2.0):
        rc, out, err = run(capsys, ["selftest", "--n", "-3"])
    assert rc == 2 and out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert "--n" in err


def _end_at_the_period(second_end):
    doc = rotation_descriptor(T=1.0)
    doc["coefficients"]["a"] = [{"end": 1.0, "poly": [0.0]}, {"end": second_end, "poly": [0.5]}]
    return doc


def test_segment_end_at_the_period_before_the_last_exits_2(tmp_path, capsys):
    # the last end lies within 1e-9 of the period; the first end at the period
    # was once a ValueError traceback from PiecewiseFunction
    path = write_descriptor(tmp_path, _end_at_the_period(1.0000000005))
    with _within(2.0):
        rc, out, err = run(capsys, ["analyze", "--input", path])
    assert rc == 2 and out == ""
    assert err == "invalid input: coefficients.a[0].end: 1.0 not below the period 1.0\n"


def test_sweep_moving_an_end_onto_the_period_gives_an_error_row(tmp_path, capsys):
    doc = _end_at_the_period(1.0000000005)
    doc["coefficients"]["a"][0]["end"] = 0.5
    path = write_descriptor(tmp_path, doc)
    with _within(2.0):
        rc, out, _ = run(capsys, ["sweep", "--input", path,
                                  "--axes", "coefficients.a[0].end=0.9:1.0:3"])
    rows = out.splitlines()[1:]
    assert rc == 0 and len(rows) == 3
    assert all(row.endswith(",ok") for row in rows[:2])
    assert rows[2].endswith("error: coefficients.a[0].end: 1.0 not below the period 1.0")


def test_simulate_rows_at_an_impulse_time_carry_the_jump(tmp_path, capsys):
    # x flips sign at t = k + 0.1; on 28 of those rows the grid time k * 10 * 0.1
    # + 0.1 rounds to within the knot tolerance below the impulse, where a grid
    # read once took the piece before the jump (the first at t = 8.1)
    doc = rotation_descriptor(T=1.0, c=0.0, impulses=[(0.1, -1.0, 0.0)])
    doc["coefficients"]["b"][0]["poly"] = [0.0]
    path = write_descriptor(tmp_path, doc)
    with _within(2.0):
        rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "1000",
                                  "--samples-per-period", "10"])
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    at_impulse = rows[1::10]
    assert rc == 0 and len(at_impulse) == 1000
    assert [round(t - 0.1) for t, *_ in at_impulse] == list(range(1000))
    assert [x for _, x, *_ in at_impulse] == [(-1.0) ** (k + 1) for k in range(1000)]


def _twice_at(tau):
    return rotation_descriptor(T=1.0, impulses=[(tau, 2.0, 0.5), (tau, 2.0, 0.5)])


@pytest.mark.parametrize("command, flags", [
    ("analyze", []), ("criteria", []), ("simulate", ["--periods", "3"]),
    ("disconjugacy", ["--t1", "0", "--t2", "1"]),
])
def test_duplicate_impulse_times_exit_2(tmp_path, capsys, command, flags):
    # once a ValueError traceback from PiecewiseFunction, reached through
    # with_breakpoints before validate_system could reject the schedule
    path = write_descriptor(tmp_path, _twice_at(0.5))
    with _within(2.0):
        rc, out, err = run(capsys, [command, "--input", path, *flags])
    assert rc == 2 and out == ""
    assert err == "invalid input: impulse 2: tau=0.5 not greater than previous impulse time\n"


@pytest.mark.parametrize("axes", [
    ["impulses[0].beta=0:1:1000000000000000"],  # once a numpy _ArrayMemoryError traceback
    ["impulses[0].beta=0:1:1001", "impulses[0].alpha=0.5:1.5:1000"],
])
def test_sweep_of_over_a_million_points_exits_2_at_once(tmp_path, capsys, axes):
    path = write_descriptor(tmp_path, rotation_descriptor(T=1.0, impulses=[(0.5, 2.0, 0.5)]))
    with _within(2.0):
        rc, out, err = run(capsys, ["sweep", "--input", path,
                                    *(flag for axis in axes for flag in ("--axes", axis))])
    assert rc == 2 and out == ""
    assert err == "invalid input: sweep grid of more than 1000000 points\n"


@pytest.mark.parametrize("extra", [
    ["--periods", str(10 ** 15)],  # once a numpy _ArrayMemoryError traceback
    ["--periods", "125000", "--samples-per-period", "32"],  # one row past the limit
])
def test_simulate_of_over_four_million_rows_exits_2_at_once(tmp_path, capsys, extra):
    path = write_descriptor(tmp_path, rotation_descriptor())
    out_path = tmp_path / "o.csv"
    tracemalloc.start()
    try:
        with _within(2.0):
            rc, out, err = run(capsys, ["simulate", "--input", path, *extra,
                                        "--output", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and not out_path.exists()
    assert err == "invalid input: simulate of more than 4000000 rows\n"
    assert peak < 1e6, peak  # rejected before any array is made


def test_sweep_moving_an_impulse_onto_another_gives_an_error_row(tmp_path, capsys):
    doc = rotation_descriptor(T=1.0, impulses=[(0.5, 2.0, 0.5), (0.7, 0.5, -0.5)])
    path = write_descriptor(tmp_path, doc)
    with _within(2.0):
        rc, out, _ = run(capsys, ["sweep", "--input", path,
                                  "--axes", "impulses[1].tau=0.3:0.7:5"])
    rows = {float(row.split(",")[0]): row for row in out.splitlines()[1:]}
    assert rc == 0 and len(rows) == 5
    assert rows[0.5].endswith(",error: impulse 2: tau=0.5 not greater than previous impulse time")
    assert rows[0.6].endswith(",ok") and rows[0.7].endswith(",ok")


def test_disconjugacy_with_a_product_past_the_float_range_exits_0(tmp_path, capsys):
    # a = 10: at t0 = 36, e^(2A(t0)) = e^720 is no float; the supremum reads as inf
    doc = rotation_descriptor(T=1.0)
    doc["coefficients"]["a"] = [{"end": 1.0, "poly": [10.0]}]
    path = write_descriptor(tmp_path, doc)
    rc, out, err = run(capsys, ["disconjugacy", "--input", path, "--t1", "0", "--t2", "36"])
    assert rc == 0 and "Traceback" not in err
    result = json.loads(out)
    assert result["test"]["status"] == "inconclusive" and result["test"]["sup_value"] is None
    assert result["oracle"] == "disconjugate"
    rc, out, _ = run(capsys, ["disconjugacy", "--input", path, "--t1", "0", "--t2", "35.4"])
    assert rc == 0 and 1e307 < json.loads(out)["test"]["sup_value"] < math.inf
    system = descriptors.system_from_descriptor(doc)
    assert lyapunov_lhs(system, 0.0, 36.0, 35.9) == math.inf


def test_criteria_with_the_a_integral_squared_past_the_float_range_exits_0(tmp_path, capsys):
    # int(a) = 2e154 over T = 100: int(a)^2 is no float, so int(b)*int(c) - int(a)^2 > 0 is
    # violated with a null margin
    doc = rotation_descriptor(T=100.0)
    doc["coefficients"]["a"] = [{"end": 100.0, "poly": [2e152]}]
    rc, out, err = run(capsys, ["criteria", "--input", write_descriptor(tmp_path, doc)])
    assert rc == 0 and "Traceback" not in err
    conditions = [c for report in json.loads(out)["criteria"] for c in report["conditions"]
                  if c["label"] == "int(b)*int(c) - int(a)^2 > 0"]
    assert conditions and all(c["status"] == "violated" and c["margin"] is None
                              for c in conditions)


def test_criteria_with_a_squared_past_the_float_range_in_the_a2_over_b_integral_exits_0(
        tmp_path, capsys):
    # over T = 1, a = 2e154 overflows a^2 inside the integrand of int(a^2/b), which once
    # ended in exit 3; a finite a with b safely positive reads the integral as +inf
    doc = rotation_descriptor(T=1.0)
    doc["coefficients"]["a"] = [{"end": 1.0, "poly": [2e154]}]
    rc, out, err = run(capsys, ["criteria", "--input", write_descriptor(tmp_path, doc)])
    assert rc == 0 and "Traceback" not in err
    conditions = {(report["criterion"], c["label"]): c for report in json.loads(out)["criteria"]
                  for c in report["conditions"]}
    for name, label in (("main", crit.LBL_MEAN_POS), ("guseinov-zafer", crit.LBL_MEAN_POS),
                        ("main-boundary", crit.LBL_MEAN_ZERO)):
        assert conditions[name, label] == {"label": label, "status": "violated", "margin": None,
                                           "note": "non-finite margin -inf"}
    assert conditions["main-boundary", crit.LBL_CONDITION_C]["status"] == "satisfied"
    # an a that is itself past the float range, or a NaN, still raises
    past = PiecewiseFunction(1.0, (0.9,), (PolySegment((0.0,)), PolySegment((1e308, 1e308))))
    nan = PiecewiseFunction.from_callable(lambda t: np.full_like(t, np.nan), 1.0)
    one = PiecewiseFunction.constant(1.0, 1.0)
    for a in (past, nan):
        q = crit._Quantities(ImpulsiveSystem(a, one, one, ImpulseSchedule(1.0)),
                             DEFAULT_TOLERANCES)
        with pytest.raises(EvaluationError, match="non-finite segment value"):
            q.int_a2_over_b
