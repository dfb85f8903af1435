"""Inputs that once ended in a wrong verdict, a traceback or a hang, and the
tightest relative tolerance: each must end in a documented exit code."""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import impulse_floquet
from impulse_floquet import (Impulse, ImpulseSchedule, ImpulsiveSystem, InvalidSystemError,
                             PiecewiseFunction, monodromy, validate_system)

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
