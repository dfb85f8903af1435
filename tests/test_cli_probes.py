"""Inputs that once ended in a wrong verdict, a traceback or a hang, and the
tightest relative tolerance: each must end in a documented exit code."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

import impulse_floquet
from impulse_floquet import (Impulse, ImpulseSchedule, ImpulsiveSystem, InvalidSystemError,
                             PiecewiseFunction, monodromy, validate_system)

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
