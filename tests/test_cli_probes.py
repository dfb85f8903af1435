"""Inputs that once ended in a wrong verdict, a traceback or a hang, and the
tightest relative tolerance: each must end in a documented exit code."""

import json
import math
import os
import subprocess
import sys

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
