"""`simulate` CSV bytes, its argument ranges and overflow, and the batched
period powers behind it."""

import csv
import hashlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import cli
from impulse_floquet.propagation import _mat_pows

from test_cli import rotation_descriptor, run, write_descriptor


def _varied():
    """Polynomial a and c over T = 1.3 and two impulses with alpha = -1 and +1."""
    doc = rotation_descriptor(T=1.3, impulses=[(0.3, -1.0, 0.4), (0.9, 1.0, -0.2)])
    doc["coefficients"]["a"] = [{"end": 0.6, "poly": [0.1, -0.05]},
                                {"end": 1.3, "poly": [-0.02, 0.03]}]
    doc["coefficients"]["c"] = [{"end": 0.6, "poly": [1.0, 0.2, -0.1]},
                                {"end": 1.3, "poly": [1.1]}]
    return doc


# SHA-256 of the CSV bytes as csv.writer wrote them (x86-64, numpy 2.4); the
# first case is longer than one block of rows.
GOLDEN = {
    "unit_alpha_200x32": (
        _varied(), ["--periods", "200"], 6402,
        "c334a97dc9b5f07e51bd73033b4990203de874be6f8a83e3a6557e5d621fa07a"),
    "other_alpha_37x7": (
        rotation_descriptor(T=0.8, c=2.0, impulses=[(0.25, 1.7, 0.3), (0.6, 0.5, -0.1)]),
        ["--periods", "37", "--samples-per-period", "7", "--x0", "0.3", "--u0", "-2"], 261,
        "fe36af56f218ab2b8d72a23d96394c5a3125c27e59b350c70772d9586d49e17a"),
    "overflow_1000x2": (
        rotation_descriptor(T=1.0, c=-1.0), ["--periods", "1000", "--samples-per-period", "2"],
        2002, "0eb5659393a8de0fbe21dce4bfe2f5d6111a96961e9b40a8547c7aa2dcd9b41e"),
    "zero_periods": (
        _varied(), ["--periods", "0"], 1,
        "21192bd4c2393537101a7231c58602334cd9ba335c3d54a943ed92ea926c6ef3"),
    "one_period_1x1": (
        _varied(), ["--periods", "1", "--samples-per-period", "1"], 3,
        "56b408a667d0808c024012b74df5cb6398e9df1fa4a8fd70f43335358f5df2bf"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the bytes alone; warnings are tested below
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_the_golden_digest(tmp_path, capsys, name):
    doc, extra, lines, digest = GOLDEN[name]
    path = write_descriptor(tmp_path, doc)
    out_path = tmp_path / "out.csv"
    rc, _, _ = run(capsys, ["simulate", "--input", path, *extra, "--output", str(out_path)])
    assert rc == 0
    written = out_path.read_bytes()
    rc, out, _ = run(capsys, ["simulate", "--input", path, *extra])
    assert rc == 0 and out.encode() == written
    assert written.count(b"\r\n") == lines
    assert hashlib.sha256(written).hexdigest() == digest


def test_rows_are_the_csv_writer_rows_of_the_same_values(tmp_path, capsys):
    path = write_descriptor(tmp_path, _varied())
    rc, out, _ = run(capsys, ["simulate", "--input", path, "--periods", "3"])
    rows = list(csv.reader(io.StringIO(out)))
    buf = io.StringIO()
    csv.writer(buf).writerows([rows[0]] + [[float(v) for v in row] for row in rows[1:]])
    assert rc == 0 and buf.getvalue() == out


def test_overflow_prints_no_warning_and_ends_non_finite(tmp_path, capsys):
    # a = 0, b = 1, c = -1: trace 2 cosh 1, the powers overflow within 1000 periods
    path = write_descriptor(tmp_path, rotation_descriptor(T=1.0, c=-1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, ["simulate", "--input", path, "--periods", "1000",
                                    "--samples-per-period", "2"])
    assert caught == [], [str(w.message) for w in caught]
    assert rc == 0 and err == ""
    last = [float(v) for v in out.splitlines()[-1].split(",")]
    assert last[0] == 1000.0 and not any(math.isfinite(v) for v in last[1:])


def test_a_long_run_stays_below_the_memory_of_one_string(tmp_path):
    # csv.writer into one buffer peaked at 10.2 MB for 1000 x 32 rows
    path = write_descriptor(tmp_path, _varied())
    argv = ["simulate", "--input", path, "--periods", "1000", "--output", str(tmp_path / "o.csv")]
    cli.main(argv)  # parser and imports outside the measurement
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.0e6, peak


def _mat_pow(M, k, cache):
    """Reference: M**k by binary expansion, cache holds M**(2**j)."""
    out = None
    j = 0
    while (1 << j) <= k:
        if len(cache) <= j:
            cache.append(cache[j - 1] @ cache[j - 1])
        if k & (1 << j):
            out = cache[j] if out is None else cache[j] @ out
        j += 1
    return np.eye(2) if out is None else out


@st.composite
def matrix_and_powers(draw):
    """A rotation or a random 2x2 matrix with entries scaled 1e-3 to 1e3, and
    powers up to 5000 that include 0 and a repeat."""
    scale = 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        M = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    else:
        M = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
        M = M.reshape(2, 2)
    ks = draw(st.lists(st.integers(0, 5000), min_size=1, max_size=40))
    return M, [0, *ks, ks[0]]


@settings(max_examples=200, deadline=None)
@given(matrix_and_powers())
def test_batched_powers_are_bitwise_the_binary_expansion(drawn):
    M, ks = drawn
    cache = [M]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.array([_mat_pow(M, k, cache) for k in ks])
    got = _mat_pows(M, ks)
    assert got.shape == (len(ks), 2, 2)
    assert got.tobytes() == expected.tobytes()
