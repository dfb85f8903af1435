"""Period maps of many systems in one level loop, and the sweep that evaluates
its grid in chunks through them: every answer must equal the one-system path."""

import copy
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_floquet import (DEFAULT_TOLERANCES, FuncSegment, IntegrationFailureError,
                             InvalidSystemError, PiecewiseFunction, PolySegment, classify, cli,
                             evaluate_all, monodromies, monodromy, propagation, validate_system)
from impulse_floquet.criteria import CRITERION_ORDER
from impulse_floquet.descriptors import set_descriptor_value, system_from_descriptor
from impulse_floquet.harness import GeneratorSpec, generate
from perfbench.inputs import SWEEP_ROW_VALUES, sweep_descriptor, sweep_rows

from helpers import make_system
from test_magnus import systems


def _raising(t):
    raise ValueError("coefficient undefined")


_ODD_SYSTEMS = [
    make_system(0.0, 1.0, 1.0, impulses=[(0.5, 0.0, 0.0)]),  # zero impulse multiplier
    make_system(0.0, 1.0, PiecewiseFunction(1.0, (0.5,), (PolySegment((1.0,)),
                                                          PolySegment((math.inf,))))),
    make_system(0.0, 1.0, PiecewiseFunction.from_callable(
        lambda t: np.where(np.asarray(t) > 0.5, np.nan, 1.0), 1.0)),
    make_system(0.0, 1.0, PiecewiseFunction(1.0, (0.5,), (PolySegment((1.0,)),
                                                          FuncSegment(_raising)))),
]


def _single(system):
    try:
        return monodromy(system)
    except Exception as exc:
        return exc


def _assert_same(entry, expected):
    if isinstance(expected, Exception):
        assert type(entry) is type(expected)
        assert str(entry) == str(expected)
        return
    assert np.array_equal(entry.matrix, expected.matrix)
    for name in ("trace", "det", "det_integrated", "error_estimate", "multipliers"):
        assert getattr(entry, name) == getattr(expected, name), name


def test_odd_systems_fail_as_alone():
    kinds = [type(_single(s)) for s in _ODD_SYSTEMS]
    assert kinds == [InvalidSystemError, IntegrationFailureError, IntegrationFailureError,
                     ValueError]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(systems(), st.sampled_from(_ODD_SYSTEMS)), min_size=1, max_size=5))
def test_each_entry_equals_the_single_system_map(batch):
    entries = monodromies(batch)
    assert len(entries) == len(batch)
    for entry, system in zip(entries, batch):
        _assert_same(entry, _single(system))


def test_budget_failure_in_a_batch_reads_as_alone(monkeypatch):
    monkeypatch.setattr(propagation, "_MAX_STEPS", 8)
    c = PiecewiseFunction(1.0, (0.3, 0.6), (PolySegment((1.0,)), PolySegment((400.0, 100.0)),
                                            PolySegment((2.0, 1.0))))
    batch = [make_system(0.0, 1.0, 2.0), make_system(0.0, 1.0, c), make_system(0.3, 1.0, c),
             make_system(0.1, 1.0, 1.5)]
    entries = monodromies(batch)
    assert str(entries[1]).startswith("no convergence") and "t=0.3)" in str(entries[1])
    for entry, system in zip(entries, batch):
        _assert_same(entry, _single(system))


def _count_maps(monkeypatch, fn):
    calls = []
    maps = propagation._maps

    def counted(*args):
        calls.append(args[-1].shape)
        return maps(*args)

    monkeypatch.setattr(propagation, "_maps", counted)
    fn()
    monkeypatch.setattr(propagation, "_maps", maps)
    return len(calls)


@pytest.mark.parametrize("batch", ["sweep_row", "generated"])
def test_a_batch_makes_as_many_kernel_calls_as_its_deepest_system(monkeypatch, batch):
    if batch == "sweep_row":
        doc = sweep_rows(sweep_descriptor(0))[0]
        systems_ = []
        for beta in np.linspace(-2.0, 2.0, 21):
            point = copy.deepcopy(doc)
            set_descriptor_value(point, "impulses[0].beta", float(beta))
            systems_.append(system_from_descriptor(point))
    else:
        systems_ = [generate(GeneratorSpec(seed=s)) for s in range(12)]
    singles = [_count_maps(monkeypatch, lambda s=s: monodromy(s)) for s in systems_]
    assert _count_maps(monkeypatch, lambda: monodromies(systems_)) == max(singles)
    if batch == "sweep_row":
        assert max(singles) == 6


def _reference_rows(doc, axes, tol=DEFAULT_TOLERANCES):
    """One point at a time, as the sweep evaluated its grid before chunking."""
    (p0, v0s), (p1, v1s) = axes
    rows = []
    for v0 in v0s:
        for v1 in v1s:
            point = copy.deepcopy(doc)
            assignments = [(p0, float(v0)), (p1, float(v1))]
            try:
                for path, value in assignments:
                    set_descriptor_value(point, path, value)
                system = system_from_descriptor(point)
                violations = validate_system(system)
                if violations:
                    raise InvalidSystemError(violations)
                m = monodromy(system, tol)
                verdict = classify(m, tol.boundary)
                conclusions = {r.criterion: r.conclusion for r in evaluate_all(system, tol)}
                rows.append([*(v for _, v in assignments), m.trace, m.det, verdict.category,
                             *(conclusions[c] for c in CRITERION_ORDER), "ok"])
            except (InvalidSystemError, IntegrationFailureError) as exc:
                rows.append([*(v for _, v in assignments), "", "", "",
                             *([""] * len(CRITERION_ORDER)), f"error: {exc}"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([p0, p1, *cli.SWEEP_BASE_COLUMNS])
    writer.writerows(rows)
    return buf.getvalue()


def _sweep(tmp_path, axes, workers):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(sweep_descriptor(0)))
    out = tmp_path / f"out{workers}.csv"
    argv = ["sweep", "--input", str(src), "--output", str(out), "--workers", str(workers)]
    for path, lo, hi, steps in axes:
        argv += ["--axes", f"{path}={lo}:{hi}:{steps}"]
    assert cli.main(argv) == 0
    return out.read_bytes().decode("utf-8")


def test_mixed_grid_rows_equal_the_per_point_reference(tmp_path):
    # alpha = 0 is invalid, c near 1e13 has a non-finite step map, the rest are ok
    axes = [("impulses[0].alpha", -1.0, 1.0, 5), ("coefficients.c[0].poly[0]", 1.0, 4e13, 7)]
    text = _sweep(tmp_path, axes, 1)
    statuses = [row[-1] for row in csv.reader(io.StringIO(text))][1:]
    assert statuses.count("ok") == 4
    assert sum(s.startswith("error: impulse 1") for s in statuses) == 7
    assert sum(s.startswith("error: non-finite step map") for s in statuses) == 24
    grid = [(p, np.linspace(lo, hi, n)) for p, lo, hi, n in axes]
    assert text == _reference_rows(sweep_descriptor(0), grid)


def test_two_workers_equal_the_serial_sweep(tmp_path):
    axes = [("coefficients.c[0].poly[0]", float(SWEEP_ROW_VALUES[0]), 3.0, 3),
            ("impulses[0].beta", -2.0, 2.0, 50)]
    serial = _sweep(tmp_path, axes, 1)
    assert len(serial.splitlines()) == 151 > cli._SWEEP_CHUNK + 1
    assert _sweep(tmp_path, axes, 2) == serial
