"""Period maps and criteria of many systems in one call each, and the sweep that
evaluates its grid in chunks through them: every answer must equal the
one-system path."""

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
                             criteria, evaluate_all, evaluate_many, monodromies, monodromy,
                             propagation, validate_system)
from impulse_floquet.criteria import CRITERION_ORDER
from impulse_floquet.descriptors import (set_descriptor_value, system_from_descriptor,
                                         system_to_descriptor)
from impulse_floquet.harness import CHUNK, GeneratorSpec, generate
from perfbench.inputs import SWEEP_ROW_VALUES, sweep_descriptor, sweep_rows

from helpers import make_system, poly
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


def _single(system, fn=monodromy):
    try:
        return fn(system)
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
    assert len(serial.splitlines()) == 151 > CHUNK + 1
    assert _sweep(tmp_path, axes, 2) == serial


# -- criteria of many systems: coefficient quantities shared per coefficient set --

def _assert_same_reports(entry, expected):
    if isinstance(expected, Exception):
        assert type(entry) is type(expected)
        assert str(entry) == str(expected)
        return
    # json text, not dicts: -0.0 == 0.0 would hide a margin's sign
    assert [json.dumps(r.to_json()) for r in entry] == [json.dumps(r.to_json()) for r in expected]


@st.composite
def coefficient_sharing_chunks(draw):
    """Up to eight systems on at most three coefficient sets. Each system draws
    its own impulse numbers, often beta = 0 or alpha = 1, and may move the
    first impulse time, which gives its coefficients another breakpoint."""
    T = draw(st.floats(0.2, 3.0))
    coef = st.floats(-1.5, 1.5)

    def coefficient(first=coef):
        cuts = sorted(draw(st.sets(st.integers(1, 99), max_size=2)))
        segs = [[draw(first), *draw(st.lists(coef, max_size=2))] for _ in range(len(cuts) + 1)]
        return poly(None, T=T, breaks=[T * k / 100 for k in cuts], per_segment=segs)

    bases = [(coefficient(), coefficient(st.floats(0.2, 8.0)), coefficient())
             for _ in range(draw(st.integers(1, 3)))]
    taus = sorted(draw(st.sets(st.integers(2, 98), max_size=3)))
    chunk = []
    for _ in range(draw(st.integers(1, 8))):
        a, b, c = draw(st.sampled_from(bases))
        moved = [k + draw(st.sampled_from([0, 0, 1])) if i == 0 else k for i, k in enumerate(taus)]
        impulses = [(T * k / 100, draw(st.sampled_from([1.0, -1.0, 0.5, 2.0])),
                     draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))) for k in moved]
        if len(set(moved)) == len(moved):
            chunk.append(make_system(a, b, c, T=T, impulses=impulses))
    return chunk


@settings(max_examples=80, deadline=None)
@given(coefficient_sharing_chunks())
def test_each_criteria_entry_equals_evaluate_all(chunk):
    entries = evaluate_many(chunk)
    assert len(entries) == len(chunk)
    for entry, system in zip(entries, chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))


def _integrate_calls(monkeypatch, fn):
    calls = []
    integrate = PiecewiseFunction.integrate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return integrate(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseFunction, "integrate", counted)
    fn()
    monkeypatch.setattr(PiecewiseFunction, "integrate", integrate)
    return len(calls)


def _beta_row(doc, betas=np.linspace(-2.0, 2.0, 21)):
    return [system_from_descriptor(set_descriptor_value(doc, "impulses[0].beta", float(b),
                                                        copy=True)) for b in betas]


def test_signed_zero_coefficients_do_not_share(monkeypatch):
    c = [PiecewiseFunction(1.0, (0.5,), (PolySegment((2.0, zero)), PolySegment((1.0,))))
         for zero in (0.0, -0.0, 0.0)]
    chunk = [make_system(0.3, 1.0, ci, impulses=[(0.25, 1.0, 0.4)]) for ci in c]
    assert c[0] == c[1]  # equal as dataclasses, so the key must look at the sign
    entries = evaluate_many(chunk)
    for entry, system in zip(entries, chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))
    one = _integrate_calls(monkeypatch, lambda: evaluate_all(chunk[0]))
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(chunk)) == 2 * one


def test_one_callable_coefficient_object_is_shared(monkeypatch):
    seg = FuncSegment(lambda t: 1.5 + 0.5 * np.cos(2.0 * np.pi * np.asarray(t)))
    c = PiecewiseFunction(1.0, (), (seg,))
    twin = PiecewiseFunction(1.0, (), (FuncSegment(seg.fn),))  # same callable, another segment
    chunk = [make_system(0.2, 1.0, c, impulses=[(0.5, 1.0, beta)]) for beta in (0.0, 0.7)]
    chunk.append(make_system(0.2, 1.0, twin, impulses=[(0.5, 1.0, -0.3)]))
    for entry, system in zip(evaluate_many(chunk), chunk):
        _assert_same_reports(entry, _single(system, evaluate_all))
    # the first two share; the impulse-free first needs every integral the second does
    apart = sum(_integrate_calls(monkeypatch, lambda s=s: evaluate_all(s)) for s in chunk[::2])
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(chunk)) == apart


def test_one_integrate_pass_per_distinct_coefficient_set(monkeypatch):
    rows = sweep_rows(sweep_descriptor(0))
    row = _beta_row(rows[0])
    one = _integrate_calls(monkeypatch, lambda: evaluate_all(row[0]))
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(row)) == one
    three = [s for doc in rows[:3] for s in _beta_row(doc, [-1.0, 0.0, 1.0])]
    assert _integrate_calls(monkeypatch, lambda: evaluate_many(three)) == 3 * one
    job = (rows[0], [[("impulses[0].beta", b)] for b in np.linspace(-2.0, 2.0, 21)],
           DEFAULT_TOLERANCES)
    assert _integrate_calls(monkeypatch, lambda: cli._sweep_chunk(job)) == one


def test_sweep_points_leave_the_descriptor_unchanged():
    doc = sweep_descriptor(0)
    before = json.dumps(doc)
    job = (doc, [[("impulses[0].beta", 0.5), ("coefficients.c[0].poly[0]", 2.0)]],
           DEFAULT_TOLERANCES)
    assert cli._sweep_chunk(job)[0][-1] == "ok"
    assert json.dumps(doc) == before


# -- probes: inputs that ended in a traceback --

def _generated_descriptor(seed):
    return system_to_descriptor(generate(GeneratorSpec(seed=seed, amplitude=2000.0,
                                                       poly_degree=3)))


def _alternating_a_descriptor(segments):
    """a alternates between +1200 and -1200 on equal segments, b = c = 1, T = 1,
    one impulse: exp(2 int|a|) = exp(2400) is beyond the float range."""
    a = [{"end": (k + 1) / segments, "poly": [1200.0 if k % 2 == 0 else -1200.0]}
         for k in range(segments)]
    tau = (segments // 2 + 0.5) / segments
    return {"period": 1.0, "coefficients": {"a": a, "b": [{"end": 1.0, "poly": [1.0]}],
                                            "c": [{"end": 1.0, "poly": [1.0]}]},
            "impulses": [{"tau": tau, "alpha": 1.0, "beta": 0.3}]}


def _main(tmp_path, capsys, command, doc, *extra):
    src = tmp_path / "probe.json"
    src.write_text(json.dumps(doc))
    rc = cli.main([command, "--input", str(src), *extra])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("seed", [1, 8])
def test_overflowing_period_map_is_an_integration_failure(tmp_path, capsys, seed):
    doc = _generated_descriptor(seed)
    with pytest.raises(IntegrationFailureError, match="non-finite period map"):
        monodromy(system_from_descriptor(doc))
    rc, _, err = _main(tmp_path, capsys, "analyze", doc)
    assert rc == 3 and "non-finite period map" in err
    rc, out, _ = _main(tmp_path, capsys, "sweep", doc, "--axes", "impulses[0].beta=-1:1:2")
    assert rc == 0
    statuses = [row[-1] for row in csv.reader(io.StringIO(out))][1:]
    assert len(statuses) == 2
    assert all(s.startswith("error: non-finite period map") for s in statuses)


def _exp_condition(reports):
    main = next(r for r in reports if r["criterion"] == "main")
    return main["conditions"][-1]


def test_exp_weight_beyond_float_range_is_decided_in_log_space(tmp_path, capsys):
    # 200 segments keep the period map finite; 20 let it overflow
    finite, overflowing = _alternating_a_descriptor(200), _alternating_a_descriptor(20)
    for doc in (finite, overflowing):
        rc, out, _ = _main(tmp_path, capsys, "criteria", doc)
        assert rc == 0
        cond = _exp_condition(json.loads(out)["criteria"])
        assert (cond["status"], cond["margin"]) == ("violated", None)
        assert "log space" in cond["note"]
    rc, out, _ = _main(tmp_path, capsys, "analyze", finite)
    assert rc == 0 and _exp_condition(json.loads(out)["criteria"])["margin"] is None
    rc, _, err = _main(tmp_path, capsys, "analyze", overflowing)
    assert rc == 3 and "non-finite period map" in err
    rc, out, _ = _main(tmp_path, capsys, "sweep", finite, "--axes", "impulses[0].beta=-1:1:3")
    assert rc == 0
    assert [row[-1] for row in csv.reader(io.StringIO(out))][1:] == ["ok"] * 3


def test_exp_weight_in_float_range_keeps_its_margin():
    q = criteria._Quantities(make_system(poly([0.0, 2.0]), 1.0, 0.5), DEFAULT_TOLERANCES)
    cond = criteria._CONDITIONS[criteria.LBL_EXP_PRODUCT](q)
    assert cond.margin == 4.0 - math.exp(2.0 * q.int_abs_a) * q.int_b * q.pos_mass


def test_criteria_exception_becomes_an_error_row(monkeypatch, tmp_path, capsys):
    def fails_for_positive_beta(q):
        if q.system.schedule.impulses[0].beta > 0.0:
            raise OverflowError("math range error")
        return exp_condition(q)

    exp_condition = criteria._CONDITIONS[criteria.LBL_EXP_PRODUCT]
    monkeypatch.setitem(criteria._CONDITIONS, criteria.LBL_EXP_PRODUCT, fails_for_positive_beta)
    rc, out, _ = _main(tmp_path, capsys, "sweep", sweep_descriptor(0),
                       "--axes", "impulses[0].beta=-1:1:3")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[-1] for row in rows] == ["ok", "ok", "error: math range error"]
    assert rows[2][1:-1] == [""] * (len(rows[2]) - 2)
